"""The public surface: every name a module lists in `__all__` exists,
only the Monte Carlo loads numpy, the language package loads neither the
machine nor the compiler, every function the traced benchmark
wraps still exists, and the built-in rig's file is installed with the
package."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import chemvm

MODULES = sorted(m.name for m in pkgutil.walk_packages(chemvm.__path__, "chemvm."))


def test_modules_found():
    assert {"chemvm.cli", "chemvm.rules", "chemvm.chemlang.ast"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


_NUMPY_CHILD = """
import contextlib, io, sys
from chemvm.cli import main
fx, out = sys.argv[1], sys.argv[2]
tiny, rules = fx + "/tiny.chem", fx + "/tiny.rules"
loaded = []
for argv in (["validate", tiny], ["compile", tiny], ["run", tiny, "--rules", rules],
             ["dec-run", tiny, "--rules", rules],
             ["mc", "--config", fx + "/mc_small.json"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", out])
    loaded.append((argv[0], code, "numpy" in sys.modules))
print(loaded)
"""


def test_only_mc_loads_numpy(tmp_path):
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(chemvm.__path__[0])}
    out = subprocess.run(
        [sys.executable, "-c", _NUMPY_CHILD, str(fixtures), str(tmp_path / "out")],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == str([
        ("validate", 0, False), ("compile", 0, False), ("run", 0, False),
        ("dec-run", 0, False), ("mc", 0, True)])


def test_the_language_loads_no_machine_or_compiler():
    # chemlang sits below cstm and the chempiler, which both import it
    env = {**os.environ, "PYTHONPATH": os.path.dirname(chemvm.__path__[0])}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, chemvm.chemlang; "
         "print(sorted(m for m in ('chemvm.cstm', 'chemvm.chempiler') if m in sys.modules))"],
        capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_traced_benchmark_functions_resolve():
    # bench/tracing.py wraps layer functions by name; a rename under src/
    # would otherwise only show when `bench/run.py --trace 1` fails
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    sys.path.insert(0, bench)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(bench)
    assert [name for name, (owner, attr) in tracing.TRACED.items()
            if not callable(getattr(owner, attr, None))] == []


def test_builtin_rig_is_package_data():
    # without it an install would fail only at its first `chemvm validate`
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "default_rig.graph" in config["tool"]["setuptools"]["package-data"]["chemvm"]
    assert Path(chemvm.__path__[0], "default_rig.graph").is_file()

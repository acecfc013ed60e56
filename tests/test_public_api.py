"""The public surface: every name a module lists in `__all__` exists,
loading rule files does not pull in numpy, and every function the traced
benchmark wraps still exists."""

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


def test_rules_import_does_not_load_numpy():
    code = "import sys, chemvm.rules; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(chemvm.__path__[0])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


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

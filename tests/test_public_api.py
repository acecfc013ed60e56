"""The public surface: every name a module lists in `__all__` exists, and
loading rule files does not pull in numpy."""

import importlib
import os
import pkgutil
import subprocess
import sys

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

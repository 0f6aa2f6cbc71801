"""Every public name a module exports exists."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import nlfront

MODULES = ["nlfront"] + [f"nlfront.{m.name}" for m in pkgutil.iter_modules(nlfront.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(module, "__all__", ())) <= set(namespace)


def test_cli_import_leaves_signal_processing_and_statistics_out():
    # scipy.signal (and the scipy.stats it pulls in) cost about 0.9 s of
    # every invocation's start-up, scipy.integrate and scipy.optimize about
    # 0.13 s and 9 MB; nothing in nlfront may import them
    unused = ("scipy.signal", "scipy.stats", "scipy.optimize", "scipy.integrate")
    code = f"import sys, nlfront.cli; print(sorted(m for m in {unused!r} if m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(nlfront.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy():
    # scipy's array-API layer alone cost every run about 0.3 s of start-up
    # and 20 MB; the package runs on numpy alone
    code = "import sys, nlfront.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(nlfront.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"

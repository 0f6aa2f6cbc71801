"""Every public name a module exports exists."""
import importlib
import pkgutil

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

import importlib
import pkgutil

import pytest

import cyclecast

MODULES = ["cyclecast"] + [f"cyclecast.{info.name}" for info in pkgutil.iter_modules(cyclecast.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", ())
    assert len(exports) == len(set(exports)), f"{name}.__all__ lists a name twice"
    missing = [export for export in exports if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"

import importlib
import pkgutil

import pytest

import legval

MODULES = [m.name for m in pkgutil.iter_modules(legval.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_package_exports_each_name_of_module_all(module):
    # the package re-exports each module's __all__, the one list of its public names
    mod = importlib.import_module(f"legval.{module}")
    for name in getattr(mod, "__all__", ()):
        assert getattr(legval, name, None) is getattr(mod, name), name

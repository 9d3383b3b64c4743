"""Every name a module lists in __all__ resolves on that module."""

import importlib
import pkgutil

import pytest

import polarlink

MODULES = [importlib.import_module(f"polarlink.{m.name}")
           for m in pkgutil.iter_modules(polarlink.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists undefined names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)

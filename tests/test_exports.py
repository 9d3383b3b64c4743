"""Every name a module lists in __all__ resolves on that module, and every
name the package imports from a module is in that module's __all__."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _package_imports():
    """(module, name) for each ``from .module import name`` in __init__.py."""
    tree = ast.parse(Path(polarlink.__file__).read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_package_imports_only_exported_names():
    imports = _package_imports()
    assert imports
    stray = [f"{module}.{name}" for module, name in imports
             if name not in importlib.import_module(f"polarlink.{module}").__all__]
    assert not stray, f"polarlink/__init__.py imports names not in their module's __all__: {stray}"

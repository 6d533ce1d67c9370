"""Every name a currentkit module exports resolves, and the package
re-exports only names its modules export."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import currentkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(currentkit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"currentkit.{name}")
    missing = [attr for attr in getattr(module, "__all__", [])
               if not hasattr(module, attr)]
    assert missing == []


def test_package_imports_are_exported():
    # a name deleted from a module's __all__ but still imported by the
    # package fails here
    tree = ast.parse(inspect.getsource(currentkit))
    unlisted = [(node.module, alias.name)
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names
                if alias.name not in importlib.import_module(
                    f"currentkit.{node.module}").__all__]
    assert unlisted == []

"""Every name a currentkit module exports resolves."""

import importlib
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


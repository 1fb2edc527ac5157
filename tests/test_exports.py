"""Every name a module exports through ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import ordlines

MODULES = ["ordlines"] + [f"ordlines.{m.name}" for m in pkgutil.iter_modules(ordlines.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []

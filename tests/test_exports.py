"""Every name in the ``__all__`` of the package and of each of its modules
resolves, so a deleted function whose export was left behind fails here."""

import importlib
import pkgutil

import pytest

import usnc

MODULES = ["usnc"] + sorted(
    "usnc." + info.name for info in pkgutil.iter_modules(usnc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []

"""Every name in the ``__all__`` of the package and of each of its modules
resolves, so a deleted function whose export was left behind fails here;
and no test reference in ``tests/reference.py`` is also defined in the
package, so a reference moved out of ``src`` cannot fork back in."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import usnc

MODULES = ["usnc"] + sorted(
    "usnc." + info.name for info in pkgutil.iter_modules(usnc.__path__))


def top_level_defs(path) -> set:
    """Names of the functions and classes a file defines at top level."""
    return {node.name for node in ast.parse(pathlib.Path(path).read_text())
            .body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


REFERENCES = sorted(top_level_defs(
    pathlib.Path(__file__).parent / "reference.py"))


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []


@pytest.mark.parametrize("name", REFERENCES)
def test_reference_not_defined_in_package(name):
    owners = [module for module in MODULES
              if name in top_level_defs(importlib.import_module(module)
                                        .__file__)]
    assert owners == [], "%s is defined in %s" % (name, owners)

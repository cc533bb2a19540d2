"""The mutant catalogue still applies to the code: each entry's "before"
snippet occurs exactly once in its file, and each node it names still
exists (its file, class and test function, read from the file's syntax
tree; parametrize ids are not checked). ``python tests/mutants.py`` runs
the mutants themselves."""

import ast

import pytest

from mutants import CATALOGUE, ROOT


def test_names_are_unique():
    assert len({m.name for m in CATALOGUE}) == len(CATALOGUE)


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_before_snippet_occurs_once(mutant):
    text = (ROOT / "src" / "usnc" / mutant.path).read_text()
    assert text.count(mutant.before) == 1
    assert mutant.after != mutant.before and mutant.nodes


def defines(path, names) -> bool:
    """Whether the file defines the class and function path ``names``."""
    body = ast.parse((ROOT / path).read_text()).body
    for name in names:
        node = next((n for n in body if isinstance(n, (
            ast.ClassDef, ast.FunctionDef)) and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_nodes_exist(mutant):
    for node in mutant.nodes:
        path, *names = node.split("[", 1)[0].split("::")
        assert (ROOT / path).is_file() and names, node
        assert defines(path, names), node

"""The mutant catalogue still applies to the code: each entry's "before"
snippet occurs exactly once in its file. ``python tests/mutants.py`` runs
the mutants themselves."""

import pytest

from mutants import CATALOGUE, ROOT


def test_names_are_unique():
    assert len({m.name for m in CATALOGUE}) == len(CATALOGUE)


@pytest.mark.parametrize("mutant", CATALOGUE, ids=lambda m: m.name)
def test_before_snippet_occurs_once(mutant):
    text = (ROOT / "src" / "usnc" / mutant.path).read_text()
    assert text.count(mutant.before) == 1
    assert mutant.after != mutant.before and mutant.nodes

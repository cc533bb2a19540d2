"""The benchmark's trace wrappers name attributes of the package and the
parameters their counts read; an API rename or deletion that would break
``benchmarks/run.py --trace 1`` fails here instead. The module is only
imported, never installed."""

import importlib.util
import inspect
import pathlib
import re

import pytest

TRACING = pathlib.Path(__file__).parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("usnc_bench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAP_POINTS = _load_tracing().WRAP_POINTS


@pytest.mark.parametrize("owner, attr, span",
                         [point[:3] for point in WRAP_POINTS],
                         ids=["%s.%s" % (point[0].__name__, point[1])
                              for point in WRAP_POINTS])
def test_wrap_point_resolves(owner, attr, span):
    assert callable(getattr(owner, attr, None)), \
        "%s.%s (span %s) is gone" % (owner.__name__, attr, span)


COUNTED = [point for point in WRAP_POINTS if point[3] is not None]


@pytest.mark.parametrize("owner, attr, count", [
    (point[0], point[1], point[3]) for point in COUNTED],
    ids=[point[3][0] for point in COUNTED])
def test_count_reads_parameters(owner, attr, count):
    # a count reads the wrapped call's bound arguments, ``a["name"]``; a
    # method's ``self`` is among them
    names = set(re.findall(r"""\ba\[["'](\w+)["']\]""",
                           inspect.getsource(count[1])))
    assert names, "count %s reads no argument" % count[0]
    params = set(inspect.signature(getattr(owner, attr)).parameters)
    assert names <= params, "count %s reads %s, not parameters of %s.%s" % (
        count[0], sorted(names - params), owner.__name__, attr)

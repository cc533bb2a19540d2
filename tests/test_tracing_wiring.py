"""The benchmark's trace wrappers name attributes of the package; an API
rename or deletion that would break ``benchmarks/run.py --trace 1`` fails
here instead. The module is only imported, never installed."""

import importlib.util
import pathlib

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

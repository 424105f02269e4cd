import pytest
from hypothesis import settings

from l1opt import blocks

# CI selects this profile with --hypothesis-profile=ci: every run draws
# the same examples, and tests that set no max_examples draw three times
# the default.
settings.register_profile("ci", derandomize=True, max_examples=300)


@pytest.fixture
def evaluators_run(monkeypatch):
    """The evaluators that the test's scans ran, in order, each named by
    the function that made it: ``_float_evaluator`` or ``_int_evaluator``
    (the block evaluator in float64 or over ints) or ``point_evaluator``.
    ``blocks.block_scan`` picks one of the three for every walk."""
    names = []
    for name in ("_float_evaluator", "_int_evaluator", "point_evaluator"):

        def spy(*args, make=getattr(blocks, name), name=name):
            names.append(name)
            return make(*args)

        monkeypatch.setattr(blocks, name, spy)
    return names

import pytest
from hypothesis import settings

from l1opt import blocks, ptas, solver

# CI selects this profile with --hypothesis-profile=ci: every run draws
# the same examples, and tests that set no max_examples draw three times
# the default.
settings.register_profile("ci", derandomize=True, max_examples=300)


@pytest.fixture
def evaluators_run(monkeypatch):
    """The evaluators that the test's scans ran, in order, each named by
    the function that made it: ``_float_evaluator`` or ``_int_evaluator``
    (the block evaluator in float64 or over ints) or ``point_evaluator``."""
    names = []
    scan = blocks.block_scan

    def spy(n, rho, evaluator, *args):
        names.append(evaluator[0].__qualname__.split(".")[0])
        return scan(n, rho, evaluator, *args)

    monkeypatch.setattr(solver, "block_scan", spy)
    monkeypatch.setattr(ptas, "block_scan", spy)
    return names

import dataclasses
import pathlib
import random
import re
from fractions import Fraction

import pytest

from l1opt.complexity import (
    ConvexOptBackend,
    LinearRegionBackend,
    estimate_bound,
    verify_cover,
)
from l1opt.counting import oracle_complexity_bound
from l1opt.errors import RegionInfeasibleError, RegionUnboundedError, ShapeMismatchError
from l1opt.files import load_problem
from l1opt.solver import ProblemInstance

DATA = pathlib.Path(__file__).parent / "data"


def unit_box(n):
    rows = []
    rhs = []
    for i in range(n):
        low = [0] * n
        low[i] = -1
        rows.append(low)
        rhs.append(0)
        high = [0] * n
        high[i] = 1
        rows.append(high)
        rhs.append(1)
    return rows, rhs


def simplex(n):
    rows = [[-1 if j == i else 0 for j in range(n)] for i in range(n)]
    rows.append([1] * n)
    rhs = [0] * n + [1]
    return rows, rhs


def feasibility(A, b):
    instance = ProblemInstance.linear([0] * len(A[0]), A, b)
    return lambda x: all(g <= 0 for g in instance.constraints(x))


def test_unit_box_report():
    A, b = unit_box(2)
    report = estimate_bound(LinearRegionBackend(A, b), 2)
    assert report.l == (0, 0)
    assert report.u == (1, 1)
    assert report.rho == 2
    assert report.bound.exact == 131072
    assert report.backend_calls == 5


def test_simplex_report():
    A, b = simplex(3)
    report = estimate_bound(LinearRegionBackend(A, b), 3)
    assert report.rho == 1
    assert report.bound.exact == 243
    assert report.backend_calls == 7


def test_nonnegative_cube_exhibits_exponential_radius():
    # The nonnegative unit cube in n=2 has l1 diameter n * 1, so the
    # radius scales with the dimension and the bound turns exponential.
    A, b = unit_box(2)
    report = estimate_bound(LinearRegionBackend(A, b), 2)
    assert report.rho == 2 * 1
    assert report.bound.exact >= (1 + 2 * 1) ** 2


def test_backend_call_count_is_always_2n_plus_1():
    rng = random.Random(2)
    for _ in range(5):
        n = rng.randint(2, 4)
        A, b = unit_box(n)
        report = estimate_bound(LinearRegionBackend(A, b), n)
        assert report.backend_calls == 2 * n + 1


def test_bound_consistency_with_formula():
    A, b = simplex(4)
    for simplified in (True, False):
        report = estimate_bound(LinearRegionBackend(A, b), 4, slack=0.5, simplified=simplified)
        formula = oracle_complexity_bound(4, report.rho, slack=0.5, simplified=simplified)
        assert report.bound == formula


def test_unbounded_region_is_reported():
    with pytest.raises(RegionUnboundedError):
        estimate_bound(LinearRegionBackend([[-1, 0], [0, -1]], [0, 0]), 2)


def test_empty_region_is_reported():
    # x1 <= -2 and -x1 <= 1 cannot hold together.
    rows = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    rhs = [-2, 1, 1, 1]
    with pytest.raises(RegionInfeasibleError):
        estimate_bound(LinearRegionBackend(rows, rhs), 2)


def test_dimension_one_is_rejected():
    from l1opt.errors import InvalidDimensionError

    with pytest.raises(InvalidDimensionError):
        estimate_bound(LinearRegionBackend([[1], [-1]], [1, 0]), 1)


def test_verify_cover_box_and_simplex():
    A, b = unit_box(2)
    report = estimate_bound(LinearRegionBackend(A, b), 2)
    check = verify_cover(report, feasibility(A, b))
    assert check.passed
    assert check.exhaustive
    assert check.points_checked == 4

    A, b = simplex(3)
    report = estimate_bound(LinearRegionBackend(A, b), 3)
    check = verify_cover(report, feasibility(A, b))
    assert check.passed


def test_verify_cover_catches_corrupted_radius():
    A, b = unit_box(2)
    report = estimate_bound(LinearRegionBackend(A, b), 2)
    corrupted = dataclasses.replace(report, rho=report.rho - 1)
    check = verify_cover(corrupted, feasibility(A, b))
    assert not check.passed
    assert check.counterexample == (1, 1)


def test_verify_cover_budget_fallback_samples():
    A, b = unit_box(3)
    scaled = [v * 10 for v in b]
    report = estimate_bound(LinearRegionBackend(A, scaled), 3)
    check = verify_cover(report, feasibility(A, scaled), budget=100, seed=0)
    assert check.passed
    assert not check.exhaustive
    assert "sampled" in check.note


def test_orthant_tightness():
    # Regions inside one orthant make the lifted relaxation exact, so
    # rho equals the floor of the true maximal l1 norm.
    A, b = simplex(3)
    assert estimate_bound(LinearRegionBackend(A, b), 3).rho == 1
    A, b = unit_box(2)
    scaled_b = [Fraction(5, 2) * v for v in b]
    report = estimate_bound(LinearRegionBackend(A, scaled_b), 2)
    assert report.rho == 5


def test_enlarging_region_never_shrinks_radius():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(2, 3)
        A, b = unit_box(n)
        extra = [[Fraction(rng.randint(-2, 2)) for _ in range(n)]]
        extra_b = [Fraction(rng.randint(1, 4))]
        rows = A + extra
        rhs = b + extra_b
        base = estimate_bound(LinearRegionBackend(rows, rhs), n)
        relaxed_rhs = [v + Fraction(rng.randint(0, 3)) for v in rhs]
        relaxed = estimate_bound(LinearRegionBackend(rows, relaxed_rhs), n)
        assert relaxed.rho >= base.rho


def test_random_regions_cover_soundness():
    rng = random.Random(13)
    for trial in range(8):
        n = rng.randint(2, 4)
        m = rng.randint(1, 3)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        anchor = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        rhs = [
            sum(a * v for a, v in zip(row, anchor)) + Fraction(rng.randint(0, 3))
            for row in rows
        ]
        for i in range(n):
            for sign in (1, -1):
                row = [Fraction(0)] * n
                row[i] = Fraction(sign)
                rows.append(row)
                rhs.append(Fraction(4))
        report = estimate_bound(LinearRegionBackend(rows, rhs), n)
        check = verify_cover(report, feasibility(rows, rhs))
        assert check.passed, f"trial {trial}: counterexample {check.counterexample}"


def test_benchmark_shaped_region_is_answered_by_certified_solves():
    # 12 variables and 48 rational rows, the size of the benchmark's bound jobs.
    problem = load_problem(str(DATA / "bound_12x48.json"))
    backend = LinearRegionBackend(problem.A, problem.b)
    report = estimate_bound(backend, problem.n)
    assert report.backend_calls == backend.lp_calls == 25
    assert backend.certified_solves == report.certified_solves == 25
    assert backend.fallback_pivots == report.fallback_pivots == 0


def test_backend_counts_the_pivots_of_fallbacks():
    # A coefficient past the float range keeps the float guide out, so
    # every solve is the exact simplex and its pivots are counted.
    huge = 10**400
    A = [[huge, 0], [0, 1], [-1, 0], [0, -1]]
    b = [huge, 1, 0, 0]
    backend = LinearRegionBackend(A, b)
    report = estimate_bound(backend, 2)
    assert (report.l, report.u, report.rho) == ((0, 0), (1, 1), 2)
    assert backend.lp_calls == 5
    assert backend.certified_solves == report.certified_solves == 0
    assert backend.fallback_pivots == report.fallback_pivots > 0


def test_bound_report_counts_its_own_solves():
    # A second estimate on the same backend reports only its own solves.
    problem = load_problem(str(DATA / "bound_phase1.json"))
    backend = LinearRegionBackend(problem.A, problem.b)
    first = estimate_bound(backend, problem.n)
    second = estimate_bound(backend, problem.n)
    assert first == second
    assert (first.certified_solves, first.fallback_pivots) == (13, 0)
    assert backend.certified_solves == 26


class OnlyMaximize(ConvexOptBackend):
    """A user backend that defines only ``maximize``: the unit box in the
    plane, maximized by a vertex."""

    def __init__(self):
        self.calls = []

    def maximize(self, direction, lifted_bounds=None):
        self.calls.append((list(direction), lifted_bounds))
        x = tuple(1 if v > 0 else 0 for v in direction)
        return sum(v for v in direction if v > 0), x


def test_a_backend_with_only_maximize_sees_each_call_in_order():
    backend = OnlyMaximize()
    report = estimate_bound(backend, 2)
    assert backend.calls == [
        ([1, 0], None),
        ([-1, 0], None),
        ([0, 1], None),
        ([0, -1], None),
        ([1, 1, 1, 1], ([1, 1], [0, 0])),
    ]
    assert report.backend_calls == 5
    assert (report.certified_solves, report.fallback_pivots) == (None, None)


SQUARE = [[1, 0], [-1, 0], [0, 1], [0, -1]]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: estimate_bound(LinearRegionBackend([], []), 2),
            RegionUnboundedError,
            "the region {x : Ax <= b} is unbounded",
        ),
        (
            lambda: estimate_bound(LinearRegionBackend(SQUARE, [1, 1, 1, 1]), 3),
            ShapeMismatchError,
            "constraint row has 2 entries, expected 3",
        ),
        (
            lambda: estimate_bound(LinearRegionBackend([[1, 0], [-1], [0, 1], [0, -1]], [1, 1, 1, 1]), 2),
            ShapeMismatchError,
            "constraint row has 1 entries, expected 2",
        ),
        (
            lambda: LinearRegionBackend(SQUARE, [1, 1, float("inf"), 1]),
            ValueError,
            "LinearRegionBackend: b[2] = inf is not a finite number",
        ),
    ],
)
def test_backend_edge_cases_keep_their_errors(call, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        call()


def test_backend_checks_each_direction_against_its_rows():
    # The rows built for the first direction must not serve a longer one.
    backend = LinearRegionBackend(SQUARE, [1, 1, 1, 1])
    assert backend.maximize([1, 0])[0] == 1
    with pytest.raises(ShapeMismatchError, match="^constraint row has 2 entries, expected 3$"):
        backend.maximize([1, 0, 0])
    assert backend.maximize([0, -1])[0] == 1

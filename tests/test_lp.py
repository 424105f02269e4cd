import pathlib
import random
import re
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1opt.complexity import LinearRegionBackend
from l1opt.errors import RegionInfeasibleError, RegionUnboundedError, ShapeMismatchError
from l1opt.files import load_problem
from l1opt import lp, lp_guide
from l1opt.lp import lp_optimum, lp_solve
from l1opt.ptas import linear_mixed_inner_solver
from oracles import (
    certify_reference,
    fraction_lp_solve,
    guide_basis_reference,
    reference_float_pivots,
    solve_square_reference,
    vertex_lp_brute,
)

DATA = pathlib.Path(__file__).parent / "data"


def test_simple_max():
    result = lp_solve([1, 1], [[1, 1]], [1], sense="max", lower=[0, 0])
    assert result.status == "optimal"
    assert result.value == 1


def test_single_variable_interval():
    result = lp_solve([1], [[1], [-1]], [3, 0], sense="max")
    assert result.status == "optimal"
    assert result.value == 3
    assert result.x == (Fraction(3),)


def test_unbounded_detection():
    result = lp_solve([1, 0], [[-1, 0]], [0], sense="max")
    assert result.status == "unbounded"


def test_infeasible_detection():
    result = lp_solve([1], [[1], [-1]], [-2, 1])
    assert result.status == "infeasible"


def test_conflicting_bounds_infeasible():
    result = lp_solve([1], [], [], lower=[2], upper=[1])
    assert result.status == "infeasible"


def test_results_are_exact_fractions():
    result = lp_solve(
        [Fraction(1, 3), Fraction(-1, 7)],
        [[1, 1], [-1, 0], [0, -1]],
        [Fraction(5, 2), 0, 0],
        sense="max",
    )
    assert result.status == "optimal"
    assert isinstance(result.value, Fraction)
    # The optimum sits at the vertex (0, 5/2).
    assert result.value == Fraction(-1, 7) * Fraction(5, 2) * 0 + Fraction(1, 3) * Fraction(5, 2)


def test_box_bounds_respected():
    result = lp_solve([-1, -1], [[1, 1]], [10], lower=[0, 0], upper=[2, 3])
    assert result.status == "optimal"
    assert result.x == (Fraction(2), Fraction(3))
    assert result.value == -5


def test_shape_validation():
    with pytest.raises(ShapeMismatchError):
        lp_solve([1, 2], [[1]], [1])
    with pytest.raises(ShapeMismatchError):
        lp_solve([1], [[1]], [1, 2])
    with pytest.raises(ShapeMismatchError):
        lp_solve([1], [[1]], [1], lower=[0, 0])


def test_float_inputs_are_converted_exactly():
    result = lp_solve([0.5, -0.25], [[1.0, 1.0]], [2.0], lower=[0.0, 0.0], upper=[2.0, 2.0])
    assert result.status == "optimal"
    assert result.value == Fraction(-1, 2)


def test_degenerate_equality_like_rows():
    # x <= 1 and -x <= -1 pin x to 1 exactly.
    result = lp_solve([1], [[1], [-1]], [1, -1])
    assert result.status == "optimal"
    assert result.x == (Fraction(1),)


def test_random_lps_match_vertex_enumeration():
    rng = random.Random(11)
    for trial in range(50):
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        c = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(m)
        ]
        anchor = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        rhs = [
            sum(a * b for a, b in zip(row, anchor)) + Fraction(rng.randint(0, 5))
            for row in rows
        ]
        # Box rows keep the region bounded so vertex enumeration applies.
        for j in range(n):
            unit = [Fraction(0)] * n
            unit[j] = Fraction(1)
            rows.append(unit[:])
            rhs.append(Fraction(10))
            unit = [Fraction(0)] * n
            unit[j] = Fraction(-1)
            rows.append(unit)
            rhs.append(Fraction(10))
        sense = rng.choice(["min", "max"])
        result = lp_solve(c, rows, rhs, sense=sense)
        reference = vertex_lp_brute(c, rows, rhs, sense)
        assert result.status == "optimal", f"trial {trial}"
        assert result.value == reference, f"trial {trial}"


def _random_lp(rng):
    """A seeded LP with n <= 8 variables and m <= 12 rows, of one of four
    shapes: boxed (bounded), free, row-contradicting, or one-sided bounds."""
    n = rng.randint(1, 8)
    m = rng.randint(1, 12)
    shape = rng.choice(["boxed", "free", "contradiction", "bounds"])
    c = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
    rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
    anchor = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    rhs = [sum(a * x for a, x in zip(row, anchor)) + rng.randint(0, 5) for row in rows]
    lower = [None] * n
    upper = [None] * n
    if shape == "boxed":
        lower = [Fraction(rng.randint(-10, -4)) for _ in range(n)]
        upper = [Fraction(rng.randint(4, 10)) for _ in range(n)]
    elif shape == "contradiction":
        # a.x <= beta and -a.x <= -beta - 1 cannot both hold.
        k = rng.randrange(m)
        rows.append([-a for a in rows[k]])
        rhs.append(-rhs[k] - 1)
    elif shape == "bounds":
        # Random one-sided bounds; some may cut off every row-feasible point.
        for j in range(n):
            side = rng.choice(["lower", "upper", None])
            if side == "lower":
                lower[j] = Fraction(rng.randint(-4, 6))
            elif side == "upper":
                upper[j] = Fraction(rng.randint(-6, 4))
    return c, rows, rhs, rng.choice(["min", "max"]), lower, upper


def test_random_lps_match_scipy_highs():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    statuses = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    rng = random.Random(23)
    seen = set()
    for trial in range(150):
        c, rows, rhs, sense, lower, upper = _random_lp(rng)
        result = lp_solve(c, rows, rhs, sense=sense, lower=lower, upper=upper)
        sign = -1 if sense == "max" else 1
        reference = scipy_optimize.linprog(
            [sign * float(v) for v in c],
            A_ub=[[float(v) for v in row] for row in rows],
            b_ub=[float(v) for v in rhs],
            bounds=[
                (None if lo is None else float(lo), None if hi is None else float(hi))
                for lo, hi in zip(lower, upper)
            ],
            method="highs",
        )
        assert result.status == statuses[reference.status], f"trial {trial}"
        seen.add(result.status)
        if result.status == "optimal":
            expected = sign * reference.fun
            assert abs(float(result.value) - expected) <= 1e-7 * (1 + abs(expected)), f"trial {trial}"
            assert result.value == sum(a * x for a, x in zip(c, result.x))
            assert all(sum(a * x for a, x in zip(row, result.x)) <= beta for row, beta in zip(rows, rhs))
            for x, lo, hi in zip(result.x, lower, upper):
                assert (lo is None or lo <= x) and (hi is None or x <= hi), f"trial {trial}"
    assert seen == {"optimal", "infeasible", "unbounded"}


SMALL = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# The lifted-bound shape: a bound or rhs with a denominator up to 10^30.
HUGE_DENOMINATOR = st.builds(Fraction, st.integers(-(10**31), 10**31), st.integers(1, 10**30))
DEGENERATE = st.sampled_from([-1, 0, 1, 2]).map(Fraction)
LP_SHAPES = {
    # (coefficients, rhs, bounds)
    "small": (SMALL, SMALL, SMALL),
    "lifted": (SMALL, st.one_of(SMALL, HUGE_DENOMINATOR), HUGE_DENOMINATOR),
    # Zero rhs gives degenerate vertices, where Bland's tie-breaks decide.
    "degenerate": (DEGENERATE, st.one_of(st.just(Fraction(0)), DEGENERATE), DEGENERATE),
}


@st.composite
def lp_instances(draw, shapes=LP_SHAPES):
    """``(c, A, b, sense, lower, upper)`` with free, one-sided and boxed
    variables, negative rhs (artificials) and duplicated rows (redundant
    after phase 1)."""
    entry, rhs_entry, bound = shapes[draw(st.sampled_from(sorted(shapes)))]
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 7))
    c = draw(st.lists(entry, min_size=n, max_size=n))
    A = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(rhs_entry, min_size=m, max_size=m))
    if m and draw(st.booleans()):
        A.append(list(A[0]))
        b.append(b[0])
    lower = draw(st.lists(st.one_of(st.none(), bound), min_size=n, max_size=n))
    upper = draw(st.lists(st.one_of(st.none(), bound), min_size=n, max_size=n))
    return c, A, b, draw(st.sampled_from(["min", "max"])), lower, upper


@settings(max_examples=250, deadline=None)
@given(lp_instances())
def test_integer_simplex_matches_fraction_reference(instance):
    # Equal pivot counts, not just equal answers: the integer tableau
    # makes the Fraction tableau's pivot choices.
    result = lp_solve(*instance)
    reference = fraction_lp_solve(*instance)
    assert (result.status, result.value, result.x, result.pivots) == (
        reference.status,
        reference.value,
        reference.x,
        reference.pivots,
    )


PAST_FLOAT = 10**400  # float(PAST_FLOAT) raises OverflowError
OPTIMUM_SHAPES = dict(
    LP_SHAPES,
    past_float=(
        st.one_of(DEGENERATE, st.sampled_from([PAST_FLOAT, -PAST_FLOAT]).map(Fraction)),
        st.one_of(DEGENERATE, st.just(Fraction(PAST_FLOAT))),
        DEGENERATE,
    ),
)


def check_optimum(instance):
    """``lp_optimum`` agrees with ``lp_solve`` on ``instance``; returns the
    result and whether the certificate called the optimum unique."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = lp_optimum(*instance)
    reference = lp_solve(*instance)
    assert (result.status, result.value) == (reference.status, reference.value)
    c, A, b, sense, lower, upper = instance
    if any(abs(v) >= PAST_FLOAT for v in c + [a for row in A for a in row]):
        assert not result.certified
    if result.status != "optimal":
        assert result.x is None and not result.certified
        return result, False
    x = result.x
    assert all(type(v) is Fraction for v in x)
    assert sum(a * v for a, v in zip(c, x)) == result.value
    assert all(sum(a * v for a, v in zip(row, x)) <= beta for row, beta in zip(A, b))
    for v, lo, hi in zip(x, lower, upper):
        assert (lo is None or lo <= v) and (hi is None or v <= hi)
    form = lp._leq_form("lp_optimum", *instance)
    basis = lp_guide._guide_bases(form, [form.cost])[0]
    certificate = None if basis is None else lp._certify(form, basis)
    assert result.certified == (certificate is not None)
    unique = certificate is not None and certificate.unique
    if unique:
        assert x == reference.x
    else:
        assert result.certified or x == reference.x  # the fallback is lp_solve
    return result, unique


@settings(max_examples=300, deadline=None)
@given(lp_instances(OPTIMUM_SHAPES))
def test_lp_optimum_matches_lp_solve(instance):
    check_optimum(instance)


def test_lp_optimum_takes_every_path_on_seeded_lps():
    # The property test cannot require that its examples reach each
    # outcome; these seeded LPs do.
    rng = random.Random(29)
    seen = set()
    for _ in range(150):
        result, unique = check_optimum(_random_lp(rng))
        seen.add((result.status, result.certified, unique))
    assert {("optimal", True, True), ("infeasible", False, False), ("unbounded", False, False)} <= seen


def test_certificate_rejects_a_wrong_basis():
    # min -x - y with x + 2y <= 4, 3x + y <= 6 and x, y >= 0: the optimum
    # is the vertex (8/5, 6/5).  z_0 = x, z_1 = y; the slacks are 2 and 3.
    form = lp._leq_form("lp_optimum", [-1, -1], [[1, 2], [3, 1]], [4, 6], "min", [0, 0], None)
    assert lp._certify(form, [2, 3]) is None  # feasible, but y prices out
    assert lp._certify(form, [0, 2]) is None  # x = 2 leaves y pricing out
    assert lp._certify(form, [0, 3]) is None  # x = 4 breaks 3x + y <= 6
    assert lp._certify(form, [0, 0]) is None  # not a basis
    certificate = lp._certify(form, [1, 0])
    assert certificate == (
        [Fraction(8, 5), Fraction(6, 5)],
        Fraction(-14, 5),
        True,
    )
    assert lp_guide._guide_bases(form, [form.cost])[0] in ([0, 1], [1, 0])
    # Parallel rows make the basic columns singular.
    form = lp._leq_form("lp_optimum", [-1, -1], [[1, 1], [2, 2]], [1, 3], "min", [0, 0], None)
    assert lp._certify(form, [0, 1]) is None
    # min x over x >= 0 and -x <= 1: the tight row puts x at -1, below
    # its bound, although the dual of that basis is >= 0.
    form = lp._leq_form("lp_optimum", [1], [[-1]], [1], "min", [0], None)
    assert lp._certify(form, [0]) is None
    # min x over x >= 0 and x <= 1: x = 1 at the tight row is feasible,
    # but the row's dual is negative.
    form = lp._leq_form("lp_optimum", [1], [[1]], [1], "min", [0], None)
    assert lp._certify(form, [0]) is None
    assert lp._certify(form, [1]) == ([Fraction(0)], Fraction(0), True)


@st.composite
def region_directions(draw):
    """``(A, b, directions)``: a region and the directions one backend
    serves in turn, each drawn twice and in a new order the second time.
    Boxes with rhs of either sign give phase 1, and empty regions; rows
    alone are often unbounded."""
    entry, rhs_entry, _ = OPTIMUM_SHAPES[draw(st.sampled_from(sorted(OPTIMUM_SHAPES)))]
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 6))
    A = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(rhs_entry, min_size=m, max_size=m))
    if draw(st.booleans()):
        for i in range(n):
            for sign in (1, -1):
                A.append([Fraction(sign if j == i else 0) for j in range(n)])
                b.append(draw(st.one_of(SMALL, rhs_entry)))
    unit = st.integers(0, n - 1).flatmap(
        lambda i: st.sampled_from([-1, 1]).map(lambda s: [Fraction(s if j == i else 0) for j in range(n)])
    )
    direction = st.one_of(unit, st.lists(st.one_of(SMALL, HUGE_DENOMINATOR), min_size=n, max_size=n))
    directions = draw(st.lists(direction, min_size=1, max_size=5))
    return A, b, directions + draw(st.permutations(directions))


@settings(max_examples=150, deadline=None)
@given(region_directions())
def test_backend_solves_every_direction_as_a_fresh_lp(instance):
    # The backend builds its region's rows once and swaps only the cost.
    A, b, directions = instance
    backend = LinearRegionBackend(A, b)
    errors = {"infeasible": RegionInfeasibleError, "unbounded": RegionUnboundedError}
    fresh_results = []
    for direction in directions:
        fresh = lp_optimum(direction, A, b, "max")
        fresh_results.append(fresh)
        certified, pivots = backend.certified_solves, backend.fallback_pivots
        if fresh.status in errors:
            with pytest.raises(errors[fresh.status]):
                backend.maximize(direction)
        else:
            assert backend.maximize(direction) == (fresh.value, fresh.x)
        assert backend.certified_solves - certified == fresh.certified
        assert backend.fallback_pivots - pivots == fresh.pivots
    assert backend.lp_calls == len(fresh_results)
    assert backend.certified_solves == sum(r.certified for r in fresh_results)
    assert backend.fallback_pivots == sum(r.pivots for r in fresh_results)


@st.composite
def pinning_lps(draw):
    """``(instance, bases)``: an LP whose variables are all bounded, by
    bounds with denominators up to 10^30 and at times with lo == hi, whose
    extra rows repeat a bound (so two tight rows can pin one column), and
    bases to certify: the guide's, the guide's with one variable swapped,
    and arbitrary lists of m variables."""
    bound = st.one_of(SMALL, HUGE_DENOMINATOR)
    n = draw(st.integers(1, 5))
    lower = draw(st.lists(bound, min_size=n, max_size=n))
    upper = [lo + draw(st.one_of(st.just(Fraction(0)), bound.map(abs))) for lo in lower]
    m = draw(st.integers(0, 4))
    A = draw(st.lists(st.lists(SMALL, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(bound, min_size=m, max_size=m))
    for j, sign in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from([1, -1])), max_size=4)):
        A.append([Fraction(sign if k == j else 0) for k in range(n)])
        b.append(upper[j] if sign > 0 else -lower[j])
    c = draw(st.lists(SMALL, min_size=n, max_size=n))
    instance = (c, A, b, draw(st.sampled_from(["min", "max"])), lower, upper)
    form = lp._leq_form("lp_optimum", *instance)
    rows, width = len(form.rows), len(form.rows) + len(form.cost)
    guide = lp_guide._guide_bases(form, [form.cost])[0]
    bases = [] if guide is None else [guide]
    if guide is not None and rows < width:
        swapped = list(guide)
        r = draw(st.integers(0, rows - 1))
        swapped[r] = draw(st.sampled_from([v for v in range(width) if v not in guide]))
        bases.append(swapped)
    variable = st.integers(0, width - 1)
    bases += draw(st.lists(st.lists(variable, min_size=rows, max_size=rows), min_size=1, max_size=4))
    return form, bases


@settings(max_examples=200, deadline=None)
@given(pinning_lps())
def test_pinned_certificate_matches_the_whole_system(case):
    form, bases = case
    for basis in bases:
        assert lp._certify(form, basis) == certify_reference(form, basis)


def test_two_rows_pinning_one_column_are_singular():
    # 0 <= x <= 1/3 and 0 <= y <= 1 with the row x <= 1/3 again: when both
    # x rows are tight, each pins x, and the basis is singular.
    instance = ([-1, -1], [[1, 0]], [Fraction(1, 3)], "min", [0, 0], [Fraction(1, 3), 1])
    form = lp._leq_form("lp_optimum", *instance)
    assert form.rows == [[3, 0], [3, 0], [0, 1]]
    # z_0, z_1 and the y row's slack basic: both x rows are tight.
    assert lp._certify(form, [0, 1, 4]) is None
    assert certify_reference(form, [0, 1, 4]) is None
    # With the second x row loose, the same point certifies.
    certificate = lp._certify(form, [0, 1, 3])
    assert certificate == certify_reference(form, [0, 1, 3])
    assert certificate == ([Fraction(1, 3), Fraction(1)], Fraction(-4, 3), True)


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "call, where",
    [
        (lambda: lp_solve([1], [[1]], [INF]), "lp_solve: b[0]"),
        (lambda: lp_solve([NAN], [[1]], [1]), "lp_solve: c[0]"),
        (lambda: lp_solve([1, 2], [[1, -INF]], [1]), "lp_solve: A[0][1]"),
        (lambda: lp_solve([1], [[1]], [1], lower=[-INF]), "lp_solve: lower[0]"),
        (lambda: lp_solve([1], [[1]], [1], upper=[None], lower=[NAN]), "lp_solve: lower[0]"),
        (lambda: LinearRegionBackend([[INF]], [1]), "LinearRegionBackend: A[0][0]"),
        (lambda: LinearRegionBackend([[1]], [NAN]), "LinearRegionBackend: b[0]"),
        (
            lambda: linear_mixed_inner_solver([1], [1], [[1]], [[NAN]], [1]),
            "linear_mixed_inner_solver: A_cont[0][0]",
        ),
        (
            lambda: linear_mixed_inner_solver([INF], [1], [[1]], [[1]], [1]),
            "linear_mixed_inner_solver: c_int[0]",
        ),
    ],
)
def test_lp_entry_points_reject_non_finite_input(call, where):
    with pytest.raises(ValueError, match="^" + re.escape(where) + " = "):
        call()


PAST_FLOAT_COST = st.sampled_from([PAST_FLOAT, -PAST_FLOAT]).map(Fraction)


@st.composite
def priced_regions(draw):
    """``(rows, forms, cells)``: one region's ≤-form, forms that price it
    under up to six costs, and a cell budget for the guide's stack.  Rows
    with negative rhs give phase 1, and at times an empty region; free
    variables give unbounded costs; a cost past the float range overflows."""
    entry, rhs_entry, bound = OPTIMUM_SHAPES[draw(st.sampled_from(sorted(OPTIMUM_SHAPES)))]
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 7))
    A = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    b = draw(st.lists(rhs_entry, min_size=m, max_size=m))
    lower = draw(st.lists(st.one_of(st.none(), bound), min_size=n, max_size=n))
    upper = [None if lo is None else lo + abs(draw(bound)) for lo in lower]
    rows = lp._leq_rows("lp_optimum", A, b, n, lower, upper)
    costs = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=6))
    if costs and draw(st.booleans()):
        costs[draw(st.integers(0, len(costs) - 1))][draw(st.integers(0, n - 1))] = draw(PAST_FLOAT_COST)
    forms = [rows.priced(c, draw(st.booleans())) for c in costs]
    return rows, forms, draw(st.sampled_from([1, 40, 200, lp_guide.GUIDE_CELLS]))


@settings(max_examples=300, deadline=None)
@given(priced_regions())
def test_stacked_guide_matches_one_guide_per_cost(case):
    rows, forms, cells = case
    with mock.patch.object(lp_guide, "GUIDE_CELLS", cells):
        bases = lp_guide._guide_bases(rows, [form.cost for form in forms])
    assert bases == [guide_basis_reference(form) for form in forms]


def test_stacked_guide_keeps_each_failure_to_its_lp():
    # -3 <= x, y <= -1 leaves the origin out (phase 1), and x + y <= -5
    # cuts the box to a triangle.
    rows = lp._leq_rows("t", [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]], [-1, 3, -1, 3, -5], 2, None, None)
    costs = [[1, 0], [PAST_FLOAT, 0], [0, -1], [0, 0]]
    forms = [rows.priced([Fraction(v) for v in c], True) for c in costs]
    bases = lp_guide._guide_bases(rows, [form.cost for form in forms])
    assert bases == [guide_basis_reference(form) for form in forms]
    assert [basis is None for basis in bases] == [False, True, False, False]
    # x >= 0 alone: max x is unbounded, max -x is not.
    rows = lp._leq_rows("t", [[-1]], [0], 1, None, None)
    forms = [rows.priced([Fraction(s)], True) for s in (1, -1, 1)]
    bases = lp_guide._guide_bases(rows, [form.cost for form in forms])
    assert bases == [guide_basis_reference(form) for form in forms]
    assert [basis is None for basis in bases] == [True, False, True]
    # x <= -1 and -x <= -1 leave nothing: phase 1 fails for every cost.
    rows = lp._leq_rows("t", [[1], [-1]], [-1, -1], 1, None, None)
    forms = [rows.priced([Fraction(s)], True) for s in (1, -1)]
    assert lp_guide._guide_bases(rows, [form.cost for form in forms]) == [None, None]
    assert [guide_basis_reference(form) for form in forms] == [None, None]


@st.composite
def float_tableaux(draw):
    """``(tableaux, bases, limit, budget)``: phase-2 float tableaux over one
    shape, with the slacks basic, nonnegative rhs and a small pivot budget."""
    m = draw(st.integers(0, 5))
    nz = draw(st.integers(1, 4))
    entry = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.0, 0.25, 1.0, 3.0])
    tableaux = []
    for _ in range(draw(st.integers(1, 5))):
        T = np.zeros((m + 1, nz + m + 1))
        cells = draw(st.lists(entry, min_size=(m + 1) * nz, max_size=(m + 1) * nz))
        T[:, :nz] = np.array(cells).reshape(m + 1, nz)
        T[np.arange(m), nz + np.arange(m)] = 1.0
        T[:m, -1] = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=m, max_size=m))
        tableaux.append(T)
    bases = [list(range(nz, nz + m)) for _ in tableaux]
    return tableaux, bases, nz + m, draw(st.integers(0, 6))


@settings(max_examples=200, deadline=None)
@given(float_tableaux())
def test_stacked_pivots_match_one_tableau_at_a_time(case):
    # A small budget stops some tableaux at the pivot cap, columns with no
    # positive entry stop others unbounded; neither touches the rest.
    tableaux, bases, limit, budget = case
    stack = np.array(tableaux)
    stacked_bases = [list(basis) for basis in bases]
    with np.errstate(all="ignore"):
        left = lp_guide._float_pivots(stack, stacked_bases, limit, budget)
        expected = [reference_float_pivots(T, basis, limit, budget) for T, basis in zip(tableaux, bases)]
    assert left == expected
    assert stacked_bases == bases


@st.composite
def square_systems(draw):
    """``(M, rhs)``: k x k integer systems with entries past 2^120, made
    singular at times by a row that combines two others."""
    k = draw(st.integers(0, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-(2**130), 2**130))
    M = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
    if k >= 3 and draw(st.booleans()):
        i, j, r = draw(st.permutations(range(k)))[:3]
        a, b = draw(entry), draw(entry)
        M[r] = [a * x + b * y for x, y in zip(M[i], M[j])]
    return M, draw(st.lists(entry, min_size=k, max_size=k))


@settings(max_examples=300, deadline=None)
@given(square_systems())
def test_forward_elimination_matches_gauss_jordan(case):
    M, rhs = case
    solved = lp._solve_square(M, rhs)
    assert solved == solve_square_reference(M, rhs)
    if solved is not None:
        nums, d = solved
        assert d > 0
        assert all(sum(a * v for a, v in zip(row, nums)) == beta * d for row, beta in zip(M, rhs))


def test_guide_stack_stays_within_its_cell_budget():
    # 24 coordinate LPs over 48 rows stack 24 tableaux of 49 x 73 cells
    # (0.7 MB); a budget of four tableaux cuts them into six chunks.
    problem = load_problem(str(DATA / "bound_12x48.json"))
    rows = lp._leq_rows("t", problem.A, problem.b, problem.n, None, None)
    costs = []
    for i in range(problem.n):
        for sign in (1, -1):
            costs.append(rows.priced([Fraction(sign if j == i else 0) for j in range(problem.n)], True).cost)
    cells = 4 * 49 * 73
    expected = lp_guide._guide_bases(rows, costs)
    assert None not in expected
    with mock.patch.object(lp_guide, "GUIDE_CELLS", cells):
        tracemalloc.start()
        try:
            assert lp_guide._guide_bases(rows, costs) == expected
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # The stack within the budget, plus a few tableau-sized arrays of the
    # shared set-up and the pivots; the 24 tableaux in one stack would
    # take 0.7 MB.
    assert peak < 8 * (cells + 8 * 49 * 73)


@settings(max_examples=150, deadline=None)
@given(region_directions())
def test_maximize_all_is_maximize_one_direction_at_a_time(instance):
    A, b, directions = instance

    def run(solve):
        backend = LinearRegionBackend(A, b)
        try:
            answer = solve(backend)
        except (RegionInfeasibleError, RegionUnboundedError) as exc:
            answer = (type(exc), str(exc))
        return answer, (backend.lp_calls, backend.certified_solves, backend.fallback_pivots)

    def one_at_a_time(backend):
        return [backend.maximize(direction) for direction in directions]

    assert run(lambda backend: backend.maximize_all(directions)) == run(one_at_a_time)


@pytest.mark.parametrize(
    "A, b, error, calls",
    [
        ([[1], [-1]], [-1, -1], RegionInfeasibleError, 1),  # x <= -1 and x >= 1
        ([[-1]], [0], RegionUnboundedError, 2),  # x >= 0: max -x is 0, max x unbounded
    ],
)
def test_maximize_all_raises_where_maximize_does(A, b, error, calls):
    directions = [[-1], [1], [-1]]
    one_at_a_time = LinearRegionBackend(A, b)
    with pytest.raises(error):
        for direction in directions:
            one_at_a_time.maximize(direction)
    together = LinearRegionBackend(A, b)
    with pytest.raises(error):
        together.maximize_all(directions)
    assert together.lp_calls == one_at_a_time.lp_calls == calls

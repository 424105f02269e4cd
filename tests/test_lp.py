import random
import re
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1opt.complexity import LinearRegionBackend
from l1opt.errors import ShapeMismatchError
from l1opt import lp
from l1opt.lp import lp_optimum, lp_solve
from l1opt.ptas import linear_mixed_inner_solver
from oracles import fraction_lp_solve, vertex_lp_brute


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
    basis = lp._guide_basis(form)
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
    assert lp._guide_basis(form) in ([0, 1], [1, 0])
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

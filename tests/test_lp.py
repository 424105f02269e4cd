import random
from fractions import Fraction

import pytest

from l1opt.errors import ShapeMismatchError
from l1opt.lp import lp_solve
from oracles import vertex_lp_brute


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

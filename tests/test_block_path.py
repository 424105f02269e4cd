"""The block path against the scalar per-point path.

Problems built by ``ProblemInstance.linear`` and
``ProblemInstance.quadratic`` (and approximation problems over their
oracles) run on the block path of ``l1opt.blocks``; wrapping the oracles
in lambdas forces the scalar ``_scan_points`` path on the same data.
Both must return ``repr``-equal solutions, counts included.  Small
``BLOCK_CELLS`` values split a walk into many blocks, with a point count
that is rarely a multiple of the block size.
"""

import contextlib
import dataclasses
import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from l1opt import lattice, solver
from l1opt.blocks import block_evaluator
from l1opt.lattice import iter_l1_points, point_blocks
from l1opt.ptas import LipschitzProblem, solve_lipschitz_ptas, solve_weighted_lipschitz_ptas
from l1opt.solver import (
    FLOAT,
    RATIONAL,
    ProblemInstance,
    QuadraticConstraint,
    SolveOptions,
    WeightedL1Spec,
    solve_l1_ip,
    solve_weighted_l1_ip,
)
from oracles import reference_l1_points

COEFFICIENTS = {
    RATIONAL: st.one_of(
        st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=6)
    ),
    # Values whose sums round differently in another order.
    FLOAT: st.one_of(
        st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 1 / 3, 1e16, -1e16]), st.floats(-5, 5)
    ),
}
# Values past the int64 guard (rational) or whose sums overflow (float).
HUGE = {
    RATIONAL: st.sampled_from([10**18, -(10**18), Fraction(10**19, 3), 2**62]),
    FLOAT: st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308]),
}
THRESHOLDS = st.one_of(
    st.none(),
    st.fractions(min_value=-6, max_value=6, max_denominator=6),
    st.integers(-6, 6),
    st.floats(-6, 6, allow_nan=False),
    st.sampled_from([math.inf, -math.inf, math.nan, Fraction(1, 3), 0.1]),
)
CELLS = st.sampled_from([3, 7, 40, lattice.BLOCK_CELLS])


@contextlib.contextmanager
def block_cells(cells):
    saved = lattice.BLOCK_CELLS
    lattice.BLOCK_CELLS = cells
    try:
        yield
    finally:
        lattice.BLOCK_CELLS = saved


@st.composite
def problems(draw, modes=(RATIONAL, FLOAT), huge=None):
    """A random ILP, IQP or IQCQP in one arithmetic mode, sometimes with
    huge coefficients, and always mixed with ``huge`` ones when given."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 3))
    mode = draw(st.sampled_from(modes))
    kind = draw(st.sampled_from(["ilp", "iqp", "iqcqp"]))
    value = COEFFICIENTS[mode]
    if huge is not None:
        value = st.one_of(value, huge)
    elif draw(st.integers(0, 5)) == 0:
        value = st.one_of(value, HUGE[mode])

    def vector(size):
        return draw(st.lists(value, min_size=size, max_size=size))

    def matrix():
        return [vector(n) for _ in range(n)]

    if kind == "ilp":
        return ProblemInstance.linear(vector(n), [vector(n) for _ in range(m)], vector(m), mode)
    rows = []
    for _ in range(m):
        A = matrix() if kind == "iqcqp" and draw(st.booleans()) else None
        rows.append(QuadraticConstraint(A=A, b=vector(n), c=draw(value)))
    return ProblemInstance.quadratic(matrix(), vector(n), rows, mode)


def wrapped(problem):
    """The same problem with its oracles wrapped, so the scalar path runs."""
    objective, constraints = problem.objective, problem.constraints
    return dataclasses.replace(
        problem, objective=lambda x: objective(x), constraints=lambda x: constraints(x)
    )


def lipschitz(problem, kappa=2.0, radius=1.0):
    return LipschitzProblem(
        n=problem.n,
        objective=problem.objective,
        constraints=problem.constraints,
        lipschitz=kappa,
        radius=radius,
    )


@settings(max_examples=200, deadline=None)
@given(
    problem=problems(),
    radius=st.integers(0, 3),
    stop_below=THRESHOLDS,
    tolerance=st.sampled_from([None, 0.0, 0.5]),
    cells=CELLS,
)
def test_block_path_matches_scalar_path(problem, radius, stop_below, tolerance, cells):
    options = SolveOptions(tolerance=tolerance, stop_below=stop_below)
    assert block_evaluator(wrapped(problem), radius, 0, None, None) is None
    with block_cells(cells):
        fast = solve_l1_ip(problem, radius, options)
    assert repr(fast) == repr(solve_l1_ip(wrapped(problem), radius, options))


@settings(max_examples=150, deadline=None)
@given(
    problem=problems(),
    data=st.data(),
    radius=st.fractions(min_value=0, max_value=3, max_denominator=4),
    stop_below=THRESHOLDS,
    cells=CELLS,
)
def test_weighted_block_path_matches_scalar_path(problem, data, radius, stop_below, cells):
    conv = Fraction if problem.arithmetic == RATIONAL else float
    weights = data.draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=4),
            min_size=problem.n,
            max_size=problem.n,
        )
    )
    spec = WeightedL1Spec(tuple(map(conv, weights)), conv(radius))
    options = SolveOptions(stop_below=stop_below)
    with block_cells(cells):
        fast = solve_weighted_l1_ip(problem, spec, options)
    assert repr(fast) == repr(solve_weighted_l1_ip(wrapped(problem), spec, options))


@settings(max_examples=100, deadline=None)
@given(
    problem=problems(modes=(FLOAT,)),
    epsilon=st.sampled_from([0.5, 0.75, 1.0]),
    data=st.data(),
    cells=CELLS,
)
def test_ptas_block_path_matches_scalar_path(problem, epsilon, data, cells):
    weights = data.draw(
        st.lists(st.sampled_from([1.0, 1.5, 2.5]), min_size=problem.n, max_size=problem.n)
    )
    fast, slow = lipschitz(problem), lipschitz(wrapped(problem))
    assert block_evaluator(fast, 2, epsilon, None, 0.5) is not None
    with block_cells(cells):
        plain = solve_lipschitz_ptas(fast, epsilon)
        weighted = solve_weighted_lipschitz_ptas(fast, weights, epsilon)
    assert repr(plain) == repr(solve_lipschitz_ptas(slow, epsilon))
    assert repr(weighted) == repr(solve_weighted_lipschitz_ptas(slow, weights, epsilon))


# Rational values whose scaled forms leave int64 at small radii: huge
# numerators, and denominators whose lcm scales every other entry.
PAST_INT64 = st.sampled_from(
    [10**30, -(10**30), 2**62, Fraction(1, 10**20), Fraction(-7, 3 * 10**19), Fraction(10**19, 3)]
)
# Weights near 1 over denominators of 10**19: the scaled costs leave
# int64 while the ball's radius stays small.
WIDE_WEIGHTS = st.sampled_from(
    [Fraction(10**19 + 1, 10**19), Fraction(3 * 10**19 - 7, 2 * 10**19), Fraction(1, 2), 1]
)


def fits_int64(problem, radius):
    forms = (problem.objective.block_forms, problem.constraints.block_forms)
    return all(f.fits_int64(radius) for f in forms)


@settings(max_examples=150, deadline=None)
@given(
    problem=problems(modes=(RATIONAL,), huge=PAST_INT64),
    radius=st.integers(1, 3),
    stop_below=THRESHOLDS,
    cells=CELLS,
)
def test_rational_blocks_past_int64_match_scalar_path(problem, radius, stop_below, cells):
    assume(not fits_int64(problem, radius))
    assert block_evaluator(problem, radius, 0, stop_below, None) is not None
    options = SolveOptions(stop_below=stop_below)
    with block_cells(cells):
        fast = solve_l1_ip(problem, radius, options)
    assert repr(fast) == repr(solve_l1_ip(wrapped(problem), radius, options))


@settings(max_examples=100, deadline=None)
@given(
    problem=problems(modes=(RATIONAL,), huge=PAST_INT64),
    data=st.data(),
    radius=st.fractions(min_value=0, max_value=2, max_denominator=3),
    stop_below=THRESHOLDS,
    cells=CELLS,
)
def test_rational_weighted_blocks_past_int64_match_scalar_path(
    problem, data, radius, stop_below, cells
):
    weights = data.draw(st.lists(WIDE_WEIGHTS, min_size=problem.n, max_size=problem.n))
    spec = WeightedL1Spec(tuple(weights), radius)
    options = SolveOptions(stop_below=stop_below)
    with block_cells(cells):
        fast = solve_weighted_l1_ip(problem, spec, options)
    assert repr(fast) == repr(solve_weighted_l1_ip(wrapped(problem), spec, options))


def test_weighted_costs_past_int64_take_the_block_path(monkeypatch):
    # Over the unit 2 * 10**19 the costs are 2 * 10**19 + 2, 3 * 10**19 - 7
    # and 2 * 10**19, past int64 at radius 2.  x = (1, 0, 1) would reach
    # -3, but its weighted norm is 2 + 10**-19, just over the budget.
    problem = ProblemInstance.linear((-2, 0, -1), ((1, 1, 0),), (1,))
    weights = (Fraction(10**19 + 1, 10**19), Fraction(3 * 10**19 - 7, 2 * 10**19), 1)
    spec = WeightedL1Spec(weights, 2)
    found = []

    def spy(*args, **kwargs):
        result = block_scan(*args, **kwargs)
        found.append(result is not None)
        return result

    block_scan = solver.block_scan
    monkeypatch.setattr(solver, "block_scan", spy)
    solution = solve_weighted_l1_ip(problem, spec)
    monkeypatch.undo()
    assert found == [True]
    assert repr(solution) == repr(solve_weighted_l1_ip(wrapped(problem), spec))
    assert solution.objective == -2


# Constants at and just past the relaxed tolerances 0.5 and 0.75, where
# a float image would round onto the tolerance.
NEAR_TOLERANCE = st.sampled_from(
    [Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**30), Fraction(-1, 2) - Fraction(1, 10**30),
     Fraction(3, 4) + Fraction(1, 10**30), Fraction(1, 10**30)]
)


@st.composite
def grid_problems(draw):
    """A rational ILP, IQP or IQCQP whose vectors and matrices are often
    all zero, so rows with no coefficient, and rows with a matrix (all
    zero included) but no linear coefficient, come up; constants sit
    near the relaxed tolerance."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["ilp", "iqp", "iqcqp"]))
    value = COEFFICIENTS[RATIONAL]

    def vector(size):
        if draw(st.integers(0, 2)) == 0:
            return [Fraction(0)] * size
        return draw(st.lists(value, min_size=size, max_size=size))

    def matrix():
        return [vector(n) for _ in range(n)] if draw(st.booleans()) else [[0] * n] * n

    def constant():
        return draw(st.one_of(value, NEAR_TOLERANCE))

    if kind == "ilp":
        return ProblemInstance.linear(
            vector(n), [vector(n) for _ in range(m)], [constant() for _ in range(m)]
        )
    rows = []
    for _ in range(m):
        A = matrix() if kind == "iqcqp" and draw(st.booleans()) else None
        rows.append(QuadraticConstraint(A=A, b=vector(n), c=constant()))
    return ProblemInstance.quadratic(matrix(), vector(n), rows)


@settings(max_examples=200, deadline=None)
@given(
    problem=grid_problems(),
    epsilon=st.sampled_from([0.5, 0.75, 1.0]),
    data=st.data(),
    cells=CELLS,
)
def test_rational_ptas_block_path_matches_scalar_path(problem, epsilon, data, cells):
    weights = data.draw(
        st.lists(st.sampled_from([1.0, 1.5, 2.5, math.inf]), min_size=problem.n, max_size=problem.n)
    )
    fast, slow = lipschitz(problem), lipschitz(wrapped(problem))
    # A row with a matrix but no linear coefficient keeps the scalar
    # path, unless every entry is zero: no rational value, no rounding.
    objective, rows = problem.objective.block_forms, problem.constraints.block_forms
    matrix_rows = any(M is not None and not any(a) for M, a, _ in rows.forms)
    scalar = matrix_rows and bool(objective.types | rows.types)
    assert (block_evaluator(fast, 2, epsilon, None, 0.5) is None) == scalar
    with block_cells(cells):
        plain = solve_lipschitz_ptas(fast, epsilon)
        weighted = solve_weighted_lipschitz_ptas(fast, weights, epsilon)
    assert repr(plain) == repr(solve_lipschitz_ptas(slow, epsilon))
    assert repr(weighted) == repr(solve_weighted_lipschitz_ptas(slow, weights, epsilon))


def test_row_without_coefficients_is_decided_exactly_at_grid_points():
    # The row 0.x <= -(1/2 + 10**-30) is 1/2 + 10**-30 at every point,
    # just past epsilon = 0.5 although its float image is 0.5 itself.
    past = Fraction(1, 2) + Fraction(1, 10**30)
    for b, status in ((-past, "no_feasible_grid_point"), (Fraction(-1, 2), "optimal")):
        problem = ProblemInstance.linear((1, -1), ((0, 0),), (b,))
        assert block_evaluator(lipschitz(problem), 2, 0.5, None, 0.25) is not None
        fast = solve_lipschitz_ptas(lipschitz(problem), 0.5)
        assert fast.status == status and fast.oracle_calls == fast.points_enumerated == 41
        assert repr(fast) == repr(solve_lipschitz_ptas(lipschitz(wrapped(problem)), 0.5))


def test_rational_ptas_takes_the_block_path():
    problem = ProblemInstance.linear((1, -1), ((1, 1),), (1,))
    assert block_evaluator(lipschitz(problem), 2, 0.5, None, 0.5) is not None
    fast = solve_lipschitz_ptas(lipschitz(problem), 0.5)
    assert repr(fast) == repr(solve_lipschitz_ptas(lipschitz(wrapped(problem)), 0.5))


def both_modes(c, A, b):
    return [ProblemInstance.linear(c, A, b, mode) for mode in (RATIONAL, FLOAT)]


def test_tie_across_blocks_keeps_the_lower_ordinal():
    # -x_0 - x_2 is -1 at (0, 0, 1), ordinal 1, and at (1, 0, 0), ordinal
    # 5; two points per block put them in blocks 0 and 2.
    for problem in both_modes((-1, 0, -1), (), ()):
        with block_cells(2):
            solution = solve_l1_ip(problem, 1)
        assert solution.x == (0, 0, 1)
        assert repr(solution) == repr(solve_l1_ip(wrapped(problem), 1))


def test_stop_below_in_a_later_block_keeps_the_scalar_counts():
    # The first point with x_0 <= -1 is (-1, 0, 0), ordinal 14 of the
    # radius-2 walk; blocks of four points put it third in block 3.
    for problem in both_modes((1, 0, 0), (), ()):
        options = SolveOptions(stop_below=-1)
        with block_cells(8):
            solution = solve_l1_ip(problem, 2, options)
        reference = solve_l1_ip(wrapped(problem), 2, options)
        assert repr(solution) == repr(reference)
        assert solution.x == (-1, 0, 0)
        assert solution.points_enumerated == solution.oracle_calls == 15


def test_weighted_budget_rejecting_whole_blocks():
    # Weights (1, 2) at radius 2 walk the radius-2 ball over both
    # coordinates.  In blocks of two points, (0, 2) and (0, -2) form one
    # block and the four points (+-1, +-1) two more, all over budget.
    for mode, conv in ((RATIONAL, Fraction), (FLOAT, float)):
        problem = ProblemInstance.linear((1, -1), (), (), mode)
        spec = WeightedL1Spec((conv(1), conv(2)), conv(2))
        with block_cells(4):
            solution = solve_weighted_l1_ip(problem, spec)
        reference = solve_weighted_l1_ip(wrapped(problem), spec)
        assert repr(solution) == repr(reference)
        assert solution.points_enumerated == 13
        assert solution.oracle_calls == 7
        assert solution.x == (-2, 0)


def test_weighted_budget_admits_a_norm_equal_to_the_budget():
    # The float budget is 1.999999999 + 1e-9 == 2.0, which x = (0, 2)
    # meets exactly: the scalar path admits it, and so must the blocks.
    problem = ProblemInstance.linear((0.0, -1.0), (), (), FLOAT)
    spec = WeightedL1Spec((0.5, 1.0), 1.999999999)
    solution = solve_weighted_l1_ip(problem, spec)
    assert repr(solution) == repr(solve_weighted_l1_ip(wrapped(problem), spec))
    assert solution.x == (0, 2)


@settings(max_examples=100, deadline=None)
@given(problem=problems(), radius=st.integers(0, 3), grid=st.booleans())
def test_block_values_equal_the_oracle_values(problem, radius, grid):
    assert_block_values(problem, radius, grid)


def test_float_block_sums_keep_the_oracle_order():
    # (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3): any other summation order
    # changes some value.
    row = (0.1, 0.2, 0.3)
    problem = ProblemInstance.quadratic(
        (row, row[::-1], row), row, (QuadraticConstraint((row,) * 3, row, 0.1),), FLOAT
    )
    for grid in (False, True):
        assert_block_values(problem, 3, grid)


def assert_block_values(problem, radius, grid):
    """Float forms must give the oracles' floats bit for bit (up to the
    sign of zero), rational forms their exact values times the scale."""
    forms = [problem.objective.block_forms, problem.constraints.block_forms]
    floats = (forms[0].types | forms[1].types) <= {float}
    # Past the int64 bound the blocks are summed over Python ints.
    exact = not floats and not all(f.fits_int64(radius) for f in forms)
    step = 0.3 if grid and floats else None
    for pos, val in point_blocks(problem.n, radius):
        if floats:
            x = val.astype(float) if step is None else step * val
            with np.errstate(over="ignore", invalid="ignore"):
                blocks = [f.float_values(pos, x) for f in forms]
        else:
            blocks = [f.int_values(pos, val.astype(object) if exact else val) for f in forms]
        for r, (row_pos, row_val) in enumerate(zip(pos.tolist(), val.tolist())):
            point = [0] * problem.n if step is None else [0.0] * problem.n
            for i, v in zip(row_pos, row_val):
                if v:
                    point[i] = v if step is None else step * v
            expected = [problem.objective(point), *problem.constraints(point)]
            got = [*blocks[0][:, r], *blocks[1][:, r]]
            if floats:
                assert all(a == b or (a != a and b != b) for a, b in zip(got, expected))
            else:
                scales = forms[0].ints.scales + forms[1].ints.scales
                assert [Fraction(int(v), s) for v, s in zip(got, scales)] == expected


def test_block_walk_matches_the_point_walk():
    for cells in (1, 2, 3, 7, 64):
        with block_cells(cells):
            for n, rho in ((1, 4), (3, 2), (4, 3), (5, 0), (2, 5)):
                points = []
                sizes = []
                for pos, val in point_blocks(n, rho):
                    sizes.append(len(pos))
                    assert pos.shape == val.shape == (len(pos), min(n, rho))
                    for row_pos, row_val in zip(pos.tolist(), val.tolist()):
                        x = [0] * n
                        for i, v in zip(row_pos, row_val):
                            assert (v != 0) == (i < n)
                            if v:
                                x[i] = v
                        points.append(tuple(x))
                assert points == [p.x for p in reference_l1_points(n, rho)]
                cap = max(1, cells // max(min(n, rho), 1))
                assert all(size == cap for size in sizes[:-1]) and sizes[-1] <= cap


def test_rational_data_past_int64_takes_the_block_path():
    # |c.x| reaches 3 * big at radius 3 and the row bound 3 * big + |b|
    # leaves int64 (9.2e18), so the blocks sum Python ints there.
    big = 3 * 10**18
    problem = ProblemInstance.linear((big, -big + 1), ((big, -big),), (big + 7,))
    assert block_evaluator(problem, 1, 0, None, None) is not None
    assert block_evaluator(problem, 3, 0, None, None) is not None
    for radius in (1, 3):
        solution = solve_l1_ip(problem, radius)
        assert repr(solution) == repr(solve_l1_ip(wrapped(problem), radius))
    assert solve_l1_ip(problem, 3).objective == -3 * big
    quadratic = ProblemInstance.quadratic(((big, 0), (0, 1)), (1, 1), ())
    assert block_evaluator(quadratic, 1, 0, None, None) is not None
    assert block_evaluator(quadratic, 2, 0, None, None) is not None
    for radius in (1, 2):
        assert repr(solve_l1_ip(quadratic, radius)) == repr(solve_l1_ip(wrapped(quadratic), radius))


def test_float_overflow_gives_the_scalar_inf_and_nan():
    # Products past 1.8e308 are inf, and inf + -inf is NaN: a NaN
    # residual is infeasible and a NaN objective never eligible.
    huge = 1.7e308
    row = (huge, huge, -huge)
    problem = ProblemInstance.linear(row, (row, (1.0, 1.0, 1.0)), (0.0, 4.0), FLOAT)
    walk = list(iter_l1_points(3, 4))
    values = {repr(problem.objective(p.x)) for p in walk}
    residuals = {repr(problem.constraints(p.x)[0]) for p in walk}
    assert {"nan", "inf", "-inf"} <= values and {"nan", "inf", "-inf"} <= residuals
    assert block_evaluator(problem, 4, 1e-9, None, None) is not None
    for radius in range(5):
        solution = solve_l1_ip(problem, radius)
        assert repr(solution) == repr(solve_l1_ip(wrapped(problem), radius))
    quadratic = ProblemInstance.quadratic(
        ((huge, -huge), (huge, 0.0)),
        (0.0, 1.0),
        (QuadraticConstraint(((huge, 0.0), (0.0, -huge)), (0.0, 0.0), 0.0),),
        FLOAT,
    )
    for radius in range(4):
        assert repr(solve_l1_ip(quadratic, radius)) == repr(solve_l1_ip(wrapped(quadratic), radius))

"""The block evaluator against the per-point evaluator and the reference scan.

Every walk runs through ``l1opt.blocks.block_scan``.  Problems built by
``ProblemInstance.linear`` and ``ProblemInstance.quadratic`` (and
approximation problems over their oracles) take its block evaluator;
wrapping the oracles in lambdas makes it call them once per point
through the per-point evaluator, on the same data.  Both must return
``repr``-equal solutions, counts included, and so must
``reference_scan`` of ``tests/oracles.py``, the per-point scan over
``iter_l1_points`` that the package ran before.  Small ``BLOCK_CELLS``
values split a walk into many blocks, with a point count that is rarely
a multiple of the block size.
"""

import contextlib
import dataclasses
import math
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from l1opt import lattice
from l1opt.blocks import Forms, _form_values, block_evaluator, block_scan
from l1opt.lattice import iter_l1_points, point_blocks
from l1opt.ptas import (
    LipschitzProblem,
    MixedProblem,
    linear_mixed_inner_solver,
    solve_lipschitz_ptas,
    solve_mixed_integer,
    solve_weighted_lipschitz_ptas,
)
from l1opt.solver import (
    FLOAT,
    RATIONAL,
    ProblemInstance,
    QuadraticConstraint,
    SolveOptions,
    WeightedL1Spec,
    scan_ball,
    solve_l1_ip,
    solve_weighted_l1_ip,
)
from oracles import (
    form_values_reference,
    make_linear_oracle,
    make_quadratic_oracle,
    reference_l1_points,
    reference_scan,
)

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
# KEPT_CELLS of 0 keeps no ball, so every budgeted walk is pruned; at
# its own value a small ball is walked whole, or served kept.
KEPT = st.sampled_from([0, lattice.KEPT_CELLS])


@contextlib.contextmanager
def block_cells(cells, kept=None):
    saved = lattice.BLOCK_CELLS, lattice.KEPT_CELLS
    lattice.BLOCK_CELLS = cells
    lattice.KEPT_CELLS = saved[1] if kept is None else kept
    try:
        yield
    finally:
        lattice.BLOCK_CELLS, lattice.KEPT_CELLS = saved


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


def problem_evaluator(problem, rho, tolerance, stop, step):
    """The block evaluator of a problem's oracles, or None."""
    forms = tuple(getattr(f, "block_forms", None) for f in (problem.objective, problem.constraints))
    return block_evaluator(problem.n, forms, rho, tolerance, stop, step)


def wrapped(problem):
    """The same problem with its oracles wrapped, so the per-point
    evaluator runs."""
    objective, constraints = problem.objective, problem.constraints
    return dataclasses.replace(
        problem, objective=lambda x: objective(x), constraints=lambda x: constraints(x)
    )


def counting(problem):
    """The problem with wrapped oracles, so the per-point evaluator runs,
    and the list of the points its objective is called at."""
    seen = []
    objective, constraints = problem.objective, problem.constraints

    def counted(x):
        seen.append(x)
        return objective(x)

    counted_problem = dataclasses.replace(
        problem, objective=counted, constraints=lambda x: constraints(x)
    )
    return counted_problem, seen


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
    assert problem_evaluator(wrapped(problem), radius, 0, None, None) is None
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
    kept=KEPT,
)
def test_weighted_block_path_matches_scalar_path(problem, data, radius, stop_below, cells, kept):
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
    with block_cells(cells, kept):
        fast = solve_weighted_l1_ip(problem, spec, options)
    assert repr(fast) == repr(solve_weighted_l1_ip(wrapped(problem), spec, options))


@settings(max_examples=100, deadline=None)
@given(
    problem=problems(modes=(FLOAT,)),
    epsilon=st.sampled_from([0.5, 0.75, 1.0]),
    data=st.data(),
    cells=CELLS,
    kept=KEPT,
)
def test_ptas_block_path_matches_scalar_path(problem, epsilon, data, cells, kept):
    weights = data.draw(
        st.lists(st.sampled_from([1.0, 1.5, 2.5]), min_size=problem.n, max_size=problem.n)
    )
    fast, slow = lipschitz(problem), lipschitz(wrapped(problem))
    assert problem_evaluator(fast, 2, epsilon, None, 0.5) is not None
    with block_cells(cells, kept):
        plain = solve_lipschitz_ptas(fast, epsilon)
        weighted = solve_weighted_lipschitz_ptas(fast, weights, epsilon)
    assert repr(plain) == repr(solve_lipschitz_ptas(slow, epsilon))
    assert repr(weighted) == repr(solve_weighted_lipschitz_ptas(slow, weights, epsilon))


# Int and Fraction costs and budgets of exact weighted scans, with costs
# past int64 once scaled among them.
EXACT_COSTS = [1, 2, 3, 10**19 + 1, Fraction(1, 2), Fraction(10**19 + 1, 7)]
EXACT_BUDGETS = st.one_of(
    st.sampled_from([0, 2, 5, 3 * 10**19, Fraction(3 * 10**19 + 3, 7)]),
    st.fractions(min_value=0, max_value=6, max_denominator=4),
)


@settings(max_examples=200, deadline=None)
@given(
    problem=problems(),
    data=st.data(),
    rho=st.integers(0, 3),
    stop=THRESHOLDS,
    nan=st.booleans(),
    cells=st.sampled_from([1, 2, 3, 7, 40]),
    dense=st.sampled_from([1, 5]),
    kept_cells=KEPT,
)
def test_both_evaluators_match_the_reference_scan_and_count_real_calls(
    problem, data, rho, stop, nan, cells, dense, kept_cells
):
    # Float and Fraction grid steps, weighted budgets over kept
    # coordinates (int and Fraction costs and budgets, with costs past
    # int64 once scaled among them), thresholds that stop the scan
    # anywhere in a block, and, for the wrapped oracles, NaN objective
    # values wherever x_0 is nonzero.  Small DENSE_CELLS values convert
    # each block to points in several slices.
    step = data.draw(st.sampled_from([None, 0.5, 0.3, Fraction(1, 2)]))
    exact = problem.arithmetic == RATIONAL and step is None
    tolerance = 0 if exact else data.draw(st.sampled_from([1e-9, 0.5]))
    kept = costs = budget = None
    if data.draw(st.booleans()):
        kept = sorted(data.draw(st.sets(st.integers(0, problem.n - 1))))
        if exact:
            cost, budgets = EXACT_COSTS, EXACT_BUDGETS
        else:
            cost, budgets = [0.5, 1.0, 2.5], st.sampled_from([0.0, 1.0, 2.5])
        costs = data.draw(st.lists(st.sampled_from(cost), min_size=len(kept), max_size=len(kept)))
        budget = data.draw(budgets)
    if nan:
        objective = problem.objective
        problem = dataclasses.replace(
            problem, objective=lambda x: math.nan if x[0] else objective(x)
        )
    args = (rho, tolerance, stop, step, kept, costs, budget)
    reference = repr(reference_scan(problem, *args))
    counted, seen = counting(problem)
    with block_cells(cells, kept_cells), mock.patch.object(lattice, "DENSE_CELLS", dense):
        per_point = scan_ball(counted, *args)
        fast = scan_ball(problem, *args)
    assert repr(per_point) == repr(fast) == reference
    assert len(seen) == per_point[1]
    if kept is not None:
        # A point over the budget never reaches the oracle.
        for x in seen:
            assert not sum(c * abs(x[k]) for c, k in zip(costs, kept)) > budget


@settings(max_examples=100, deadline=None)
@given(
    problem=problems(modes=(RATIONAL,)),
    data=st.data(),
    rho=st.integers(0, 3),
    stop=THRESHOLDS,
    cells=st.sampled_from([1, 3, 7, 40]),
    kept_cells=KEPT,
)
def test_exact_weighted_scans_match_the_reference_scan(problem, data, rho, stop, cells, kept_cells):
    # Every example is an exact weighted scan: the budget is a row over
    # the scaled ints of a nonempty kept set, decided at |x|, and a
    # fractional budget falls between two scaled norms.
    kept = sorted(data.draw(st.sets(st.integers(0, problem.n - 1), min_size=1)))
    size = len(kept)
    costs = data.draw(st.lists(st.sampled_from(EXACT_COSTS), min_size=size, max_size=size))
    args = (rho, 0, stop, None, kept, costs, data.draw(EXACT_BUDGETS))
    with block_cells(cells, kept_cells):
        found = scan_ball(problem, *args)
    assert repr(found) == repr(reference_scan(problem, *args))


# Float costs whose float sums round away from their exact sums, both
# up and down: 0.1 + 0.7 sums to a float below the exact 0.8 of the two.
FLOAT_COSTS = [0.1, 0.2, 0.3, 0.7, 1.0, 2.5, 1 / 3]


def float_norm(costs, y, step):
    """The weighted norm of a point y of the kept coordinates as the
    budget's float row sums it: the float64 products c_j * |step * y_j|
    from zero, over the support in ascending order."""
    norm = 0.0
    for c, v in zip(costs, y):
        if v:
            norm += c * abs(v if step is None else step * v)
    return norm


@settings(max_examples=150, deadline=None)
@given(
    problem=problems(),
    data=st.data(),
    rho=st.integers(0, 4),
    stop=THRESHOLDS,
    cells=st.sampled_from([1, 3, 7, 40, lattice.BLOCK_CELLS]),
    kept_cells=KEPT,
)
def test_float_weighted_scans_match_the_reference_scan(problem, data, rho, stop, cells, kept_cells):
    # Float costs at the integer points of float data, and at the grid
    # points step * y of either arithmetic, as the weighted PTAS walks
    # them, over a kept set that often pins coordinates.  The budget is
    # often the float norm of a point of the ball, or a float next to
    # it, so the walk must skip exactly what the float row rejects.  A
    # plain scan of the same ball follows, and where the ball is kept it
    # must be served the whole ball, not a budgeted walk's blocks.
    steps = [0.5, 0.3, 0.1] if problem.arithmetic == RATIONAL else [None, 0.5, 0.3, 0.1]
    step = data.draw(st.sampled_from(steps))
    every = list(range(problem.n))
    kept = data.draw(st.one_of(st.just(every), st.sets(st.sampled_from(every), min_size=1).map(sorted)))
    costs = data.draw(st.lists(st.sampled_from(FLOAT_COSTS), min_size=len(kept), max_size=len(kept)))
    point = data.draw(st.sampled_from(list(iter_l1_points(len(kept), rho)))).x
    norm = float_norm(costs, point, step)
    near = [norm, math.nextafter(norm, math.inf), math.nextafter(norm, -math.inf)]
    budget = data.draw(st.sampled_from([*near, 0.0, 1.0, 2.5]))
    tolerance = data.draw(st.sampled_from([1e-9, 0.5]))
    args = (rho, tolerance, stop, step, kept, costs, budget)
    lattice._kept = (None, [])
    with block_cells(cells, kept_cells):
        found = scan_ball(problem, *args)
        plain = scan_ball(problem, rho, tolerance, stop, step)
    assert repr(found) == repr(reference_scan(problem, *args))
    assert repr(plain) == repr(reference_scan(problem, rho, tolerance, stop, step))


def visited_magnitudes(monkeypatch):
    """The magnitude vectors that the walks of the test visit, each as a
    dense tuple of the kept coordinates, in the order visited."""
    visited = []
    magnitudes = lattice._magnitudes

    def spy(n, *args):
        for support, mags in magnitudes(n, *args):
            x = [0] * n
            for j, m in zip(support, mags):
                x[j] = m
            visited.append(tuple(x))
            yield support, mags

    monkeypatch.setattr(lattice, "_magnitudes", spy)
    monkeypatch.setattr(lattice, "KEPT_CELLS", 0)  # no ball is walked whole
    return visited


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 4), rho=st.integers(0, 4), data=st.data())
def test_the_budgeted_walk_visits_only_the_vectors_within_budget(n, rho, data):
    # Every magnitude vector that the walk visits is within the budget,
    # and every one within it is visited, in canonical order: the
    # nonnegative points of the ball come in the order of their vectors.
    exact = data.draw(st.booleans())
    step = None if exact else data.draw(st.sampled_from([None, 0.3]))
    costs = data.draw(st.lists(st.sampled_from(EXACT_COSTS if exact else FLOAT_COSTS), min_size=n, max_size=n))
    ball = [p.x for p in iter_l1_points(n, rho) if min(p.x) >= 0]
    if exact:
        budget = data.draw(EXACT_BUDGETS)
    else:
        # Often the float norm of a vector of the ball, or a float next to it.
        norm = float_norm(costs, data.draw(st.sampled_from(ball)), step)
        near = [norm, math.nextafter(norm, math.inf), math.nextafter(norm, -math.inf)]
        budget = data.draw(st.one_of(st.sampled_from(near), st.floats(0, 4)))
    problem = ProblemInstance.linear((0,) * n, (), (), RATIONAL if exact else FLOAT)

    def within(y):
        norm = sum(c * v for c, v in zip(costs, y)) if exact else float_norm(costs, y, step)
        return norm <= budget

    with pytest.MonkeyPatch.context() as monkeypatch:
        visited = visited_magnitudes(monkeypatch)
        found = scan_ball(problem, rho, 0, None, step, list(range(n)), costs, budget)
    assert visited == [y for y in ball if within(y)]
    assert repr(found) == repr(reference_scan(problem, rho, 0, None, step, list(range(n)), costs, budget))


def test_a_wide_weighted_job_walks_its_admitted_points_alone(monkeypatch):
    # Weights 1 and 2.5 in turn over n = 40 at radius 3, as the
    # benchmark's weighted jobs: 1,791 of the 12,341 magnitude vectors of
    # the radius-3 ball are within the budget, and they hold the 11,561
    # admitted points of its 88,641.  The cost -6 is at x_6, x_20, x_27
    # and x_34, all of weight 1, and x_34 = 3 has the lowest ordinal.
    problem = ProblemInstance.linear([float(-(k % 7)) for k in range(40)], (), (), FLOAT)
    visited = visited_magnitudes(monkeypatch)
    solution = solve_weighted_l1_ip(problem, WeightedL1Spec((1.0, 2.5) * 20, 3.0))
    assert len(visited) == 1791
    assert (solution.oracle_calls, solution.points_enumerated) == (11561, 88641)
    assert solution.x == (0,) * 34 + (3,) + (0,) * 5


def test_a_float_budget_after_an_exact_one_of_equal_value():
    # Weights 2^52 and 2^52 + 1 at radius 2^53: the exact norm of (1, 1)
    # is 2^53 + 1, over the budget, but its float norm rounds to 2^53,
    # within it.  The two budgets are equal as numbers, so a walk kept
    # under its budget would serve the float solve the exact walk.
    weights, radius = (2**52, 2**52 + 1), 2**53
    exact = solve_weighted_l1_ip(
        ProblemInstance.linear((-1, Fraction(-3, 2)), (), ()), WeightedL1Spec(weights, radius)
    )
    floating = solve_weighted_l1_ip(
        ProblemInstance.linear((-1.0, -1.5), (), (), FLOAT),
        WeightedL1Spec(tuple(map(float, weights)), float(radius)),
    )
    assert (exact.x, exact.objective) == ((2, 0), -2)
    assert (floating.x, floating.objective) == ((1, 1), -2.5)


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
    assert problem_evaluator(problem, radius, 0, stop_below, None) is not None
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
    kept=KEPT,
)
def test_rational_weighted_blocks_past_int64_match_scalar_path(
    problem, data, radius, stop_below, cells, kept
):
    weights = data.draw(st.lists(WIDE_WEIGHTS, min_size=problem.n, max_size=problem.n))
    spec = WeightedL1Spec(tuple(weights), radius)
    options = SolveOptions(stop_below=stop_below)
    with block_cells(cells, kept):
        fast = solve_weighted_l1_ip(problem, spec, options)
    assert repr(fast) == repr(solve_weighted_l1_ip(wrapped(problem), spec, options))


def test_weighted_costs_past_int64_take_the_block_path(evaluators_run):
    # Over the unit 2 * 10**19 the costs are 2 * 10**19 + 2, 3 * 10**19 - 7
    # and 2 * 10**19, past int64 at radius 2.  x = (1, 0, 1) would reach
    # -3, but its weighted norm is 2 + 10**-19, just over the budget.
    problem = ProblemInstance.linear((-2, 0, -1), ((1, 1, 0),), (1,))
    weights = (Fraction(10**19 + 1, 10**19), Fraction(3 * 10**19 - 7, 2 * 10**19), 1)
    spec = WeightedL1Spec(weights, 2)
    solution = solve_weighted_l1_ip(problem, spec)
    assert evaluators_run == ["_int_evaluator"]
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
    assert (problem_evaluator(fast, 2, epsilon, None, 0.5) is None) == scalar
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
        assert problem_evaluator(lipschitz(problem), 2, 0.5, None, 0.25) is not None
        fast = solve_lipschitz_ptas(lipschitz(problem), 0.5)
        assert fast.status == status and fast.oracle_calls == fast.points_enumerated == 41
        assert repr(fast) == repr(solve_lipschitz_ptas(lipschitz(wrapped(problem)), 0.5))


def test_rational_ptas_takes_the_block_path():
    problem = ProblemInstance.linear((1, -1), ((1, 1),), (1,))
    assert problem_evaluator(lipschitz(problem), 2, 0.5, None, 0.5) is not None
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
    # radius-2 walk; blocks of four points put it third in block 3.  The
    # per-point evaluator calls the oracles there and no further.
    for problem in both_modes((1, 0, 0), (), ()):
        options = SolveOptions(stop_below=-1)
        counted, seen = counting(problem)
        with block_cells(8):
            solution = solve_l1_ip(problem, 2, options)
            per_point = solve_l1_ip(counted, 2, options)
        assert repr(solution) == repr(per_point)
        assert solution.x == (-1, 0, 0)
        assert solution.points_enumerated == solution.oracle_calls == len(seen) == 15


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


def test_a_rational_budget_between_two_scaled_norms():
    # The costs 1/2 and 1 scale by 2 to 1 and 2, and the budget 7/3 to
    # 14/3, which no scaled norm meets: the norm 2 (scaled 4) is within
    # it and 5/2 (scaled 5) is not, so min -x_0 - 2 x_1 is -4, not -5.
    problem = ProblemInstance.linear((-1, -2), (), ())
    spec = WeightedL1Spec((Fraction(1, 2), 1), Fraction(7, 3))
    solution = solve_weighted_l1_ip(problem, spec)
    assert repr(solution) == repr(solve_weighted_l1_ip(wrapped(problem), spec))
    assert solution.objective == -4 and solution.points_enumerated == 41
    norms = (Fraction(abs(a), 2) + abs(b) for (a, b), _, _ in iter_l1_points(2, 4))
    assert solution.oracle_calls == sum(norm <= spec.radius for norm in norms)


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


# Kernel entries of each dtype: float coefficients whose products give
# signed zeros and whose sums round differently in another order, and
# sometimes (KERNEL_HUGE) infinities and NaN, which hide the order of
# the other terms; int64 ones; and Python ints past int64.
KERNEL_ENTRIES = {
    "float64": st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.sampled_from([0.1, 0.3, 1 / 3, -0.7, 2.5]),
        st.floats(-5, 5),
    ),
    "int64": st.integers(-(2**20), 2**20),
    "object": st.one_of(st.integers(-(2**20), 2**20), st.sampled_from([10**30, -(3**50)])),
}
KERNEL_HUGE = st.sampled_from([1e308, -1e308, math.inf, -math.inf, math.nan])


def kernel_inputs(draw, kind):
    """``(L, consts, quads, pos, x)`` for the block kernel: forms over
    indices 0..n with non-symmetric matrices, a block of width 0-4 in
    either memory layout, and entries as the evaluators pass them
    (int64, Python ints, or float64 at a float step)."""
    entry = KERNEL_ENTRIES[kind]
    if kind == "float64" and draw(st.integers(0, 3)) == 0:
        entry = st.one_of(entry, KERNEL_HUGE)
    n, forms = draw(st.integers(0, 4)), draw(st.integers(1, 3))
    points, width = draw(st.integers(1, 6)), draw(st.integers(0, 4))

    def array(shape, values=entry, dtype=kind):
        size = math.prod(shape)
        entries = draw(st.lists(values, min_size=size, max_size=size))
        return np.array(entries, dtype=dtype).reshape(shape)

    L, consts = array((forms, n + 1)), array((forms,))
    quadratic = draw(st.lists(st.booleans(), min_size=forms, max_size=forms))
    quads = [(f, array((n + 1, n + 1))) for f, q in enumerate(quadratic) if q]
    pos = array((points, width), st.integers(0, n), np.intp)
    val = array((points, width), st.integers(-3, 3), np.int64)
    if kind == "float64":
        step = draw(st.one_of(st.none(), st.sampled_from([0.1, 0.3, -0.5, 1e-300, 1e300])))
        x = val.astype(np.float64) if step is None else step * val
    else:
        x = val.astype(object) if kind == "object" and draw(st.booleans()) else val
    if draw(st.booleans()):
        pos, x = np.asfortranarray(pos), np.asfortranarray(x)
    return L, consts, quads, pos, x


@pytest.mark.parametrize("kind", sorted(KERNEL_ENTRIES))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_block_kernel_matches_the_indexing_reference(kind, data):
    # Float values must be the reference's bytes, so that signed zeros
    # (0.0 * -2), infinities and NaN count; int values must be its values
    # in its element types.
    inputs = kernel_inputs(data.draw, kind)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _form_values(*inputs)
        expected = form_values_reference(*inputs)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    if got.dtype == np.float64:
        assert got.tobytes() == expected.tobytes()
    else:
        assert got.tolist() == expected.tolist()
        assert [type(v) for v in got.flat] == [type(v) for v in expected.flat]


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
    assert problem_evaluator(problem, 1, 0, None, None) is not None
    assert problem_evaluator(problem, 3, 0, None, None) is not None
    for radius in (1, 3):
        solution = solve_l1_ip(problem, radius)
        assert repr(solution) == repr(solve_l1_ip(wrapped(problem), radius))
    assert solve_l1_ip(problem, 3).objective == -3 * big
    quadratic = ProblemInstance.quadratic(((big, 0), (0, 1)), (1, 1), ())
    assert problem_evaluator(quadratic, 1, 0, None, None) is not None
    assert problem_evaluator(quadratic, 2, 0, None, None) is not None
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
    assert problem_evaluator(problem, 4, 1e-9, None, None) is not None
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


@pytest.mark.parametrize("kind", ["int64", "object", "float"])
def test_objective_with_several_forms_is_their_maximum(kind):
    # Three linear forms and one row x_0 + x_1 <= 1, against the largest
    # form at every point of the walk; ties keep the lower ordinal.
    scale = {"int64": 1, "object": 10**20, "float": 1.0}[kind]
    forms = [
        (None, (scale, -2 * scale, 0), scale),
        (None, (-scale, scale, 3 * scale), 0 * scale),
        (None, (0 * scale, 0 * scale, 0 * scale), -scale),
    ]
    one = 1.0 if kind == "float" else 1
    rows = Forms(3, ((None, (one, one, 0 * one), -one),))

    def objective(x):
        return max(sum(a * v for a, v in zip(coefs, x)) + const for _, coefs, const in forms)

    objective.block_forms = Forms(3, tuple(forms))

    def decide(x):
        return (objective(x) if x[0] + x[1] <= 1 else None), None

    expected = None
    for point in iter_l1_points(3, 2):
        value = decide(point.x)[0]
        if value is not None and (expected is None or value < expected[0]):
            expected = (value, point.ordinal, point.x)
    walk = (objective.block_forms, rows)
    assert block_evaluator(3, walk, 2, 0, None, None) is not None
    assert block_scan(3, 2, walk, decide, objective) == (expected, 25, 25)


def test_rational_forms_of_one_objective_must_share_a_scale():
    forms = Forms(1, ((None, (Fraction(1, 2),), 0), (None, (Fraction(1, 3),), 0)))
    assert block_evaluator(1, (forms, Forms(1, ())), 2, 0, None, None) is None


@st.composite
def objective_problems(draw):
    """A linear or quadratic problem with at most one linear row, which
    may cut off the origin, whose winner meets every rule of the winner's
    value: rational data in int64 and past it, float data, and data built
    as given, of ints or of ints mixed with Fractions; an all-zero c half
    of the time, and rows of Q that are all zero."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["int64", "object", "float", "int", "int and Fraction"]))
    value = {
        "int64": COEFFICIENTS[RATIONAL],
        "object": st.one_of(COEFFICIENTS[RATIONAL], HUGE[RATIONAL]),
        "float": COEFFICIENTS[FLOAT],
        "int": st.integers(-3, 3),
        "int and Fraction": st.one_of(st.integers(-3, 3), COEFFICIENTS[RATIONAL]),
    }[kind]
    zero = 0.0 if kind == "float" else 0

    def vector(size):
        return draw(st.lists(value, min_size=size, max_size=size))

    c = [zero] * n if draw(st.booleans()) else vector(n)
    Q = None
    if draw(st.booleans()):
        Q = [[zero] * n if draw(st.booleans()) else vector(n) for _ in range(n)]
    rows = [QuadraticConstraint(None, vector(n), draw(value))] if draw(st.booleans()) else []
    mode = FLOAT if kind == "float" else RATIONAL
    if kind in ("int", "int and Fraction"):
        return kind, ProblemInstance(n, *make_quadratic_oracle(Q, c, rows), mode)
    return kind, ProblemInstance.quadratic(Q, c, rows, mode)


@settings(max_examples=300, deadline=None)
@given(drawn=objective_problems(), data=st.data(), rho=st.integers(0, 3))
def test_the_winners_value_is_the_objective_oracles(drawn, data, rho):
    # The block path takes the winner's value from its block: it must have
    # the repr and type of objective(x) and of the reference scan's value,
    # int 0 where the dense sum adds no term, and never a numpy scalar.
    # Grid steps (zero among them) put rational data in float64, and
    # weighted walks embed the kept coordinates.  Only data that mixes
    # int with Fraction calls the objective, once, at the winner.
    kind, problem = drawn
    step = data.draw(st.sampled_from([None, 0.5, 0.1, -0.25, 0.0]))
    exact = kind != "float" and step is None
    kept = costs = budget = None
    if data.draw(st.booleans()):
        kept = sorted(data.draw(st.sets(st.integers(0, problem.n - 1))))
        cost = [1, 2, Fraction(1, 2)] if exact else [0.5, 1.0, 2.5]
        costs = data.draw(st.lists(st.sampled_from(cost), min_size=len(kept), max_size=len(kept)))
        budget = data.draw(st.sampled_from([0, Fraction(5, 2), 3] if exact else [0.0, 2.5]))
    args = (rho, 0 if exact else 1e-9, None, step, kept, costs, budget)
    calls = []

    def counted(x):
        calls.append(x)
        return problem.objective(x)

    counted.block_forms = problem.objective.block_forms
    found = scan_ball(dataclasses.replace(problem, objective=counted), *args)
    reference = reference_scan(problem, *args)
    assert repr(found) == repr(reference)
    assert len(calls) <= (1 if kind == "int and Fraction" and exact else 0)
    if found[0] is not None:
        value, x = found[0][0], found[0][2]
        want = problem.objective(x)
        assert type(value) is type(want) is type(reference[0][0])
        assert repr(value) == repr(want)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize(
    "q, cut, step, x, kind",
    [
        (1, False, None, (0, 0), int),
        (1, True, None, (1, 0), int),
        (1, True, 0.5, (1.0, 0.0), float),
        (-1, False, None, (0, 2), "mode"),
    ],
)
def test_a_quadratic_with_zero_c_keeps_the_oracles_type(mode, q, cut, step, x, kind):
    # x'Qx with Q = diag(0, q) and c = 0.  The origin adds no term, and a
    # winner on the x_0 axis, where the row x_0 >= 1 cuts the origin off,
    # adds only x_0 * 0: an int 0 at an integer point and a float at a
    # grid point.  A winner off that axis has the data's type.
    rows = [QuadraticConstraint(None, (-1, 0), 1)] if cut else []
    problem = ProblemInstance.quadratic(((0, 0), (0, q)), (0, 0), rows, mode)
    tolerance = 0 if mode == RATIONAL and step is None else 1e-9
    found = scan_ball(problem, 2, tolerance, None, step)
    assert repr(found) == repr(reference_scan(problem, 2, tolerance, None, step))
    value, _, point = found[0]
    assert point == x
    want = {RATIONAL: Fraction, FLOAT: float}[mode] if kind == "mode" else kind
    assert type(value) is want and type(problem.objective(point)) is want


FLOAT_LP = ProblemInstance.linear((1.0, -0.5), ((1.0, 1.0),), (1.0,), FLOAT)


@pytest.mark.parametrize(
    "problem, stop_below",
    [
        # Coefficients that mix int and float.
        (ProblemInstance(2, *make_linear_oracle((1, 0.5), ((1, 1),), (1,)), FLOAT), None),
        # Thresholds that are neither a float nor a rational: a numpy
        # float32 is no Python float.
        (FLOAT_LP, Decimal("-1")),
        (FLOAT_LP, np.float32(-0.5)),
        (ProblemInstance.linear((1, Fraction(-1, 2)), ((1, 1),), (1,)), Decimal("-1")),
    ],
)
def test_scans_with_no_block_evaluator_match_the_reference(problem, stop_below, evaluators_run):
    tolerance = 0 if problem.arithmetic == RATIONAL else 1e-9
    found = scan_ball(problem, 2, tolerance, stop_below)
    assert evaluators_run == ["point_evaluator"]
    assert repr(found) == repr(reference_scan(problem, 2, tolerance, stop_below))


@pytest.mark.parametrize(
    "tolerance, stop_below",
    [
        (1e-9, Fraction(10**400)),
        (1e-9, Fraction(-(10**400))),
        (Fraction(10**400), None),
        (Fraction(-(10**400)), None),
    ],
)
def test_thresholds_past_the_float_range_take_the_block_path(tolerance, stop_below, evaluators_run):
    # Every finite float, and no infinite one, is at most 10**400; the
    # stop at 10**400 ends the walk at its first feasible point.
    found = scan_ball(FLOAT_LP, 2, tolerance, stop_below)
    assert evaluators_run == ["_float_evaluator"]
    assert repr(found) == repr(reference_scan(FLOAT_LP, 2, tolerance, stop_below))


BIG = 3 * 10**18
KEPT_BALL_SOLVES = {
    "int64": (
        lambda: solve_l1_ip(ProblemInstance.linear((1, -2, 3), ((1, 1, 0),), (2,)), 3),
        "_int_evaluator",
    ),
    "object": (
        lambda: solve_l1_ip(ProblemInstance.linear((BIG, -BIG + 1), ((BIG, -BIG),), (BIG + 7,)), 3),
        "_int_evaluator",
    ),
    "float": (
        lambda: solve_l1_ip(
            ProblemInstance.quadratic(((1.5, 0), (0, 2)), (-3.0, 1.0), (), FLOAT), 4
        ),
        "_float_evaluator",
    ),
    "grid step": (
        lambda: solve_lipschitz_ptas(
            lipschitz(ProblemInstance.linear((1, -1), ((1, 1),), (1,)), radius=2.0), 0.5
        ),
        "_float_evaluator",
    ),
    "weighted kept subset": (
        lambda: solve_weighted_l1_ip(
            ProblemInstance.linear((-1, -1, 2), ((1, 1, 1),), (2,)),
            WeightedL1Spec((1, 5, Fraction(1, 2)), 3),
        ),
        "_int_evaluator",
    ),
    "mixed dual forms": (
        lambda: solve_mixed_integer(
            MixedProblem(
                3,
                1,
                linear_mixed_inner_solver(
                    (1, -1, 0), (1,), ((1, 1, 0), (0, 0, 0)), ((1,), (-1,)), (2, 1)
                ),
            ),
            3,
        ),
        "_int_evaluator",
    ),
}


@pytest.mark.parametrize("kind", sorted(KEPT_BALL_SOLVES))
def test_solves_of_a_kept_ball_equal_the_first(kind, evaluators_run):
    solve, evaluator = KEPT_BALL_SOLVES[kind]
    lattice._kept = (None, [])
    cold = solve()
    assert lattice._kept[0] is not None
    hot = solve()
    assert repr(hot) == repr(cold)
    assert evaluators_run == [evaluator, evaluator]


# c_k = (k - 6) / (k + 1) and one row sum(x) <= 2, over the (12, 3) ball
# of 2,625 points: a fresh walk serves it as blocks of 1,365 and 1,260
# points, and a kept one as one block.  The first value at or below
# -5/2 is at ordinal 1,457 in rational mode and 1,521 in float mode, in
# the range of the second fresh block.
TWO_BLOCK_BALL = ([Fraction(k - 6, k + 1) for k in range(12)], ([1] * 12,), (2,))


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("stop_below", [None, Fraction(-5, 2)])
def test_cold_and_kept_solves_of_a_two_block_ball_agree(mode, stop_below):
    problem = ProblemInstance.linear(*TWO_BLOCK_BALL, mode)
    options = SolveOptions(stop_below=stop_below)
    assert [len(pos) for pos, _ in lattice._walk(12, 3)] == [1365, 1260]
    lattice._kept = (None, [])
    cold = solve_l1_ip(problem, 3, options)
    # A scan that stops early keeps nothing, so a full walk keeps the ball.
    list(point_blocks(12, 3))
    assert [len(pos) for pos, _ in lattice._kept[1]] == [2625]
    kept = solve_l1_ip(problem, 3, options)
    assert repr(kept) == repr(cold)
    if stop_below is None:
        assert kept.points_enumerated == 2625
    else:
        assert 1365 < kept.points_enumerated == kept.oracle_calls < 2625


def test_a_solve_that_stops_early_keeps_nothing():
    lattice._kept = (None, [])
    solution = solve_l1_ip(ProblemInstance.linear((1, 0, 0), (), ()), 2, SolveOptions(stop_below=-1))
    assert solution.points_enumerated == 15
    assert lattice._kept[0] is None

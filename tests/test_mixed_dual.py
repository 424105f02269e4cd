"""Mixed solves with the block evaluator against the per-point evaluator.

The solver of ``linear_mixed_inner_solver`` carries its subproblems'
dual data (``dual_forms``), so ``solve_mixed_integer`` decides every
integer point with the block evaluator and runs one exact LP, at the
winner.  The same solver wrapped in a lambda has no dual data and runs
one LP per point.  Both must return ``repr``-equal solutions, counts
included, or raise the same error, and so must ``reference_mixed`` of
``tests/oracles.py``.  Small ``BLOCK_CELLS`` values split a walk into
many blocks.  The inner solver's LP, built once with only the rhs set
per point, must also match ``linear_mixed_inner_reference``, which
builds the whole LP afresh at every point.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from l1opt import lattice, lp
from l1opt.errors import InnerSolverError, ShapeMismatchError
from l1opt.lattice import iter_l1_points
from l1opt.ptas import (
    MixedProblem,
    MixedSolution,
    _dual_forms,
    linear_mixed_inner_solver,
    solve_mixed_integer,
)
from oracles import linear_mixed_inner_reference, reference_mixed

ENTRIES = {
    # Degenerate data: ties, repeated and parallel rows, zero minors.
    "degenerate": st.sampled_from([-1, 0, 1, 2]),
    "small": st.fractions(min_value=-3, max_value=3, max_denominator=7),
    # Past the int64 bound of the block path's sums.
    "huge": st.one_of(
        st.sampled_from([-1, 0, 1, 2]),
        st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**12)),
    ),
}
CELLS = st.sampled_from([3, 7, lattice.BLOCK_CELLS])


@st.composite
def mixed_data(draw, boxed=None):
    """``(n, c_int, c_cont, A_int, A_cont, b, radius)``: some with a
    rank-deficient A_cont, some with box rows that keep every
    subproblem bounded (``boxed``) and may be empty, and the rest often
    unbounded or infeasible.  Some repeat a row or zero a row of A_cont,
    so that a vertex of the dual D has several bases; some zero c_cont;
    and some make D empty, with A_cont's first column >= 0 against
    c_cont[0] > 0."""
    n = draw(st.integers(1, 3))
    p = draw(st.integers(0, 3))
    m = draw(st.integers(0, 5))
    entry = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    A_int = [[draw(entry) for _ in range(n)] for _ in range(m)]
    A_cont = [[draw(entry) for _ in range(p)] for _ in range(m)]
    b = [draw(entry) for _ in range(m)]
    if p >= 2 and draw(st.booleans()):
        for row in A_cont:
            row[1] = row[0]
    if m and draw(st.booleans()):
        i = draw(st.integers(0, m - 1))
        if draw(st.booleans()):
            A_cont[i] = [0] * p
        else:
            A_int.append(list(A_int[i]))
            A_cont.append(list(A_cont[i]))
            b.append(b[i])
    c_int = [draw(entry) for _ in range(n)]
    c_cont = [draw(entry) for _ in range(p)]
    dual = draw(st.sampled_from(["drawn", "zero c_cont", "empty"]))
    if dual == "zero c_cont":
        c_cont = [0] * p
    elif dual == "empty" and p and not boxed:
        for row in A_cont:
            row[0] = abs(row[0])
        c_cont[0] = draw(st.sampled_from([1, 2, Fraction(1, 2)]))
        boxed = False
    if boxed if boxed is not None else draw(st.booleans()):
        for j in range(p):
            for sign in (1, -1):
                A_int.append([0] * n)
                A_cont.append([sign if k == j else 0 for k in range(p)])
                b.append(draw(st.sampled_from([-1, 0, 1, 2, Fraction(3, 2)])))
    radius = draw(st.sampled_from([0, 1, 2, 3, Fraction(5, 2)]))
    return n, c_int, c_cont, A_int, A_cont, b, radius


def outcome(problem, radius, solve=solve_mixed_integer):
    try:
        solution = solve(problem, radius)
    except InnerSolverError as exc:
        return f"InnerSolverError: {exc}"
    assert solution.inner_calls == solution.points_enumerated
    return repr(solution)


@settings(deadline=None)
@given(mixed_data(), CELLS)
# No continuous variable and no row: the inner value is c_int.x.
@example((1, [-1], [], [], [], [], 0), 3)
@example((2, [1, -1], [], [[1, 0], [0, 1]], [[], []], [1, 0], 2), 3)
def test_block_path_matches_the_per_point_path(data, cells):
    n, c_int, c_cont, A_int, A_cont, b, radius = data
    inner = linear_mixed_inner_solver(c_int, c_cont, A_int, A_cont, b)
    p = len(c_cont)
    with mock.patch.object(lattice, "BLOCK_CELLS", cells):
        block = outcome(MixedProblem(n, p, inner), radius)
    per_point = outcome(MixedProblem(n, p, lambda x: inner(x)), radius)
    assert block == per_point


@settings(deadline=None)
@given(mixed_data(), CELLS)
def test_block_path_matches_the_reference(data, cells):
    # The other tests meet reference_mixed on the per-point path only: a
    # wrapped inner solver carries no dual forms.  Here the forms of
    # degenerate, empty and rank-deficient duals, and of a zero c_cont,
    # meet it directly.
    n, c_int, c_cont, A_int, A_cont, b, radius = data
    problem = MixedProblem(n, len(c_cont), linear_mixed_inner_solver(c_int, c_cont, A_int, A_cont, b))
    with mock.patch.object(lattice, "BLOCK_CELLS", cells):
        block = outcome(problem, radius)
    assert block == outcome(problem, radius, reference_mixed)


@settings(max_examples=150, deadline=None)
@given(mixed_data(), CELLS)
def test_inner_calls_are_real_calls_and_match_the_reference(data, cells):
    # A counting inner solver runs once per point, no extra call at the
    # winner, and the per-point reference makes the same calls, in the
    # same order, up to the same error.
    n, c_int, c_cont, A_int, A_cont, b, radius = data
    inner = linear_mixed_inner_solver(c_int, c_cont, A_int, A_cont, b)
    seen = []

    def counted(x):
        seen.append(x)
        return inner(x)

    problem = MixedProblem(n, len(c_cont), counted)

    def run(solve):
        seen.clear()
        try:
            solution = solve(problem, radius)
        except InnerSolverError as exc:
            return f"InnerSolverError: {exc}", list(seen)
        assert isinstance(solution, MixedSolution) and solution.inner_calls == len(seen)
        return repr(solution), list(seen)

    with mock.patch.object(lattice, "BLOCK_CELLS", cells):
        per_point = run(solve_mixed_integer)
    assert per_point == run(reference_mixed)


@settings(max_examples=100, deadline=None)
@given(mixed_data(), CELLS)
def test_a_block_solve_calls_the_inner_solver_once_at_the_winner(data, cells):
    # The dual forms decide every point, and the winner's value is still
    # the inner solver's, which runs once, at the winner, or not at all
    # when no point is feasible.  A counting solver that carries the
    # dual forms keeps the block path.
    n, c_int, c_cont, A_int, A_cont, b, radius = data
    inner = linear_mixed_inner_solver(c_int, c_cont, A_int, A_cont, b)
    seen = []

    def counted(x):
        seen.append(x)
        return inner(x)

    counted.dual_forms = inner.dual_forms
    problem = MixedProblem(n, len(c_cont), counted)
    assume(_dual_forms(problem, radius) is not None)
    with mock.patch.object(lattice, "BLOCK_CELLS", cells):
        solution = solve_mixed_integer(problem, radius)
    assert seen == ([] if solution.x is None else [solution.x])
    assert repr(solution) == repr(solve_mixed_integer(MixedProblem(n, len(c_cont), inner), radius))


@settings(deadline=None)
@given(mixed_data(boxed=True))
def test_dual_forms_decide_each_point_as_its_lp_does(data):
    # Feasibility from the ray rows, and the largest objective form as
    # one positive multiple of the inner LP's value, at every point.
    n, c_int, c_cont, A_int, A_cont, b, radius = data
    inner = linear_mixed_inner_solver(c_int, c_cont, A_int, A_cont, b)
    forms = inner.dual_forms.forms
    assume(forms is not None)
    objective, rows = forms
    ratio = None
    for point in iter_l1_points(n, radius):
        x = point.x
        solved = inner(x)
        feasible = all(sum(a * v for a, v in zip(row, x)) + c <= 0 for _, row, c in rows.forms)
        assert feasible == (solved.status == "optimal")
        if not feasible:
            continue
        top = max(sum(a * v for a, v in zip(row, x)) + c for _, row, c in objective.forms)
        assert (top > 0) == (solved.value > 0) and (top < 0) == (solved.value < 0)
        if solved.value:
            ratio = ratio or top / solved.value
            assert top == ratio * solved.value


def test_block_path_runs_one_lp_per_solve():
    data = ([1, -1], [1, 1], [[1, 0], [0, 1], [0, 0], [0, 0]], [[1, 0], [0, 1], [-1, 0], [0, -1]], [1, 1, 2, 2])
    inner = linear_mixed_inner_solver(*data)
    calls = []
    solve = lp._solve_leq_form

    def spy(*args):
        calls.append(1)
        return solve(*args)

    with mock.patch.object(lp, "_solve_leq_form", spy):
        block = solve_mixed_integer(MixedProblem(2, 2, inner), 2)
        assert len(calls) == 1
        per_point = solve_mixed_integer(MixedProblem(2, 2, lambda x: inner(x)), 2)
        assert len(calls) == 1 + 13
    assert repr(block) == repr(per_point)
    assert block.inner_calls == block.points_enumerated == 13


@st.composite
def inner_data(draw):
    """``(n, c_int, c_cont, A_int, A_cont, b, radius)`` for the inner LPs
    alone: A_int and b with denominators up to 9 that A_cont mostly
    lacks, so rows scale by different factors, at times an all-zero
    A_cont row, many zeros in c_cont (an optimal face that is not one vertex,
    all of it when c_cont is zero), negative rhs that send points through
    phase 1 or leave them infeasible, and without box rows some
    unbounded subproblems."""
    n = draw(st.integers(1, 2))
    p = draw(st.integers(2, 3))
    m = draw(st.integers(2, 5))
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=9)
    cont = st.sampled_from([-2, -1, 0, 1, 2, Fraction(1, 2)])
    rhs = st.one_of(fractions, st.sampled_from([-1, Fraction(-1, 2), Fraction(-2, 3), Fraction(-3, 5), 1, 2]))
    A_int = [[draw(fractions) for _ in range(n)] if draw(st.booleans()) else [0] * n for _ in range(m)]
    A_cont = [[draw(cont) for _ in range(p)] for _ in range(m)]
    b = [draw(rhs) for _ in range(m)]
    for i in draw(st.sets(st.integers(0, m - 1), max_size=1)):
        A_cont[i] = [0] * p
    if draw(st.integers(0, 3)):
        for j in range(p):
            for sign in (1, -1):
                A_int.append([draw(st.sampled_from([0, Fraction(1, 3)])) for _ in range(n)])
                A_cont.append([sign if k == j else 0 for k in range(p)])
                b.append(draw(st.sampled_from([1, Fraction(3, 2), Fraction(5, 7), 2])))
    c_int = [draw(fractions) for _ in range(n)]
    c_cont = [draw(st.sampled_from([0, 0, 1, -1, Fraction(-2, 3)])) for _ in range(p)]
    if draw(st.booleans()):
        c_cont = [0] * p
    return n, c_int, c_cont, A_int, A_cont, b, draw(st.sampled_from([1, 2]))


def inner_outcome(inner, x):
    try:
        return repr(inner(x))
    except InnerSolverError as exc:
        return f"InnerSolverError: {exc}"


@settings(max_examples=300, deadline=None)
@given(inner_data())
# Every point of the feasible set is optimal, and y is where phase 1
# ends: on the two negative rows, of scales 1 and 2, that needs each
# artificial weighed as the reference lp_solve weighs it.
@example((1, [0], [0, 0], [[0], [0], [0]], [[-2, 2], [1, 0], [2, -1]], [-1, Fraction(-1, 2), 1], 1))
def test_inner_solutions_match_a_fresh_lp_per_point(data):
    # The inner LP priced once, with each point setting only its rhs,
    # against the reference lp_solve on the whole LP at each point (through
    # linear_mixed_inner_reference): the same solution,
    # y included, at every point of the ball, or the same error.
    n, c_int, c_cont, A_int, A_cont, b, radius = data
    inner = linear_mixed_inner_solver(c_int, c_cont, A_int, A_cont, b)
    reference = linear_mixed_inner_reference(c_int, c_cont, A_int, A_cont, b)
    for point in iter_l1_points(n, radius):
        assert inner_outcome(inner, point.x) == inner_outcome(reference, point.x)


@pytest.mark.parametrize("big", [False, True])
def test_both_dtypes_of_the_dual_forms(big):
    scale = 10**15 if big else 1
    inner = linear_mixed_inner_solver(
        [Fraction(1, 3), -1],
        [Fraction(1, scale), 1],
        [[1, 1], [0, 0], [0, 0], [0, 0], [0, 0]],
        [[1, 1], [1, 0], [-1, 0], [0, 1], [0, -1]],
        [2, 1, Fraction(scale + 1, scale), 1, 1],
    )
    objective, rows = inner.dual_forms.forms
    assert (objective.fits_int64(3) and rows.fits_int64(3)) is not big
    block = solve_mixed_integer(MixedProblem(2, 2, inner), 3)
    per_point = solve_mixed_integer(MixedProblem(2, 2, lambda x: inner(x)), 3)
    assert block.status == "optimal"
    assert repr(block) == repr(per_point)


def test_empty_dual_polyhedron_keeps_the_per_point_path():
    # min y subject to y <= 1 - x is unbounded at every point, and
    # D = {u >= 0 : u = -1} is empty.
    unbounded = linear_mixed_inner_solver([0], [1], [[1]], [[1]], [1])
    assert unbounded.dual_forms.forms is None
    with pytest.raises(InnerSolverError):
        solve_mixed_integer(MixedProblem(1, 1, unbounded), 1)
    # With 0 <= y_1 <= -3 no point is feasible, and D is empty too: no
    # u >= 0 gives (u_1 - u_2, u_3) = (0, -1).
    infeasible = linear_mixed_inner_solver(
        [0], [0, 1], [[0], [0], [0]], [[1, 0], [-1, 0], [0, 1]], [-3, 0, 0]
    )
    assert infeasible.dual_forms.forms is None
    for inner in (infeasible, lambda x: infeasible(x)):
        solution = solve_mixed_integer(MixedProblem(1, 2, inner), 1)
        assert (solution.status, solution.inner_calls, solution.points_enumerated) == ("infeasible", 3, 3)


def test_ray_with_no_integer_coefficient_rules_out_every_point():
    # 0 <= y <= -1 whatever x is: the ray v = (1, 1) gives the row
    # 0.x + 1 <= 0, while D = {u >= 0 : u_1 - u_2 = -1} has a vertex.
    inner = linear_mixed_inner_solver([1], [1], [[0], [0]], [[1], [-1]], [-1, 0])
    objective, rows = inner.dual_forms.forms
    assert [(tuple(a), c) for _, a, c in rows.forms] == [((0,), 1)]
    for solver in (inner, lambda x: inner(x)):
        solution = solve_mixed_integer(MixedProblem(1, 1, solver), 2)
        assert (solution.status, solution.inner_calls, solution.points_enumerated) == ("infeasible", 5, 5)


def test_subset_count_above_the_ball_keeps_the_per_point_path():
    # 12 rows and 6 continuous columns: 4,095 minors and 792 ray subsets,
    # against a 13 x 7 tableau per point, so the dual forms are built
    # from 4,887 / 91 points on, a ball of radius 27 in one dimension.
    m, p = 12, 6
    A_cont = [[int(i == j) - int(i == j + p) for j in range(p)] for i in range(m)]
    subsets = sum(math.comb(m + 1, k) for k in range(1, p + 1)) + math.comb(m, p + 1)
    assert subsets == 4887 and 53 * 91 < subsets <= 55 * 91
    for radius, built in ((0, False), (26, False), (27, True)):
        inner = linear_mixed_inner_solver([1], [1] * p, [[0]] * m, A_cont, [1] * m)
        solution = solve_mixed_integer(MixedProblem(1, p, inner), radius)
        assert (solution.status, solution.x) == ("optimal", (-radius,))
        assert ("forms" in vars(inner.dual_forms)) is built


def test_integer_block_of_the_wrong_length_is_refused():
    # Two integer coefficients under a one-variable integer block: the
    # sums over zip(row, x) used to drop column 2 and report "optimal".
    inner = linear_mixed_inner_solver([1, -5], [1], [[1, 1], [0, 0], [0, 0]], [[1], [1], [-1]], [2, 1, 1])
    with pytest.raises(ShapeMismatchError, match="integer block has 1 entries, expected 2"):
        inner((0,))
    for solver in (inner, lambda x: inner(x)):
        with pytest.raises(ShapeMismatchError):
            solve_mixed_integer(MixedProblem(1, 1, solver), 1)


@pytest.mark.parametrize(
    "args, message",
    [
        (([1, 1], [1], [[1, 1], [1]], [[1], [1]], [1, 1]), r"A_int\[1\] has 1 entries, expected 2"),
        (([1, 1], [1], [[1, 1, 0]], [[1]], [1]), r"A_int\[0\] has 3 entries, expected 2"),
        (([1], [1, 2], [[1]], [[1]], [1]), r"A_cont\[0\] has 1 entries, expected 2"),
    ],
)
def test_rows_of_the_wrong_length_are_refused(args, message):
    with pytest.raises(ShapeMismatchError, match=message):
        linear_mixed_inner_solver(*args)

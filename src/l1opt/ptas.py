"""Additive approximation of Lipschitz programs over a scaled l1 ball.

The continuous problem min f(x) over {g(x) <= 0, ||x||_1 <= radius} is
attacked by laying a grid of pitch epsilon/kappa over the ball, where
kappa is a shared Lipschitz constant of f and every constraint in the
sup-norm modulus.  The grid points are exactly the integer points of a
ball of radius floor(radius * kappa / epsilon), scaled back down, so
the exhaustive integer machinery enumerates them in canonical order.
Accepting points with g(x) <= epsilon (relaxed feasibility) makes the
best grid value land within epsilon of the true optimum whenever one
exists.

Both approximation schemes walk the ball through
:func:`l1opt.solver.scan_ball`, the walk of the exact solvers, with the
grid step: each integer point y becomes the grid point ``step * y``,
and the weighted budget is tested over the kept coordinates.  The scan,
:func:`l1opt.blocks.block_scan`, picks the evaluator.  The block
evaluator runs when the problem's objective and constraints are
built-in oracles (those of :meth:`l1opt.solver.ProblemInstance.linear`
or ``.quadratic``) over float or rational data and the step is a
float; rational data is summed in float64 over its float image, as
``Fraction * float`` computes it.  Every case that runs per point is a
refusal of :func:`l1opt.blocks.block_evaluator`.  The command line's
``ptas`` passes the built-in oracles of float and rational files as
they are.

The mixed solver runs the same scan, and hands it the dual forms of
:func:`_dual_forms` and a per-point rule that calls the inner solver.
When its inner solver is the one of :func:`linear_mixed_inner_solver`,
by LP duality the inner value is the largest of fixed linear forms in
the integer block, and by Farkas' lemma feasibility is a fixed set of
linear rows, so the block evaluator decides every point exactly and
one LP runs, at the winner.  Both read one copy of the rows of
[A_int | A_cont | b], each scaled to ints once.  Other inner solvers
run once per point.

kappa is caller-supplied.  Supplying an underestimate voids the
guarantee, and nothing here checks it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from operator import mul
from typing import Callable, Optional, Sequence

from .blocks import Forms, block_scan
from .counting import Real, count_l1_lattice, floor_radius
from .errors import InnerSolverError, InvalidDimensionError, ShapeMismatchError
from .lp import INFEASIBLE, OPTIMAL, _leq_rows, _LeqForm, _scaled, exact_rationals
from .solver import WeightedL1Spec, _check_parallel, scan_ball


@dataclass(frozen=True)
class LipschitzProblem:
    """Real-valued objective and constraints sharing one Lipschitz constant.

    ``lipschitz`` bounds |h(x) - h(y)| / ||x - y||_inf for the objective
    and every constraint over the ball of the given radius.
    """

    n: int
    objective: Callable[[tuple[float, ...]], float]
    constraints: Callable[[tuple[float, ...]], Sequence[float]]
    lipschitz: float
    radius: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidDimensionError("dimension must be >= 1")
        if not (math.isfinite(self.lipschitz) and self.lipschitz > 0):
            raise ValueError(f"the Lipschitz constant must be finite and positive: {self.lipschitz}")
        if not (math.isfinite(self.radius) and self.radius >= 0):
            raise ValueError(f"radius must be finite and nonnegative: {self.radius}")

    def evaluate(self, x: tuple[float, ...]) -> tuple[float, tuple[float, ...]]:
        return self.objective(x), tuple(self.constraints(x))


@dataclass(frozen=True)
class ApproxSolution:
    status: str  # "optimal" | "no_feasible_grid_point"
    x: Optional[tuple[float, ...]]
    objective: Optional[float]
    oracle_calls: int
    points_enumerated: int
    grid_radius: int
    step: float


@dataclass(frozen=True)
class InnerSolution:
    """Result of the convex subproblem at a fixed integer block.

    ``value`` is the full objective f(x, y*), so comparing inner
    solutions across integer points is meaningful.
    """

    status: str  # "optimal" | "infeasible"
    y: Optional[tuple]
    value: Optional[object]


@dataclass(frozen=True)
class MixedProblem:
    """Integer block enumerated outright, continuous block delegated.

    ``inner_solver`` receives the integer block and must return the
    exact (or tolerance-documented) optimum of the convex subproblem in
    the continuous block.
    """

    n_int: int
    n_cont: int
    inner_solver: Callable[[tuple[int, ...]], InnerSolution]


@dataclass(frozen=True)
class MixedSolution:
    status: str  # "optimal" | "infeasible"
    x: Optional[tuple[int, ...]]
    y: Optional[tuple]
    objective: Optional[object]
    inner_calls: int
    points_enumerated: int


def grid_radius(radius: Real, lipschitz: Real, epsilon: Real) -> int:
    """floor(radius * lipschitz / epsilon), computed exactly.

    Floats are promoted to the exact rationals they represent before
    flooring, so the radius is never off by one from rounding noise.
    Infinite or NaN inputs raise ``ValueError``.
    """
    for name, value in (("radius", radius), ("lipschitz", lipschitz), ("epsilon", epsilon)):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return floor_radius(Fraction(radius) * Fraction(lipschitz) / Fraction(epsilon))


def solve_lipschitz_ptas(
    problem: LipschitzProblem,
    epsilon: float,
    parallel: int = 1,
) -> ApproxSolution:
    """Best grid point under relaxed feasibility g(x) <= epsilon.

    Whenever the continuous problem has an optimum x*, the returned
    point satisfies f(x) - f(x*) <= epsilon, every constraint is at most
    epsilon, and ||x||_1 stays within the ball radius.  When no grid
    point passes the relaxed test the status reports it; no feasibility
    claim about the continuous problem is implied either way.
    ``parallel`` is accepted for interface stability; the walk is serial.
    """
    _check_parallel(parallel)
    radius = grid_radius(problem.radius, problem.lipschitz, epsilon)
    step = epsilon / problem.lipschitz
    return _approx_from(scan_ball(problem, radius, epsilon, step=step), radius, step)


def solve_weighted_lipschitz_ptas(
    problem: LipschitzProblem,
    weights: Sequence[float],
    epsilon: float,
    parallel: int = 1,
) -> ApproxSolution:
    """Grid approximation under a weighted l1 constraint.

    The scaled grid turns the weighted constraint into its integer
    counterpart with radius radius * kappa / epsilon, so the weighted
    reduction applies verbatim: coordinates too expensive to ever leave
    zero are pinned, the rest span the ball of the effective radius,
    and the walk of a ball too large to keep visits only the grid points
    within the weighted budget; each point is still checked against it
    before the oracles run.
    ``points_enumerated`` counts the points of that ball.  ``parallel``
    is accepted for interface stability; the walk is serial.
    """
    _check_parallel(parallel)
    if len(weights) != problem.n:
        raise ShapeMismatchError(f"weights has {len(weights)} entries, expected {problem.n}")
    spec = WeightedL1Spec(weights=tuple(float(w) for w in weights), radius=problem.radius)
    scaled_radius = grid_radius(problem.radius, problem.lipschitz, epsilon)
    step = epsilon / problem.lipschitz
    kept = [i for i, w in enumerate(spec.weights) if w * step <= problem.radius]
    # With every weight infinite min(weights) has no Fraction, and with
    # every coordinate pinned the walk is the origin alone at any radius.
    effective_radius = (
        floor_radius(Fraction(problem.radius) / (Fraction(min(spec.weights)) * Fraction(step)))
        if kept
        else 0
    )
    costs = [spec.weights[i] for i in kept]
    found = scan_ball(
        problem,
        effective_radius,
        epsilon,
        step=step,
        kept=kept,
        costs=costs,
        budget=problem.radius + 1e-12,
    )
    return _approx_from(found, scaled_radius, step)


def _approx_from(found, radius: int, step: float) -> ApproxSolution:
    """The :class:`ApproxSolution` of a grid walk's ``(best, calls, points)``."""
    best, calls, points = found
    if best is None:
        return ApproxSolution("no_feasible_grid_point", None, None, calls, points, radius, step)
    value, _, x = best
    return ApproxSolution("optimal", x, value, calls, points, radius, step)


def solve_mixed_integer(problem: MixedProblem, radius: Real, parallel: int = 1) -> MixedSolution:
    """Enumerate the integer block, decide a convex subproblem per point.

    Returns the pair minimizing the inner value among feasible
    subproblems, ties broken by the integer block's canonical ordinal;
    a NaN inner value is never eligible.  ``inner_calls`` counts the
    subproblems decided, one per integer point, so it equals
    ``points_enumerated``.  The solver of :func:`linear_mixed_inner_solver`,
    passed as it is, takes the block evaluator: its dual forms decide
    every point at once, and the inner solver itself runs once, at the
    winner (see :func:`_dual_forms`).  Any other inner solver runs at
    every point, and its solution at the winner is the result.  Inner
    solver exceptions propagate to the caller.  ``parallel`` is accepted
    for interface stability; the walk is serial.
    """
    _check_parallel(parallel)
    inner = problem.inner_solver

    def decide(x: tuple[int, ...]):
        solved = inner(x)
        return (solved.value if solved.status == "optimal" else None), solved

    forms = _dual_forms(problem, radius)
    best, calls, points = block_scan(problem.n_int, floor_radius(radius), forms, decide, inner)
    if best is None:
        return MixedSolution("infeasible", None, None, None, calls, points)
    solved, _, x = best
    return MixedSolution("optimal", x, tuple(solved.y), solved.value, calls, points)


def _dual_forms(problem: MixedProblem, radius: Real) -> Optional[tuple[Forms, Forms]]:
    """The dual forms ``(objective, rows)`` of the inner solver, or None
    when the per-point evaluator must run.

    These are the refusals that only a mixed solve has; the scan's
    :func:`l1opt.blocks.block_evaluator` holds the rest, forms of another
    dimension than the integer block among them, which the inner solver
    refuses with ``ShapeMismatchError``.  Only the closure of
    :func:`linear_mixed_inner_solver` carries the forms, so a wrapped or
    generic inner solver runs per point.  The forms are built
    only when the minor table and the ray subsets hold at most
    (m + 1)(p + 1) entries per point of the ball, and they are None
    when no vertex is found.  The per-point evaluator builds and pivots
    an (m + 1) x (p + 1) tableau at every point, and the block one pays
    about one tableau entry's work per subset: timed over synthetic jobs
    of 5 to 1,289 points, p from 0 to 4 and m from 2 to 22, the faster
    evaluator changes near that ratio.  The rule also keeps the table, which
    grows as C(m + 1, p), from being built for a small ball.
    """
    dual = getattr(problem.inner_solver, "dual_forms", None)
    if dual is None:
        return None
    tableau = (dual.m + 1) * (dual.p + 1)
    if dual.subsets > tableau * count_l1_lattice(problem.n_int, radius):
        return None
    return dual.forms


class _DualForms:
    """The inner LPs of :func:`linear_mixed_inner_solver` as forms in x.

    At the integer block x the inner LP is min c_cont.y subject to
    A_cont y <= r(x) with r(x) = b - A_int x, and only r depends on x.
    By LP duality its value, when it is feasible, is the largest -u.r(x)
    over the vertices u of D = {u >= 0 : A_cont'u = -c_cont}; by Farkas'
    lemma it is feasible exactly when v.r(x) >= 0 for every extreme ray
    v of {v >= 0 : A_cont'v = 0} (Schrijver, *Theory of Linear and
    Integer Programming*, 1986).  So the mixed objective is the largest
    of the forms (c_int + A_int'u).x - u.b, and feasibility is the rows
    (A_int'v).x - v.b <= 0, which the block evaluator sums exactly.

    It reads the rows of [A_int | A_cont | b] and c_int that the inner
    solver scaled to ints, each over its own denominator, and scales
    c_cont the same way.  One table holds the signed minors of
    [A_cont; c_cont] on its first columns, built by Laplace expansion.
    With p columns, the kernel v >= 0 of p + 1 of its rows is a ray
    without c_cont's row, and else, when v_c > 0, the vertex
    u = v_S / v_c on the other rows S (by homogenization).  The
    objective's forms share one denominator, so their largest value is
    exact; each row is scaled on its own.
    ``forms`` is None when no vertex exists: A_cont lacks full column
    rank, or D is empty, and then a feasible point has an unbounded
    inner LP.
    """

    def __init__(self, rows, c_ints, ci_scale, c_cont):
        self.n, self.m, self.p = len(c_ints), len(rows), len(c_cont)
        self.data = (rows, c_ints, ci_scale, c_cont)
        # Entries of the minor table, then the ray subsets.
        tables = sum(math.comb(self.m + 1, k) for k in range(1, self.p + 1))
        self.subsets = tables + math.comb(self.m, self.p + 1)

    @cached_property
    def forms(self) -> Optional[tuple[Forms, Forms]]:
        """``(objective, rows)`` over ints, or None without a vertex."""
        rows, c_ints, ci_scale, c_cont = self.data
        n, m, p = self.n, self.m, self.p
        cont, c_scale = _scaled(c_cont)
        matrix = [row[n : n + p] for row in rows] + [cont]
        # minors[S]: the determinant of rows S (sorted) and columns
        # 0..len(S)-1 of matrix, expanded along its last column.
        minors = {(): 1}
        for k in range(p):
            minors = {
                S: sum(
                    (-matrix[s][k] if (k - j) % 2 else matrix[s][k]) * minors[S[:j] + S[j + 1 :]]
                    for j, s in enumerate(S)
                )
                for S in combinations(range(m + 1), k + 1)
            }

        rows_xb = [row[:n] + row[-1:] for row in rows]

        def combine(weights, S):
            # sum(weights[k] * rows[S[k]]) over the integer block and b.
            picked = [rows_xb[s] for s in S] or [[0] * (n + 1)]
            return [sum(map(mul, weights, column)) for column in zip(*picked)]

        vertices, rays = [], {}
        for T in combinations(range(m + 1), p + 1):
            # v spans the kernel of rows T: sum(v[k] * matrix[T[k]]) = 0.
            v = [-minors[T[:k] + T[k + 1 :]] if k % 2 else minors[T[:k] + T[k + 1 :]] for k in range(p + 1)]
            if min(v) < 0 < max(v):
                continue
            if max(v) <= 0:
                v = [-e for e in v]
            if T[-1] == m:
                # u = v[:p] / v[p] on rows T[:p], and v[p] = |minors[T[:p]]|.
                if v[p]:
                    vertices.append((combine(v[:p], T[:p]), v[p]))
                continue
            w = combine(v, T)
            row = [*w[:n], -w[n]]
            if any(w[:n]) or row[n] > 0:  # else it holds at every point
                g = math.gcd(*row)
                rays[tuple(e // g for e in row)] = None
        if not vertices:
            return None
        # With w = delta * c_scale * u, the form over the common denominator
        # lcm * c_scale * ci_scale is lcm * c_scale * c_int + (lcm / delta)
        # * ci_scale * (A_int'w, -w.b).
        lcm = math.lcm(*[delta for _, delta in vertices])
        objective = []
        for w, delta in vertices:
            f = lcm // delta * ci_scale
            objective.append([lcm * c_scale * c + f * a for c, a in zip(c_ints, w)] + [-f * w[n]])
        g = math.gcd(*chain.from_iterable(objective)) or 1
        objective = dict.fromkeys(tuple(v // g for v in form) for form in objective)
        return (
            Forms(n, tuple((None, form[:n], form[n]) for form in objective)),
            Forms(n, tuple((None, row[:n], row[n]) for row in rays)),
        )


def linear_mixed_inner_solver(
    c_int: Sequence,
    c_cont: Sequence,
    A_int: Sequence[Sequence],
    A_cont: Sequence[Sequence],
    b: Sequence,
) -> Callable[[tuple[int, ...]], InnerSolution]:
    """LP-backed inner solver for jointly linear mixed problems.

    For a fixed integer block x the subproblem is
    min c_cont.y subject to A_cont y <= b - A_int x, and the reported
    value is the full objective c_int.x + c_cont.y.  An unbounded
    subproblem aborts the solve, since the mixed problem itself is then
    unbounded.  Infinite or NaN data raises ``ValueError``, and rows or
    an integer block whose lengths disagree with ``c_int`` and ``c_cont``
    raise ``ShapeMismatchError``.  The LP over y is built once; a point
    sets only its rhs.  The solver carries its dual data as
    ``dual_forms``, built on first use, which lets
    :func:`solve_mixed_integer` decide every point with the block
    evaluator.
    """
    where = "linear_mixed_inner_solver: "
    c_int = exact_rationals(c_int, where + "c_int")
    c_cont = exact_rationals(c_cont, where + "c_cont")
    A_int = [exact_rationals(row, f"{where}A_int[{i}]") for i, row in enumerate(A_int)]
    A_cont = [exact_rationals(row, f"{where}A_cont[{i}]") for i, row in enumerate(A_cont)]
    b = exact_rationals(b, where + "b")
    if not (len(A_int) == len(A_cont) == len(b)):
        raise ShapeMismatchError("A_int, A_cont, and b disagree on the number of constraints")
    n = len(c_int)
    for name, matrix, width in (("A_int", A_int, n), ("A_cont", A_cont, len(c_cont))):
        for i, row in enumerate(matrix):
            if len(row) != width:
                raise ShapeMismatchError(f"{name}[{i}] has {len(row)} entries, expected {width}")
    # Each row of [A_int | A_cont | b], and c_int, over its own common
    # denominator, so that b - A_int x and c_int.x cost integer sums; the
    # dual forms and the LP over the free y read the same rows.  Its rows
    # keep their scales, so phase 1 weighs each artificial as it would in
    # the LP over the rows as given.
    scaled = [_scaled(a + c + [beta]) for a, c, beta in zip(A_int, A_cont, b)]
    c_ints, c_scale = _scaled(c_int)
    rows = _leq_rows(where, [row[n:-1] for row, _ in scaled], [0] * len(b), len(c_cont))
    form = _LeqForm(rows.rows, rows.rhs, [scale for _, scale in scaled], rows.subs).priced(c_cont, False)

    def inner(x: tuple[int, ...]) -> InnerSolution:
        if len(x) != n:
            raise ShapeMismatchError(f"the integer block has {len(x)} entries, expected {n}")
        result = form.solve([row[-1] - sum(map(mul, row, x)) for row, _ in scaled])
        if result.status == INFEASIBLE:
            return InnerSolution("infeasible", None, None)
        if result.status != OPTIMAL:
            raise InnerSolverError("continuous subproblem is unbounded")
        fixed = Fraction(sum(ci * v for ci, v in zip(c_ints, x)), c_scale)
        return InnerSolution("optimal", result.x, fixed + result.value)

    inner.dual_forms = _DualForms([row for row, _ in scaled], c_ints, c_scale, c_cont)
    return inner


def linear_lipschitz_constant(c: Sequence, A: Sequence[Sequence]) -> float:
    """Shared sup-norm Lipschitz constant for c.x and the rows of A x - b.

    A linear form's modulus is the l1 norm of its coefficients; the
    shared constant is the largest one.
    """
    best = sum(abs(float(v)) for v in c)
    for row in A:
        best = max(best, sum(abs(float(v)) for v in row))
    return best


def quadratic_lipschitz_constant(
    Q: Sequence[Sequence],
    c: Sequence,
    rows: Sequence,
    radius: Real,
) -> float:
    """Safe shared constant for quadratic forms over the l1 ball.

    For h(x) = x'Mx + b.x the difference h(x) - h(y) telescopes through
    the bilinear form, giving |h(x) - h(y)| <= (radius * (max absolute
    row sum + max absolute column sum of M) + ||b||_1) * ||x - y||_inf
    on the ball.  This over-approximates the tightest constant; the
    slack only makes the grid finer than strictly needed.
    """
    lam = float(radius)

    def term(M, b) -> float:
        total = sum(abs(float(v)) for v in b)
        if M is not None:
            row_sums = [sum(abs(float(v)) for v in row) for row in M]
            col_sums = [
                sum(abs(float(M[i][j])) for i in range(len(M))) for j in range(len(M[0]))
            ]
            total += lam * (max(row_sums) + max(col_sums))
        return total

    best = term(Q, c)
    for row in rows:
        best = max(best, term(getattr(row, "A", None), row.b))
    return best

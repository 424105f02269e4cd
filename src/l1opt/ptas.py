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

Both approximation schemes take the block path of :mod:`l1opt.blocks`
when the problem's objective and constraints are built-in oracles
(``make_linear_oracle`` or ``make_quadratic_oracle``) over float data
and the step is a float: each block of integer points y becomes the
grid block ``step * y`` in float64, and the weighted budget becomes a
mask over the kept coordinates, summed in the scalar order.  Other
oracles, rational data and the mixed solver keep the scalar walk.  The
command line's ``ptas`` passes the built-in oracles of float files as
they are, and wraps those of rational files to return floats.

kappa is caller-supplied.  Supplying an underestimate voids the
guarantee; :func:`check_lipschitz` offers a sampling-based sanity check
that warns on observed violations but certifies nothing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Callable, Optional, Sequence

import numpy as np

from .counting import Real, floor_radius
from .errors import (
    GridTooLargeError,
    InnerSolverError,
    InvalidDimensionError,
    ShapeMismatchError,
)
from .lattice import LatticePoint, iter_l1_points
from .lp import INFEASIBLE, OPTIMAL, _scaled, exact_rationals, lp_solve
from .blocks import block_scan
from .solver import WeightedL1Spec, _check_parallel, _oracle_evaluator, _scan_points


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
    the continuous block.  The joint oracles are optional and only used
    for auditing.
    """

    n_int: int
    n_cont: int
    inner_solver: Callable[[tuple[int, ...]], InnerSolution]
    objective: Optional[Callable] = None
    constraints: Optional[Callable] = None


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
    evaluate = _oracle_evaluator(problem.evaluate, epsilon)

    def to_grid(y: tuple[int, ...]) -> tuple[float, ...]:
        return tuple(map(step.__mul__, y))

    best, calls, points = block_scan(problem, radius, epsilon, step=step) or _scan_points(
        iter_l1_points(problem.n, radius), evaluate, prepare=to_grid
    )
    if best is None:
        return ApproxSolution("no_feasible_grid_point", None, None, calls, points, radius, step)
    value, _, x = best
    return ApproxSolution("optimal", x, value, calls, points, radius, step)


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
    zero are pinned, the rest are enumerated at the effective radius,
    and each candidate is re-checked against the exact weighted budget.
    ``parallel`` is accepted for interface stability; the walk is serial.
    """
    _check_parallel(parallel)
    if len(weights) != problem.n:
        raise ShapeMismatchError(f"weights has {len(weights)} entries, expected {problem.n}")
    spec = WeightedL1Spec(weights=tuple(float(w) for w in weights), radius=problem.radius)
    scaled_radius = grid_radius(problem.radius, problem.lipschitz, epsilon)
    step = epsilon / problem.lipschitz
    kept = [i for i, w in enumerate(spec.weights) if w * step <= problem.radius]
    evaluate = _oracle_evaluator(problem.evaluate, epsilon)
    if kept:
        effective_radius = floor_radius(
            Fraction(problem.radius) / (Fraction(min(spec.weights)) * Fraction(step))
        )
        indices = range(len(kept))
        costs = [spec.weights[i] for i in kept]
        budget = problem.radius + 1e-12
        found = block_scan(
            problem, effective_radius, epsilon, step=step, kept=kept, costs=costs, budget=budget
        )

        def to_grid(y: tuple[int, ...]) -> Optional[tuple[float, ...]]:
            # Zero and pinned entries add nothing to the weighted norm, so
            # a sum over the support, in ascending kept order, matches the
            # sum over every kept coordinate bit for bit, and an infinite
            # pinned weight cannot turn it into NaN.
            x = [0.0] * problem.n
            norm = 0
            for j in compress(indices, y):
                x[kept[j]] = xi = step * y[j]
                norm += costs[j] * abs(xi)
            return None if norm > budget else tuple(x)

        best, calls, points = found or _scan_points(
            iter_l1_points(len(kept), effective_radius), evaluate, prepare=to_grid
        )
    else:
        origin = LatticePoint(x=(0.0,) * problem.n, l1=0, ordinal=0)
        best, calls, points = _scan_points([origin], evaluate)
    if best is None:
        return ApproxSolution(
            "no_feasible_grid_point", None, None, calls, points, scaled_radius, step
        )
    value, _, x = best
    return ApproxSolution("optimal", x, value, calls, points, scaled_radius, step)


def solve_mixed_integer(problem: MixedProblem, radius: Real, parallel: int = 1) -> MixedSolution:
    """Enumerate the integer block, solve a convex subproblem per point.

    Returns the pair minimizing the inner value among feasible
    subproblems, ties broken by the integer block's canonical ordinal;
    a NaN inner value is never eligible.  The inner solver runs once per
    integer point, so ``inner_calls`` equals ``points_enumerated``.
    Inner solver exceptions propagate to the caller.  ``parallel`` is
    accepted for interface stability; the walk is serial.
    """
    _check_parallel(parallel)

    def solve_inner(x: tuple[int, ...]):
        return x, problem.inner_solver(x)

    def inner_value(solved):
        inner = solved[1]
        return inner.value if inner.status == "optimal" else None

    walk = iter_l1_points(problem.n_int, radius)
    best, calls, points = _scan_points(walk, inner_value, prepare=solve_inner)
    if best is None:
        return MixedSolution("infeasible", None, None, None, calls, points)
    value, _, (x, inner) = best
    return MixedSolution("optimal", x, tuple(inner.y), value, calls, points)


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
    unbounded.  Infinite or NaN data raises ``ValueError``.
    """
    where = "linear_mixed_inner_solver: "
    c_int = exact_rationals(c_int, where + "c_int")
    c_cont = exact_rationals(c_cont, where + "c_cont")
    A_int = [exact_rationals(row, f"{where}A_int[{i}]") for i, row in enumerate(A_int)]
    A_cont = [exact_rationals(row, f"{where}A_cont[{i}]") for i, row in enumerate(A_cont)]
    b = exact_rationals(b, where + "b")
    if not (len(A_int) == len(A_cont) == len(b)):
        raise ShapeMismatchError("A_int, A_cont, and b disagree on the number of constraints")
    # Each row of [A_int | b] and c_int over its own common denominator,
    # so that b - A_int x and c_int.x cost integer sums and one Fraction.
    scaled_rows = []
    for row, beta in zip(A_int, b):
        ints, scale = _scaled(row + [beta])
        scaled_rows.append((ints[:-1], ints[-1], scale))
    c_ints, c_scale = _scaled(c_int)

    def inner(x: tuple[int, ...]) -> InnerSolution:
        rhs = [
            Fraction(beta - sum(a * v for a, v in zip(row, x)), scale)
            for row, beta, scale in scaled_rows
        ]
        result = lp_solve(c_cont, A_cont, rhs, sense="min")
        if result.status == INFEASIBLE:
            return InnerSolution("infeasible", None, None)
        if result.status != OPTIMAL:
            raise InnerSolverError("continuous subproblem is unbounded")
        fixed = Fraction(sum(ci * v for ci, v in zip(c_ints, x)), c_scale)
        return InnerSolution("optimal", result.x, fixed + result.value)

    return inner


def fine_grid_reference(
    problem: LipschitzProblem,
    step: float,
    max_points: int = 5_000_000,
) -> ApproxSolution:
    """Brute-force reference: minimize f over a fine grid, strict feasibility.

    Scans the step-grid restricted to the l1 ball and to g(x) <= 0.
    Because the scan is a subset of the continuous feasible set, its
    minimum is an upper bound on the true optimum, which is what the
    approximation guarantee is tested against.  Only for small
    dimensions; raises :class:`GridTooLargeError` past ``max_points``.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    # The relative guard keeps a boundary multiple like 10 * 0.1 in the
    # grid even when float(step) sits a hair above the intended value;
    # the exact ball re-check below rejects anything genuinely outside.
    per_coord = floor_radius(
        Fraction(problem.radius) / Fraction(step) * (1 + Fraction(1, 10**12))
    )
    estimated = (2 * per_coord + 1) ** problem.n
    if estimated > max_points:
        raise GridTooLargeError(
            f"fine grid holds about {estimated} points, over the {max_points} budget"
        )
    best = None
    calls = 0
    points = 0
    # Integer multiples k of the step with sum |k| <= per_coord stay in
    # the ball up to float noise; the exact ball test below settles it.
    for assignment in _budgeted_grid(problem.n, per_coord):
        x = tuple(step * k for k in assignment)
        if sum(abs(v) for v in x) > problem.radius + 1e-12:
            continue
        points += 1
        value, residuals = problem.evaluate(x)
        calls += 1
        if not all(g <= 0 for g in residuals):
            continue
        if value < best[0] if best is not None else value == value:
            best = (value, x)
    if best is None:
        return ApproxSolution("no_feasible_grid_point", None, None, calls, points, per_coord, step)
    value, x = best
    return ApproxSolution("optimal", x, value, calls, points, per_coord, step)


def _budgeted_grid(n: int, budget: int):
    """Integer vectors with sum of absolute entries at most the budget."""
    if n == 1:
        for k in range(-budget, budget + 1):
            yield (k,)
        return
    for k in range(-budget, budget + 1):
        for rest in _budgeted_grid(n - 1, budget - abs(k)):
            yield (k,) + rest


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


def check_lipschitz(
    problem: LipschitzProblem,
    samples: int = 200,
    seed: int = 0,
) -> float:
    """Sampling-based sanity check of the declared Lipschitz constant.

    Draws random pairs in the ball and returns the largest observed
    slope max(|f(x)-f(y)|, |g_i(x)-g_i(y)|) / ||x-y||_inf, warning when
    it exceeds the declared constant.  Passing proves nothing.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = _random_ball_point(rng, problem.n, problem.radius)
        y = _random_ball_point(rng, problem.n, problem.radius)
        gap = max(abs(a - b) for a, b in zip(x, y))
        if gap == 0:
            continue
        fx, gx = problem.evaluate(x)
        fy, gy = problem.evaluate(y)
        slope = abs(fx - fy) / gap
        for u, v in zip(gx, gy):
            slope = max(slope, abs(u - v) / gap)
        worst = max(worst, slope)
    if worst > problem.lipschitz * (1 + 1e-9):
        warnings.warn(
            f"observed Lipschitz slope {worst:.6g} exceeds the declared "
            f"constant {problem.lipschitz:.6g}; the additive guarantee is void",
            stacklevel=2,
        )
    return worst


def _random_ball_point(rng: np.random.Generator, n: int, radius: float) -> tuple[float, ...]:
    raw = rng.standard_normal(n)
    norm = np.abs(raw).sum()
    if norm == 0:
        return (0.0,) * n
    scale = radius * rng.random() / norm
    return tuple(float(v) for v in raw * scale)

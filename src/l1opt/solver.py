"""Exact solver for nonlinear integer programs over a scaled l1 ball.

The solver is deliberately free of pruning: it walks every integer
point of the ball in the canonical enumeration order, evaluates the
objective and all constraints jointly (one oracle step per point), and
keeps the first strict improvement.  Combined with the pinned order
this makes the returned optimum the one with the smallest canonical
ordinal.

Arithmetic is either exact rational (Fraction coefficients, zero
feasibility tolerance) or float (absolute per-constraint tolerance).
The built-in linear and quadratic oracles are the dense left-to-right
sums over the nonzero coefficients that ``tests/oracles.py`` keeps as
the reference.  The scalar path below calls them at every point, the
block path only for the winner's value.

Two paths run a walk, with the same results, ties and counts, and they
meet in one function, :func:`scan_ball`.  Every solver of a problem's
oracles calls it: :func:`solve_l1_ip` and :func:`solve_weighted_l1_ip`
here, and the approximation schemes of :mod:`l1opt.ptas`, which pass a
grid step.  The solvers only compute the ball's radius and, for a
weighted budget, the kept coordinates, their costs and the budget.

- The block path (:mod:`l1opt.blocks`) runs whenever the objective and
  the constraints are both built-in oracles (``make_linear_oracle``,
  ``make_quadratic_oracle``, and so every problem of
  :meth:`ProblemInstance.linear` and :meth:`ProblemInstance.quadratic`)
  over data of one kind, all float or all rational.  It walks the ball
  in support-indexed blocks of points (points x min(n, lambda) arrays
  of indices and values, not dense points x n rows, which would cost
  13 times the memory at n = 40, lambda = 3; :mod:`l1opt.blocks` gives
  the measured peak RSS of both) and evaluates every form of a block at
  once: float data, and rational data at grid points, in float64,
  summed as the oracles sum it; rational data at integer points over
  ints after clearing denominators, in int64 where
  max|Q| lambda^2 + max|a| lambda + |const| fits in int64 and over
  Python ints past it.  The winner's value is recomputed by the scalar
  objective.
- The scalar path, :func:`_scan_points` over :func:`iter_l1_points`,
  runs for every other case: generic callables, oracles replaced or
  wrapped (say by ``dataclasses.replace``), data that mixes float with
  rational values, rational data at grid points with a constraint row
  that has a matrix but no linear coefficient, and a ``stop_below`` or
  tolerance that is neither a float nor a rational.  Per point it
  applies the grid map ``step * y`` or the weighted embedding with its
  budget test, as the block path does per block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress
from typing import Callable, Optional, Sequence

from .blocks import Forms, block_scan
from .counting import Real, floor_radius
from .errors import InvalidDimensionError, InvalidWeightsError, ShapeMismatchError
from .lattice import LatticePoint, iter_l1_points

RATIONAL = "rational"
FLOAT = "float"

DEFAULT_FLOAT_TOLERANCE = 1e-9

Objective = Callable[[Sequence], object]
Constraints = Callable[[Sequence], Sequence]


@dataclass(frozen=True)
class QuadraticConstraint:
    """x'Ax + b'x + c <= 0; A may be None for a purely linear row."""

    A: Optional[tuple[tuple, ...]]
    b: tuple
    c: object


@dataclass(frozen=True)
class WeightedL1Spec:
    """Constraint sum_i weights_i * |x_i| <= radius with positive weights.

    A weight may be infinite, which pins its coordinate to zero; a NaN
    weight, and a radius that is negative, infinite or NaN, raise
    ``ValueError``.
    """

    weights: tuple
    radius: Real

    def __post_init__(self) -> None:
        for i, w in enumerate(self.weights):
            if not w > 0:
                raise InvalidWeightsError(f"weights[{i}] = {w} is not positive")
        if not 0 <= self.radius < math.inf:
            raise ValueError(f"radius must be finite and nonnegative, got {self.radius}")


@dataclass(frozen=True)
class SolveOptions:
    tolerance: Optional[float] = None  # float mode only; rational mode is exact
    # Accepted for interface stability; every solve is one serial walk.
    parallel: int = 1
    # Early exit at the lowest-ordinal feasible point whose value is at
    # or below this; the result and both counts are those of the walk up
    # to that point.
    stop_below: Optional[object] = None

    def __post_init__(self) -> None:
        if self.tolerance is not None and not math.isfinite(self.tolerance):
            raise ValueError(f"tolerance must be finite, got {self.tolerance}")
        _check_parallel(self.parallel)


@dataclass(frozen=True)
class Solution:
    status: str  # "optimal" | "infeasible"
    x: Optional[tuple]
    objective: Optional[object]
    oracle_calls: int
    points_enumerated: int


@dataclass(frozen=True)
class ProblemInstance:
    """Objective and constraint oracles plus the declared arithmetic mode.

    ``objective`` maps a point to a value; ``constraints`` maps a point
    to the vector of constraint values, feasible when every entry is at
    most the tolerance.  One solver oracle step evaluates both.
    """

    n: int
    objective: Objective
    constraints: Constraints
    arithmetic: str = RATIONAL

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidDimensionError("dimension must be >= 1")
        if self.arithmetic not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown arithmetic mode {self.arithmetic!r}")

    def evaluate(self, x: Sequence) -> tuple[object, tuple]:
        return self.objective(x), tuple(self.constraints(x))

    @classmethod
    def linear(cls, c, A, b, arithmetic: str = RATIONAL) -> "ProblemInstance":
        c, A, b = _convert_linear(c, A, b, arithmetic)
        objective, constraints = make_linear_oracle(c, A, b)
        return cls(
            n=len(c),
            objective=objective,
            constraints=constraints,
            arithmetic=arithmetic,
        )

    @classmethod
    def quadratic(
        cls,
        Q,
        c,
        constraints: Sequence[QuadraticConstraint],
        arithmetic: str = RATIONAL,
    ) -> "ProblemInstance":
        Q, c, rows = _convert_quadratic(Q, c, constraints, arithmetic)
        objective, constraint_fn = make_quadratic_oracle(Q, c, rows)
        return cls(
            n=len(c),
            objective=objective,
            constraints=constraint_fn,
            arithmetic=arithmetic,
        )


def make_linear_oracle(c: Sequence, A: Sequence[Sequence], b: Sequence):
    """Oracles for f(x) = c.x and g(x) = A x - b.

    Each call is the dense left-to-right sum over the nonzero
    coefficients, the reference sum of ``tests/oracles.py``.  Infinite or
    NaN float coefficients raise ``ValueError``.  The oracles carry their
    data as ``block_forms``, which lets the solvers evaluate whole blocks
    of points at once (see :mod:`l1opt.blocks`).
    """
    n = len(c)
    for row in A:
        if len(row) != n:
            raise ShapeMismatchError(f"constraint row has {len(row)} entries, expected {n}")
    if len(A) != len(b):
        raise ShapeMismatchError("A and b disagree on the number of constraints")
    for v in chain(c, b, *A):
        _finite(v)

    def objective(x: Sequence):
        return _dot(c, x)

    def constraints(x: Sequence):
        return tuple(_dot(row, x) - beta for row, beta in zip(A, b))

    objective.block_forms = Forms(n, ((None, c, 0),))
    constraints.block_forms = Forms(n, tuple((None, row, -beta) for row, beta in zip(A, b)))
    return objective, constraints


def make_quadratic_oracle(Q: Sequence[Sequence], c: Sequence, rows: Sequence[QuadraticConstraint]):
    """Oracles for f(x) = x'Qx + c.x and quadratic constraint rows.

    Each call is the dense left-to-right sums over the nonzero
    coefficients, as for :func:`make_linear_oracle`.  Infinite or NaN
    float coefficients raise ``ValueError``, and the oracles carry their
    data as ``block_forms``.
    """
    n = len(c)
    _check_square(Q, n, "Q")
    for k, row in enumerate(rows):
        if row.A is not None:
            _check_square(row.A, n, f"constraints[{k}].A")
        if len(row.b) != n:
            raise ShapeMismatchError(f"constraints[{k}].b has {len(row.b)} entries, expected {n}")
    for v in chain(c, *Q):
        _finite(v)
    for row in rows:
        for v in chain(row.b, (row.c,), *(row.A or ())):
            _finite(v)

    def objective(x: Sequence):
        return _quad_form(Q, x) + _dot(c, x)

    def constraints(x: Sequence):
        values = []
        for row in rows:
            value = _dot(row.b, x) + row.c
            if row.A is not None:
                value += _quad_form(row.A, x)
            values.append(value)
        return tuple(values)

    objective.block_forms = Forms(n, ((Q, c, 0),))
    constraints.block_forms = Forms(n, tuple((row.A, row.b, row.c) for row in rows))
    return objective, constraints


def solve_l1_ip(
    problem: ProblemInstance,
    radius: Real,
    options: Optional[SolveOptions] = None,
) -> Solution:
    """Global optimum of the problem over the radius-scaled l1 ball.

    Enumerates every integer point of the ball exactly once; among
    multiple optima the one with the smallest canonical ordinal wins.
    ``oracle_calls`` equals ``points_enumerated`` unless an early-stop
    threshold cut the run short.
    """
    opts = options or SolveOptions()
    tol = _feasibility_tolerance(problem, opts)
    return _solution_from(*scan_ball(problem, floor_radius(radius), tol, opts.stop_below))


def solve_weighted_l1_ip(
    problem: ProblemInstance,
    weighted: WeightedL1Spec,
    options: Optional[SolveOptions] = None,
) -> Solution:
    """Optimum under a weighted l1 constraint, by reduction to the plain ball.

    Coordinates whose weight exceeds the radius are pinned to zero; the
    rest are enumerated inside a ball of effective radius
    radius / min(weights) and re-checked against the exact weighted
    constraint before the oracle is consulted.  The minimum is taken
    over all weights, not just the surviving ones, trading a slightly
    larger enumeration for a direct match with the reduction as stated.
    ``points_enumerated`` counts enumerated candidates; ``oracle_calls``
    counts the candidates that passed the weighted re-check.
    """
    if len(weighted.weights) != problem.n:
        raise ShapeMismatchError(
            f"weights has {len(weighted.weights)} entries, expected {problem.n}"
        )
    opts = options or SolveOptions()
    tol = _feasibility_tolerance(problem, opts)
    exact = problem.arithmetic == RATIONAL
    conv = Fraction if exact else float
    # An infinite weight has no Fraction; it pins its coordinate as is.
    weights = tuple(w if w == math.inf else conv(w) for w in weighted.weights)
    radius = conv(weighted.radius)

    kept = [i for i, w in enumerate(weights) if w <= radius]
    rho = floor_radius(radius / min(weights))
    if exact:
        # Clear denominators once: the budget test runs on Python ints.
        unit = math.lcm(radius.denominator, *(weights[i].denominator for i in kept))
        costs = [int(weights[i] * unit) for i in kept]
        budget = int(radius * unit)
    else:
        costs = [weights[i] for i in kept]
        budget = radius + _float_tolerance(opts)
    found = scan_ball(problem, rho, tol, opts.stop_below, kept=kept, costs=costs, budget=budget)
    return _solution_from(*found)


def scan_ball(problem, rho, tolerance, stop=None, step=None, kept=None, costs=None, budget=None):
    """Best feasible ``(value, ordinal, x)`` over one walk of the rho-ball,
    with its counts: ``(best, calls, points)``.

    The one walk of :func:`solve_l1_ip`, :func:`solve_weighted_l1_ip`
    and both approximation schemes, with the arguments of
    :func:`l1opt.blocks.block_scan`: with ``kept`` the ball spans only
    those coordinates and each point must pass the weighted budget
    ``sum(costs[j] * |x_j|) <= budget`` before its oracle call; with a
    ``step`` the point evaluated is ``step * y``.  The block path runs
    when it accepts the problem; else :func:`_scan_points` walks
    :func:`iter_l1_points` with the same embedding, budget and grid map
    per point.  An empty ``kept`` pins every coordinate, so the walk is
    the origin alone.
    """
    n = problem.n
    if kept is None or kept:
        found = block_scan(problem, rho, tolerance, stop, step, kept, costs, budget)
        if found is not None:
            return found
    if kept is None:
        walk = iter_l1_points(n, rho)
        prepare = None if step is None else (lambda y: tuple(map(step.__mul__, y)))
    else:
        walk = iter_l1_points(len(kept), rho) if kept else [LatticePoint(x=(), l1=0, ordinal=0)]
        indices = range(len(kept))
        zero = 0 if step is None else 0.0

        def prepare(y: Sequence[int]) -> Optional[tuple]:
            # Zero and pinned entries add nothing to the weighted norm, so
            # a sum over the support, in ascending kept order, matches the
            # sum over every kept coordinate bit for bit, and an infinite
            # pinned weight cannot turn it into NaN.
            x = [zero] * n
            norm = 0
            for j in compress(indices, y):
                x[kept[j]] = v = y[j] if step is None else step * y[j]
                norm += costs[j] * abs(v)
            return None if norm > budget else tuple(x)

    evaluate = _oracle_evaluator(problem.evaluate, tolerance)
    return _scan_points(walk, evaluate, prepare=prepare, stop=stop)


def _scan_points(points, evaluate, prepare=None, stop=None):
    """Best feasible ``(value, ordinal, x)`` over a walk, with its counts.

    ``prepare`` maps a walked point to the point to evaluate, or to None
    to skip it without an oracle step; ``evaluate`` returns the value of
    a feasible point and None for an infeasible one.  Only a strict
    improvement replaces the incumbent, so among equal values the
    smallest ordinal wins.  A NaN value is never eligible: it compares
    false with everything, so only the first candidate needs the test.
    With a ``stop`` threshold the scan ends at the first incumbent at or
    below it, which in canonical order is the lowest-ordinal feasible
    point at or below the threshold.  Returns ``(best, calls, points)``.
    """
    best = None
    calls = 0
    walked = 0
    for point in points:
        walked += 1
        x = point.x if prepare is None else prepare(point.x)
        if x is None:
            continue
        calls += 1
        value = evaluate(x)
        if value is None:
            continue
        if value < best[0] if best is not None else value == value:
            best = (value, point.ordinal, x)
            if stop is not None and value <= stop:
                break
    return best, calls, walked


def _oracle_evaluator(evaluate, tolerance):
    """Per-point evaluator over joint oracles: the value when every
    constraint is at most ``tolerance``, else None."""

    def feasible_value(x):
        value, residuals = evaluate(x)
        return value if all(g <= tolerance for g in residuals) else None

    return feasible_value


def _check_parallel(parallel: int) -> None:
    """``ValueError`` unless ``parallel`` is a positive worker count."""
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")


def _solution_from(best, calls: int, points: int) -> Solution:
    if best is None:
        return Solution("infeasible", None, None, calls, points)
    value, _, x = best
    return Solution("optimal", tuple(x), value, calls, points)


def _feasibility_tolerance(problem: ProblemInstance, opts: SolveOptions):
    if problem.arithmetic == RATIONAL:
        return 0
    return _float_tolerance(opts)


def _float_tolerance(opts: SolveOptions) -> float:
    return DEFAULT_FLOAT_TOLERANCE if opts.tolerance is None else float(opts.tolerance)


def _dot(a: Sequence, x: Sequence):
    """a.x as the dense left-to-right sum over the nonzero coefficients."""
    total = 0
    for ai, xi in zip(a, x):
        if ai:
            total += ai * xi
    return total


def _quad_form(M: Sequence[Sequence], x: Sequence):
    """x'Mx as the dense sum of x_i * (M_i . x) over the nonzero x_i."""
    total = 0
    for row, xi in zip(M, x):
        if xi:
            total += xi * _dot(row, x)
    return total


def _finite(v):
    """``v`` itself; ``ValueError`` when it is an infinite or NaN float.

    An infinite coefficient times a zero coordinate is NaN in a dense sum
    but skipped by a block sum, so such data is refused.
    """
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"coefficient {v} is not finite")
    return v


def _check_square(M: Sequence[Sequence], n: int, name: str) -> None:
    if len(M) != n or any(len(row) != n for row in M):
        raise ShapeMismatchError(f"{name} must be {n}x{n}")


def _converter(arithmetic: str):
    conv = Fraction if arithmetic == RATIONAL else float

    def convert(v):
        return conv(_finite(v))

    return convert


def _convert_linear(c, A, b, arithmetic: str):
    conv = _converter(arithmetic)
    return (
        tuple(conv(v) for v in c),
        tuple(tuple(conv(v) for v in row) for row in A),
        tuple(conv(v) for v in b),
    )


def _convert_quadratic(Q, c, constraints, arithmetic: str):
    conv = _converter(arithmetic)
    rows = tuple(
        QuadraticConstraint(
            A=None if row.A is None else tuple(tuple(conv(v) for v in r) for r in row.A),
            b=tuple(conv(v) for v in row.b),
            c=conv(row.c),
        )
        for row in constraints
    )
    return (
        tuple(tuple(conv(v) for v in row) for row in Q),
        tuple(conv(v) for v in c),
        rows,
    )

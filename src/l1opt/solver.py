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
the reference.  One builder makes both: a linear problem is a quadratic
one with no matrices, each row a.x <= beta kept as
``QuadraticConstraint(None, a, -beta)``.

Every solver of a problem's oracles walks the ball through one
function, :func:`scan_ball`: :func:`solve_l1_ip` and
:func:`solve_weighted_l1_ip` here, and the approximation schemes of
:mod:`l1opt.ptas`, which pass a grid step.  The solvers only compute
the ball's radius and, for a weighted budget, the kept coordinates,
their costs and the budget.  :func:`scan_ball` only works out the
oracles' forms and the per-point rule over
:meth:`ProblemInstance.evaluate`; the one scan loop,
:func:`l1opt.blocks.block_scan`, picks one of two evaluators, with the
same results, ties and counts:

- The block evaluator (:mod:`l1opt.blocks`) runs whenever the objective
  and the constraints are both built-in oracles (those of every problem
  of :meth:`ProblemInstance.linear` and :meth:`ProblemInstance.quadratic`)
  over data of one kind, all float or all rational.  It evaluates every
  form at a whole block of points at once: float data, and rational
  data at grid points, in float64, summed as the oracles sum it;
  rational data at integer points over ints after clearing
  denominators, in int64 where max|Q| lambda^2 + max|a| lambda + |const|
  fits in int64 and over Python ints past it.  The winner's value comes
  from its block value (``blocks._oracle_value``), in the type the
  scalar objective returns; the scalar objective runs at the winner only
  for data built as given that mixes int with ``Fraction``.
- The per-point evaluator calls :meth:`ProblemInstance.evaluate` once
  per point wherever :func:`l1opt.blocks.block_evaluator` refuses the
  walk; :mod:`l1opt.blocks` lists every refusal.  Generic callables, oracles
  replaced or wrapped (say by ``dataclasses.replace``) and data that
  mixes float with rational values are among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Optional, Sequence

from .blocks import Forms, block_scan
from .counting import Real, floor_radius
from .errors import InvalidDimensionError, InvalidWeightsError, ShapeMismatchError

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
        """min c.x subject to A x <= b: the quadratic problem with no matrices."""
        return cls._with_rows(None, c, (), A, b, arithmetic)

    @classmethod
    def quadratic(
        cls,
        Q,
        c,
        constraints: Sequence[QuadraticConstraint],
        arithmetic: str = RATIONAL,
    ) -> "ProblemInstance":
        return cls._with_rows(Q, c, constraints, (), (), arithmetic)

    @classmethod
    def _with_rows(cls, Q, c, constraints, A, b, arithmetic: str) -> "ProblemInstance":
        """x'Qx + c.x, or c.x when Q is None, subject to the quadratic
        ``constraints`` and then to A x <= b, in the arithmetic's type.

        Each row of A is built once, as ``QuadraticConstraint(None, a,
        -beta)``; beta is negated after its conversion.  Strings such as
        ``"1/2"`` are read as Fractions in both modes, and a float-mode
        value past the float range raises ``ValueError``.
        """
        if len(A) != len(b):
            raise ShapeMismatchError("A and b disagree on the number of constraints")

        def conv(v):
            value = Fraction(v) if isinstance(v, str) else _finite(v)
            if arithmetic == RATIONAL:
                return Fraction(value)
            try:
                return float(value)
            except OverflowError:
                raise ValueError(f"coefficient {v!r} is past the float range") from None

        def matrix(M):
            return None if M is None else tuple(tuple(map(conv, row)) for row in M)

        rows = tuple(
            QuadraticConstraint(matrix(row.A), tuple(map(conv, row.b)), conv(row.c))
            for row in constraints
        )
        rows += tuple(
            QuadraticConstraint(None, tuple(map(conv, a)), -conv(beta)) for a, beta in zip(A, b)
        )
        c = tuple(map(conv, c))
        objective, constraint_fn = _oracles(matrix(Q), c, rows)
        return cls(n=len(c), objective=objective, constraints=constraint_fn, arithmetic=arithmetic)


def _oracles(Q, c: Sequence, rows: Sequence[QuadraticConstraint]):
    """The built-in oracles of x'Qx + c.x, or of c.x when Q is None, and
    of the rows x'Ax + b.x + c <= 0.

    Each call is the dense left-to-right sums over the nonzero
    coefficients, the reference sums of ``tests/oracles.py``.  Infinite
    or NaN float coefficients raise ``ValueError``.  The oracles carry
    their data as ``block_forms``, which lets the solvers evaluate whole
    blocks of points at once (see :mod:`l1opt.blocks`).
    """
    n = len(c)
    if Q is not None:
        _check_square(Q, n, "Q")
    for k, row in enumerate(rows):
        if row.A is not None:
            _check_square(row.A, n, f"constraints[{k}].A")
        if len(row.b) != n:
            raise ShapeMismatchError(f"constraints[{k}].b has {len(row.b)} entries, expected {n}")
    for v in chain(c, *(Q or ())):
        _finite(v)
    for row in rows:
        for v in chain(row.b, (row.c,), *(row.A or ())):
            _finite(v)
    forms = tuple((row.A, row.b, row.c) for row in rows)

    if Q is None:

        def objective(x: Sequence):
            return _dot(c, x)

    else:

        def objective(x: Sequence):
            return _quad_form(Q, x) + _dot(c, x)

    def constraints(x: Sequence):
        return tuple(
            _dot(b, x) + const if A is None else _dot(b, x) + const + _quad_form(A, x)
            for A, b, const in forms
        )

    objective.block_forms = Forms(n, ((Q, c, 0),))
    constraints.block_forms = Forms(n, forms)
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
    tol = 0 if problem.arithmetic == RATIONAL else _float_tolerance(opts)
    return _solution_from(*scan_ball(problem, floor_radius(radius), tol, opts.stop_below))


def solve_weighted_l1_ip(
    problem: ProblemInstance,
    weighted: WeightedL1Spec,
    options: Optional[SolveOptions] = None,
) -> Solution:
    """Optimum under a weighted l1 constraint, by reduction to the plain ball.

    Coordinates whose weight exceeds the radius are pinned to zero; the
    rest span a ball of effective radius radius / min(weights), whose
    walk visits only the points within the weighted constraint, with the
    tolerance added to the radius in float mode and the weights as they
    are (Fractions in rational mode).  The walk skips each run of points
    over it, summing the weighted norm as the per-point sum does (see
    :func:`l1opt.blocks.block_scan`), so the oracle is consulted at the
    points within it alone.  The minimum is taken over all weights, not
    just the surviving ones, for a direct match with the reduction as
    stated.  ``points_enumerated`` counts
    the points of that ball, up to the first point at or below
    ``stop_below`` when one stops the walk; ``oracle_calls`` counts those
    within the weighted constraint.
    """
    if len(weighted.weights) != problem.n:
        raise ShapeMismatchError(
            f"weights has {len(weighted.weights)} entries, expected {problem.n}"
        )
    opts = options or SolveOptions()
    exact = problem.arithmetic == RATIONAL
    tol = 0 if exact else _float_tolerance(opts)
    conv = Fraction if exact else float
    # An infinite weight has no Fraction; it pins its coordinate as is.
    weights = tuple(w if w == math.inf else conv(w) for w in weighted.weights)
    radius = conv(weighted.radius)

    kept = [i for i, w in enumerate(weights) if w <= radius]
    rho = floor_radius(radius / min(weights))
    costs = [weights[i] for i in kept]
    budget = radius + tol
    found = scan_ball(problem, rho, tol, opts.stop_below, kept=kept, costs=costs, budget=budget)
    return _solution_from(*found)


def scan_ball(problem, rho, tolerance, stop=None, step=None, kept=None, costs=None, budget=None):
    """Best feasible ``(value, ordinal, x)`` over one walk of the rho-ball,
    with its counts: ``(best, calls, points)``.

    The walk of :func:`solve_l1_ip`, :func:`solve_weighted_l1_ip` and
    both approximation schemes: :func:`l1opt.blocks.block_scan`, with
    its ``step``, ``kept``, ``costs`` and ``budget``, over the oracles'
    forms, and per point over :meth:`ProblemInstance.evaluate`, which
    takes a point as feasible when every constraint is at most
    ``tolerance``.
    """
    forms = tuple(getattr(f, "block_forms", None) for f in (problem.objective, problem.constraints))

    def decide(x):
        value, residuals = problem.evaluate(x)
        return (value if all(g <= tolerance for g in residuals) else None), value

    walk = (tolerance, stop, step, kept, costs, budget)
    return block_scan(problem.n, rho, forms, decide, problem.objective, *walk)


def _check_parallel(parallel: int) -> None:
    """``ValueError`` unless ``parallel`` is a positive worker count."""
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")


def _solution_from(best, calls: int, points: int) -> Solution:
    if best is None:
        return Solution("infeasible", None, None, calls, points)
    value, _, x = best
    return Solution("optimal", tuple(x), value, calls, points)


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

"""Exact solver for nonlinear integer programs over a scaled l1 ball.

The solver is deliberately free of pruning: it walks every integer
point of the ball in the canonical enumeration order, evaluates the
objective and all constraints jointly (one oracle step per point), and
keeps the first strict improvement.  Combined with the pinned order
this makes the returned optimum the one with the smallest canonical
ordinal.

Arithmetic is either exact rational (Fraction coefficients, zero
feasibility tolerance) or float (absolute per-constraint tolerance).
The built-in linear and quadratic oracles sum only over the nonzero
coordinates of a point, of which a ball of radius lambda allows at most
floor(lambda): a step costs O(support) for a linear form and
O(support^2) for a quadratic one, not O(n) or O(n^2).  Their values,
floats included, are bit for bit those of the dense left-to-right sums
that ``tests/oracles.py`` keeps as the reference.  Rational problems
built by :meth:`ProblemInstance.linear` or
:meth:`ProblemInstance.quadratic` that still hold their built-in oracles
are evaluated by an exact integer kernel instead: denominators are
cleared once per solve, and decisions and counts are the same as on the
per-point oracle path.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, product
from typing import Callable, Iterable, Optional, Sequence

from .counting import Real, floor_radius
from .errors import InvalidDimensionError, InvalidWeightsError, ShapeMismatchError
from .lattice import LatticePoint, canonical_ordinal, iter_l1_points

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
class LinearPayload:
    c: tuple
    A: tuple[tuple, ...]
    b: tuple
    # (objective, constraints) built from this data by the constructor;
    # the exact kernel runs only while the instance still holds them.
    oracles: Optional[tuple] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class QuadraticPayload:
    Q: tuple[tuple, ...]
    c: tuple
    constraints: tuple[QuadraticConstraint, ...]
    oracles: Optional[tuple] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class WeightedL1Spec:
    """Constraint sum_i weights_i * |x_i| <= radius with positive weights."""

    weights: tuple
    radius: Real

    def __post_init__(self) -> None:
        for i, w in enumerate(self.weights):
            if w <= 0:
                raise InvalidWeightsError(f"weights[{i}] = {w} is not positive")


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
    payload: object = None

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
            payload=LinearPayload(c=c, A=A, b=b, oracles=(objective, constraints)),
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
            payload=QuadraticPayload(
                Q=Q, c=c, constraints=rows, oracles=(objective, constraint_fn)
            ),
        )


def make_linear_oracle(c: Sequence, A: Sequence[Sequence], b: Sequence):
    """Oracles for f(x) = c.x and g(x) = A x - b.

    Each call sums over the nonzero coordinates of x only, with the
    result of the dense left-to-right sum (see :func:`_sparse_dot`);
    data that mixes numeric types gets the dense sum itself.  Infinite or
    NaN float coefficients raise ``ValueError``.
    """
    n = len(c)
    for row in A:
        if len(row) != n:
            raise ShapeMismatchError(f"constraint row has {len(row)} entries, expected {n}")
    if len(A) != len(b):
        raise ShapeMismatchError("A and b disagree on the number of constraints")
    for v in chain(c, b, *A):
        _finite(v)
    indices = range(n)
    c_form = _sparse_form(c)
    row_forms = [(_sparse_form(row), beta) for row, beta in zip(A, b)]
    dot = _dense_dot if any(map(_mixes_types, chain((c,), A))) else _sparse_dot

    def objective(x: Sequence):
        return dot(c_form, x, compress(indices, x))

    def constraints(x: Sequence):
        support = list(compress(indices, x))
        return tuple(dot(form, x, support) - beta for form, beta in row_forms)

    return objective, constraints


def make_quadratic_oracle(Q: Sequence[Sequence], c: Sequence, rows: Sequence[QuadraticConstraint]):
    """Oracles for f(x) = x'Qx + c.x and quadratic constraint rows.

    Each call sums over the nonzero coordinates of x only, with the
    result of the dense left-to-right sums; data that mixes numeric types
    gets the dense sums themselves.  Infinite or NaN float coefficients
    raise ``ValueError``.
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
    indices = range(n)
    q_forms = _sparse_matrix(Q)
    c_form = _sparse_form(c)
    row_forms = [
        (None if row.A is None else _sparse_matrix(row.A), _sparse_form(row.b), row.c)
        for row in rows
    ]
    forms = chain(Q, (c,), *((row.b, *(row.A or ())) for row in rows))
    dot = _dense_dot if any(map(_mixes_types, forms)) else _sparse_dot

    def objective(x: Sequence):
        support = list(compress(indices, x))
        return _sparse_quad_form(q_forms, x, support, dot) + dot(c_form, x, support)

    def constraints(x: Sequence):
        support = list(compress(indices, x))
        values = []
        for matrix, form, constant in row_forms:
            value = dot(form, x, support) + constant
            if matrix is not None:
                value += _sparse_quad_form(matrix, x, support, dot)
            values.append(value)
        return tuple(values)

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
    evaluate, scale, stop = _point_evaluator(problem, opts)
    walk = iter_l1_points(problem.n, radius)
    return _solution_from(*_scan_points(walk, evaluate, stop=stop), scale)


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
    evaluate, scale, stop = _point_evaluator(problem, opts)
    n = problem.n
    exact = problem.arithmetic == RATIONAL
    conv = Fraction if exact else float
    weights = tuple(conv(w) for w in weighted.weights)
    radius = conv(weighted.radius)

    kept = [i for i, w in enumerate(weights) if w <= radius]
    if not kept:
        origin = LatticePoint(x=(0,) * n, l1=0, ordinal=0)
        return _solution_from(*_scan_points([origin], evaluate), scale)

    effective_radius = radius / min(weights)
    indices = range(len(kept))
    if exact:
        # Clear denominators once: the budget test runs on Python ints.
        unit = math.lcm(radius.denominator, *(w.denominator for w in weights))
        costs = [int(weights[i] * unit) for i in kept]
        budget = int(radius * unit)
    else:
        costs = [weights[i] for i in kept]
        budget = radius + _float_tolerance(opts)

    def embed_within_budget(y: Sequence[int]) -> Optional[tuple]:
        # Zero and pinned entries add nothing to the weighted norm, so a
        # sum over the support matches the full float sum bit for bit,
        # and an infinite pinned weight cannot turn it into NaN.
        x = [0] * n
        norm = 0
        for j in compress(indices, y):
            x[kept[j]] = v = y[j]
            norm += costs[j] * abs(v)
        return None if norm > budget else tuple(x)

    walk = iter_l1_points(len(kept), effective_radius)
    return _solution_from(
        *_scan_points(walk, evaluate, prepare=embed_within_budget, stop=stop), scale
    )


def brute_force_box_solve(
    problem: ProblemInstance,
    box: Sequence[tuple[int, int]],
    extra_l1: Optional[Real] = None,
    options: Optional[SolveOptions] = None,
) -> Solution:
    """Independent cross-validation solver scanning an integer box.

    Applies the same feasibility rule as the ball solver.  Ties break to
    the smallest canonical ordinal when ``extra_l1`` restricts the scan
    to a ball, and to the lexicographically smallest optimum otherwise.
    """
    if len(box) != problem.n:
        raise ShapeMismatchError(f"box has {len(box)} ranges, expected {problem.n}")
    opts = options or SolveOptions()
    tol = _feasibility_tolerance(problem, opts)
    rho = None if extra_l1 is None else floor_radius(extra_l1)
    best = None
    calls = 0
    points = 0
    for x in product(*(range(lo, hi + 1) for lo, hi in box)):
        if rho is not None and sum(abs(v) for v in x) > rho:
            continue
        points += 1
        value, residuals = problem.evaluate(x)
        calls += 1
        if not all(g <= tol for g in residuals):
            continue
        key = (value, canonical_ordinal(x, rho)) if rho is not None else (value,)
        # Scan order over the box is lexicographic, so a strict compare
        # on the value alone already keeps the lexicographic minimum.
        if best is None or key < best[0]:
            best = (key, x)
    if best is None:
        return Solution("infeasible", None, None, calls, points)
    return Solution("optimal", best[1], best[0][0], calls, points)


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


def _solution_from(best, calls: int, points: int, scale: Optional[int] = None) -> Solution:
    if best is None:
        return Solution("infeasible", None, None, calls, points)
    value, _, x = best
    if scale is not None:
        value = Fraction(value, scale)
    return Solution("optimal", tuple(x), value, calls, points)


def _point_evaluator(problem: ProblemInstance, opts: SolveOptions):
    """``(evaluate, scale, stop)`` for a solve.

    The exact kernel runs when the problem still holds its built-in
    rational oracles and ``stop_below`` is absent, a rational or a
    finite float, so that it converts to a Fraction exactly; its values
    are the objective times ``scale``, and ``stop`` is the threshold in
    the same units.  Otherwise the oracles run per point,
    ``scale`` is None and ``stop`` is ``stop_below`` itself.
    """
    threshold = opts.stop_below
    exact_threshold = (
        threshold is None
        or isinstance(threshold, numbers.Rational)
        or (isinstance(threshold, float) and math.isfinite(threshold))
    )
    kernel = _exact_kernel(problem) if exact_threshold else None
    if kernel is None:
        tol = _feasibility_tolerance(problem, opts)
        return _oracle_evaluator(problem.evaluate, tol), None, threshold
    evaluate, scale = kernel
    stop = None if threshold is None else math.floor(Fraction(threshold) * scale)
    return evaluate, scale, stop


def _exact_kernel(problem: ProblemInstance):
    """Integer evaluator for a rational problem with its built-in oracles.

    The objective is scaled by the lcm of its denominators and each
    constraint row, constant included, by its own.  Returns
    ``(evaluate, scale)``: ``evaluate(x)`` is ``scale * f(x)`` as an int
    when every scaled row is at most 0, else None.  Returns None when
    the per-point oracle path must run instead: float mode, custom or
    replaced oracles, or coefficients that are not rationals.
    """
    payload = problem.payload
    if (
        problem.arithmetic != RATIONAL
        or not isinstance(payload, (LinearPayload, QuadraticPayload))
        or payload.oracles is None
        or payload.oracles[0] is not problem.objective
        or payload.oracles[1] is not problem.constraints
        or len(payload.c) != problem.n
    ):
        return None
    if isinstance(payload, LinearPayload):
        objective = (None, payload.c, 0)
        rows = [(None, a, -beta) for a, beta in zip(payload.A, payload.b)]
    else:
        objective = (payload.Q, payload.c, 0)
        rows = [(row.A, row.b, row.c) for row in payload.constraints]
    forms = [_integer_form(*form) for form in [objective, *rows]]
    if None in forms:
        return None
    objective, scale = forms[0]
    rows = [form for form, _ in forms[1:]]

    def evaluate(x):
        support = [(i, v) for i, v in enumerate(x) if v]
        for row in rows:
            if _form_value(row, support) > 0:
                return None
        return _form_value(objective, support)

    return evaluate, scale


def _integer_form(M, b, c):
    """``((M, b, c), scale)`` scaled to ints by the lcm of all denominators,
    or None when an entry is not a rational."""
    entries = [c, *b, *(v for row in M or () for v in row)]
    if not all(isinstance(v, (int, Fraction)) for v in entries):
        return None
    scale = math.lcm(*(Fraction(v).denominator for v in entries))

    def ints(values):
        return tuple(int(v * scale) for v in values)

    matrix = None if M is None else tuple(ints(row) for row in M)
    return (matrix, ints(b), int(c * scale)), scale


def _form_value(form, support):
    """x'Mx + b.x + c summed over the nonzero coordinates of x only."""
    M, b, total = form
    for i, v in support:
        coeff = b[i]
        if M is not None:
            row = M[i]
            for j, w in support:
                coeff += row[j] * w
        total += coeff * v
    return total


def _feasibility_tolerance(problem: ProblemInstance, opts: SolveOptions):
    if problem.arithmetic == RATIONAL:
        return 0
    return _float_tolerance(opts)


def _float_tolerance(opts: SolveOptions) -> float:
    return DEFAULT_FLOAT_TOLERANCE if opts.tolerance is None else float(opts.tolerance)


def _sparse_form(a: Sequence):
    """``(a, first)``: a coefficient row and the index of its first nonzero
    entry, or None when every entry is zero."""
    return a, next((i for i, ai in enumerate(a) if ai), None)


def _sparse_matrix(M: Sequence[Sequence]):
    return tuple(_sparse_form(row) for row in M)


def _sparse_dot(form, x: Sequence, support: Iterable[int]):
    """a.x summed over ``support``, the ascending nonzero indices of x.

    The result is bit for bit that of the dense sum ``total = 0`` plus
    ``a_i * x_i`` for each nonzero ``a_i`` from left to right.  That sum
    is int 0 when every coefficient is zero.  Otherwise its first term
    fixes the result's type and turns a signed zero product into +0.0,
    so that term is added even where x is zero.  Every later term the
    support skips is a zero of the same type, which leaves a total that
    is never -0.0 unchanged.  This holds for coefficients of one numeric
    type evaluated at points of one numeric type.
    """
    a, first = form
    if first is None:
        return 0
    x_first = x[first]
    total = 0 if x_first else 0 + a[first] * x_first
    for i in support:
        ai = a[i]
        if ai:
            total += ai * x[i]
    return total


def _mixes_types(a: Sequence) -> bool:
    """Whether the nonzero entries of ``a`` are of more than one numeric type."""
    return len({type(ai) for ai in a if ai}) > 1


def _dense_dot(form, x: Sequence, support: Iterable[int]):
    """a.x as the dense sum itself, over every nonzero coefficient.

    For data whose coefficients mix types (int, float, Fraction): there a
    zero term the support skips can still change the total's type, as
    ``0.5 * 0`` turns an int total into a float.  ``support`` is unused.
    """
    total = 0
    for ai, xi in zip(form[0], x):
        if ai:
            total += ai * xi
    return total


def _sparse_quad_form(matrix, x: Sequence, support: Sequence[int], dot=_sparse_dot):
    """x'Mx over the support, as the dense sum of x_i * (M_i . x) over nonzero x_i."""
    total = 0
    for i in support:
        total += x[i] * dot(matrix[i], x, support)
    return total


def _finite(v):
    """``v`` itself; ``ValueError`` when it is an infinite or NaN float.

    An infinite coefficient times a zero coordinate is NaN in a dense sum
    but skipped by a sparse one, so such data is refused.
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

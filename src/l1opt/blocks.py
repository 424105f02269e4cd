"""Block evaluation of the built-in linear and quadratic forms.

The solvers walk the ball a block of points at a time
(:func:`l1opt.lattice.point_blocks`) whenever both oracles of a problem
are the built-in ones of :func:`l1opt.solver.make_linear_oracle` or
:func:`l1opt.solver.make_quadratic_oracle`.  Those oracles carry their
data as a :class:`Forms` (attribute ``block_forms``), so the data is
found through the oracles themselves.  One evaluator serves every
arithmetic: each form is summed column by column over the support, from
left to right and starting from zero.

- Float data is summed in float64.  These are the scalar oracles'
  operations in the scalar oracles' order, so every value is theirs bit
  for bit.
- Rational data (int and Fraction) is scaled to ints by the lcm of the
  denominators of each form.  The objective's sums run in int64 when
  max|M| rho^2 + max|a| rho + |const| fits in int64 for every form,
  which bounds every partial sum, and else over Python ints (numpy
  arrays of dtype object), which are exact at any size; the
  constraints' sums pick their dtype by the same bound on their own.
  The same bound picks the dtype of the weighted budget's sums.
- Rational data at grid points (``step * y`` for a float step) is
  summed in float64 over each form's float image, since a rational
  coefficient times a float is the float product of its float image.
  A constraint row with no coefficient at all has the exact value of
  its constant, so it is decided once, exactly.  A row with no linear
  coefficient but a matrix is exact at the origin only, so such a
  problem keeps the scalar path.

A block is support-indexed: points x min(n, rho) arrays of indices and
values, not dense points x n rows.  At n = 40 and rho = 3 a dense block
holds 13 times as many cells.  Sized on the benchmark's n = 40 jobs
(2-core Xeon, Python 3.11, numpy 2.4), dense blocks of 4,096 points
raised peak RSS by 10.3 MB and support-indexed ones by 1.3 MB, and the
dense ones took twice as long; the blocks of ``lattice.BLOCK_CELLS``
raise it by about 0.8 MB on the ``wide`` workload.

Generic and wrapped callables, data that mixes float with rational
values, the rows above and thresholds that are neither floats nor
rationals keep the scalar path.  :func:`l1opt.solver.scan_ball` is the
one caller of :func:`block_scan`, and runs the scalar path when it
returns None.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from typing import NamedTuple

import numpy as np

from .lattice import point_blocks

_INT64_MAX = (1 << 63) - 1
_INT64_MIN = -(1 << 63)
# Radii above this keep the scalar path: block entries are int64, and
# float data needs them exact as floats.
_EXACT_FLOAT_INT = 1 << 53


def block_scan(problem, rho, tolerance, stop=None, step=None, kept=None, costs=None, budget=None):
    """:func:`_scan_points` over the blocks of :func:`point_blocks`, for
    built-in oracles; None when the scalar path must run instead.

    The ball has radius ``rho`` and, with ``kept``, spans only those
    coordinates of the problem's; a point then passes the weighted
    budget ``sum(costs[j] * |x_j|) <= budget`` before it counts as an
    oracle call.  With a ``step`` the point evaluated is ``step * y``,
    as in the approximation schemes.  Each block takes one first-minimum
    reduction with the rules of :func:`_scan_points`: NaN values are
    never eligible, the smallest ordinal wins a tie, and ``stop`` ends
    the scan at the first eligible point at or below it with the same
    counts.  The winner's value is recomputed by the scalar objective.
    """
    n = problem.n
    if rho > _EXACT_FLOAT_INT or (
        step is not None and not (isinstance(step, float) and math.isfinite(step * rho))
    ):
        return None
    evaluator = block_evaluator(problem, rho, tolerance, stop, step)
    admit = None if costs is None else _budget_mask(costs, budget, rho, step)
    if evaluator is None or (costs is not None and admit is None):
        return None
    evaluate, stop = evaluator
    index = None if kept is None else np.array([*kept, n], dtype=np.intp)
    best = None
    calls = walked = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for pos, val in point_blocks(n if kept is None else len(kept), rho):
            admitted = None if admit is None else admit(pos, val)
            if index is not None:
                pos = index[pos]
            values, eligible = evaluate(pos, val)
            if admitted is not None:
                eligible &= admitted
            end = len(pos)
            candidates = np.flatnonzero(eligible)
            hits = candidates[:0] if stop is None else candidates[values[candidates] <= stop]
            if hits.size:
                # Every eligible value before the first hit is above stop,
                # so the hit improves on the incumbent and ends the scan.
                candidates = hits[:1]
                end = int(hits[0]) + 1
            if candidates.size:
                i = candidates[np.argmin(values[candidates])]
                if best is None or values[i] < best[0]:
                    best = (values[i], walked + int(i), pos[i].tolist(), val[i].tolist())
            walked += end
            calls += end if admitted is None else int(np.count_nonzero(admitted[:end]))
            if hits.size:
                break
    if best is None:
        return None, calls, walked
    _, ordinal, pos, val = best
    x = [0] * n if step is None else [0.0] * n
    for i, v in zip(pos, val):
        if v:
            x[i] = v if step is None else step * v
    x = tuple(x)
    return (problem.objective(x), ordinal, x), calls, walked


def block_evaluator(problem, rho, tolerance, stop, step):
    """``(evaluate, stop)`` for the block path, or None.

    ``evaluate(pos, val)`` returns a block's objective values and the
    mask of its feasible points with a value that is not NaN;  ``stop``
    is ``stop_below`` in the units of those values.  Both oracles must
    carry their forms, of one dimension, and their data must be all
    float or all rational (int and Fraction).  The objective's value is
    the largest of its forms' values, and over rational data its forms
    must share one scale.  Float data, and rational data at grid points,
    is summed in float64 as the scalar oracles sum it; rational data at
    integer points is scaled to ints per form and summed in int64 or,
    past the int64 bound, over Python ints.
    """
    objective = getattr(problem.objective, "block_forms", None)
    rows = getattr(problem.constraints, "block_forms", None)
    if objective is None or rows is None or not objective.forms:
        return None
    if not objective.n == rows.n == problem.n:
        return None
    types = objective.types | rows.types
    if types <= {float} or (step is not None and types <= {int, Fraction}):
        return _float_evaluator(objective, rows, tolerance, stop, step, types <= {float})
    if types <= {int, Fraction}:
        return _int_evaluator(objective, rows, rho, tolerance, stop)
    return None


def _float_evaluator(objective, rows, tolerance, stop, step, floats):
    """The evaluator in float64, for float data (``floats``) or for
    rational data at grid points."""
    tol = _float_floor(tolerance)
    threshold = None if stop is None else _float_floor(stop)
    if tol is None or (stop is not None and threshold is None):
        return None
    live = [(M, a, const) for M, a, const in rows.forms if M is not None or any(a)]
    if not floats and any(not any(a) for M, a, const in live):
        return None
    # A row with no coefficient is its constant at every point.
    passes = all(const <= tolerance for M, a, const in rows.forms if M is None and not any(a))
    if len(live) < len(rows.forms):
        rows = Forms(rows.n, tuple(live))

    def evaluate(pos, val):
        x = val.astype(np.float64) if step is None else step * val
        values = _largest(objective.float_values(pos, x))
        feasible = (rows.float_values(pos, x) <= tol).all(axis=0)
        return values, feasible & (values == values) & passes

    return evaluate, threshold


def _int_evaluator(objective, rows, rho, tolerance, stop):
    """The evaluator over scaled ints for rational data at integer
    points: for the objective and the rows each, int64 within the bound
    of :meth:`Forms.fits_int64` and Python ints (``big``) past it."""
    big = not objective.fits_int64(rho)
    big_rows = not rows.fits_int64(rho)
    limits = [_scaled_floor(tolerance, scale, big_rows) for scale in rows.ints.scales]
    scales = set(objective.ints.scales)
    threshold = None if stop is None else _scaled_floor(stop, min(scales), big)
    if None in limits or len(scales) > 1 or (stop is not None and threshold is None):
        return None
    limits = np.array(limits, dtype=object if big_rows else np.int64)[:, None]
    # Over Python ints the objective's forms go one at a time into a
    # running maximum, so that a block holds one form's values at once.
    L, consts, quads = objective.ints[:3]
    singles = [
        (L[f : f + 1], consts[f : f + 1], [(0, M) for g, M in quads if g == f])
        for f in range(len(L))
    ]

    def evaluate(pos, val):
        wide = val.astype(object) if big or big_rows else val
        if big:
            values = reduce(np.maximum, (_form_values(*form, pos, wide)[0] for form in singles))
        else:
            values = _largest(objective.int_values(pos, val))
        return values, (rows.int_values(pos, wide if big_rows else val) <= limits).all(axis=0)

    return evaluate, threshold


def _largest(values):
    """The largest of each column of forms' values; the one row as it is
    for a single form, which saves a reduction per block."""
    return values[0] if len(values) == 1 else values.max(axis=0)


def _budget_mask(costs, budget, rho, step):
    """``admit(pos, val)``: the mask of a block's points within the
    weighted budget, summed as the scalar path sums it; None when the
    costs are neither all ints (scaled, exact) nor all floats."""
    if all(type(c) is int for c in costs) and type(budget) is int:
        if max(costs) * rho <= _INT64_MAX:
            table, limit = np.array([*costs, 0], dtype=np.int64), min(budget, _INT64_MAX)
        else:
            table, limit = np.array([*costs, 0], dtype=object), budget
        return lambda pos, val: (table[pos] * np.abs(val)).sum(axis=1) <= limit
    if not (all(type(c) is float for c in costs) and isinstance(budget, float)):
        return None
    table = np.array([*costs, 0.0])

    def admit(pos, val):
        x = val.astype(np.float64) if step is None else step * val
        norm = np.zeros(len(pos))
        for j in range(pos.shape[1]):
            norm += table[pos[:, j]] * np.abs(x[:, j])
        return ~(norm > budget)

    return admit


class _IntForms(NamedTuple):
    """Forms scaled to ints: each form times ``scales[f]``, the lcm of its
    denominators; ``sizes[f]`` is ``(max |a|, |const|, max |M|)``.  The
    arrays are int64 when every entry fits, else Python ints."""

    L: np.ndarray
    consts: np.ndarray
    quads: list
    scales: list
    sizes: list


class Forms:
    """The forms behind a built-in oracle, for the block path.

    Each form is ``(M, a, const)``, valued x'Mx + a.x + const, with M
    None for a linear form: one per row for constraints, and for an
    objective one form or several, whose largest value is its value.
    The oracle carries it as ``block_forms``, so the block path finds
    the data through the oracle itself; the arrays are built on first
    use and kept with it.  Index n of every array is a zero, the
    padding of :func:`point_blocks`.
    """

    def __init__(self, n: int, forms: tuple):
        self.n = n
        self.forms = forms

    @cached_property
    def types(self) -> frozenset:
        """The types of the nonzero entries."""
        return frozenset(
            type(v)
            for M, a, const in self.forms
            for v in chain(a, (const,), *(M or ()))
            if v
        )

    @cached_property
    def floats(self):
        """``(L, consts, quads)`` in float64; ``quads`` lists ``(form, M)``."""
        n1 = self.n + 1
        L = np.zeros((len(self.forms), n1))
        consts = np.zeros(len(self.forms))
        quads = []
        for f, (M, a, const) in enumerate(self.forms):
            L[f, :-1] = [float(v) for v in a]
            consts[f] = float(const)
            if M is not None:
                padded = np.zeros((n1, n1))
                padded[:-1, :-1] = [[float(v) for v in row] for row in M]
                quads.append((f, padded))
        return L, consts, quads

    @cached_property
    def ints(self) -> _IntForms:
        """The forms scaled to ints.  Zero entries of any type are int 0."""
        rows, consts, quads, scales, sizes = [], [], [], [], []
        for f, (M, a, const) in enumerate(self.forms):
            matrix = list(M or ())
            entries = [*a, const, *chain.from_iterable(matrix)]
            scale = math.lcm(*[v.denominator for v in entries if v])

            def ints(values):
                return [v.numerator * (scale // v.denominator) if v else 0 for v in values]

            row = ints(a)
            matrix = [ints(r) for r in matrix]
            rows.append([*row, 0])
            consts.append(ints((const,))[0])
            scales.append(scale)
            peak = max((abs(v) for r in matrix for v in r), default=0)
            sizes.append((max(map(abs, row), default=0), abs(consts[-1]), peak))
            if M is not None:
                quads.append((f, [[*r, 0] for r in matrix] + [[0] * (self.n + 1)]))
        fits = max(chain.from_iterable(sizes), default=0) <= _INT64_MAX
        dtype = np.int64 if fits else object
        return _IntForms(
            np.array(rows, dtype=dtype).reshape(len(rows), self.n + 1),
            np.array(consts, dtype=dtype),
            [(f, np.array(M, dtype=dtype)) for f, M in quads],
            scales,
            sizes,
        )

    def fits_int64(self, rho: int) -> bool:
        """Whether every form stays in int64 at points of l1 norm <= rho:
        |x'Mx + a.x + c| <= max|M| rho^2 + max|a| rho + |c|, and so does
        every partial sum."""
        return all(a * rho + c + m * rho * rho <= _INT64_MAX for a, c, m in self.ints.sizes)

    def float_values(self, pos, x):
        """Values of every form at a block in float64, summed as the scalar
        oracles sum: over the support in ascending order, from +0.0."""
        return _form_values(*self.floats, pos, x)

    def int_values(self, pos, val):
        """Scaled values of every form at a block: int64 when the forms and
        ``val`` are int64, else Python ints."""
        return _form_values(*self.ints[:3], pos, val)


def _form_values(L, consts, quads, pos, x):
    """The values of forms ``(L, consts, quads)`` at a block with entries
    ``x``, each summed column by column over the support from zero, in
    the dtype of the arrays and ``x``."""
    width = pos.shape[1]
    dtype = np.result_type(L, x)
    values = np.zeros((len(L), len(pos)), dtype=dtype)
    for j in range(width):
        values += L[:, pos[:, j]] * x[:, j]
    values += consts[:, None]
    for f, M in quads:
        total = np.zeros(len(pos), dtype=dtype)
        for i in range(width):
            row = np.zeros(len(pos), dtype=dtype)
            for j in range(width):
                row += M[pos[:, i], pos[:, j]] * x[:, j]
            total += x[:, i] * row
        values[f] += total
    return values


def _float_floor(t):
    """The largest float at most ``t``, so that a float v has v <= t
    exactly when v <= this; None for a ``t`` that is neither a float nor
    a rational within the float range."""
    if isinstance(t, float):
        return t
    if not isinstance(t, numbers.Rational):
        return None
    try:
        f = float(t)
    except OverflowError:
        return None
    return math.nextafter(f, -math.inf) if f > t else f


def _scaled_floor(t, scale: int, big: bool):
    """floor(t * scale), so that an int value v has v / scale <= t
    exactly when v <= this; for values in int64 clamped to int64, and
    for Python int values (``big``) an infinite or NaN ``t`` itself.
    None when ``t`` is neither a float nor a rational."""
    if isinstance(t, float) and not math.isfinite(t):
        return t if big else (_INT64_MAX if t > 0 else _INT64_MIN)
    if not isinstance(t, (float, numbers.Rational)):
        return None
    floor = math.floor(Fraction(t) * scale)
    return floor if big else min(max(floor, _INT64_MIN), _INT64_MAX)

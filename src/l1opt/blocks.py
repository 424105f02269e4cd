"""The one scan loop of the package, and its evaluators.

Every solver walks the ball through :func:`block_scan`: blocks of
points from :func:`l1opt.lattice.point_blocks`, one evaluator call per
block, and one reduction per block that applies the tie, NaN,
early-stop and count rules.  A solver hands the scan its forms and its
per-point rule ``decide``, and the scan picks the evaluator, the one
place that does: :func:`block_evaluator` sums the forms (those of the
built-in oracles of :meth:`l1opt.solver.ProblemInstance.linear` and
``.quadratic``, or the dual forms of a mixed problem's LPs) over a
whole block in numpy, and where it refuses them :func:`point_evaluator`
calls ``decide`` (joint oracles, or an inner solver) once per walked
point.  Every point that Python code sees, the winner's included, is
read through :func:`l1opt.lattice.block_tuples`.

The built-in oracles carry their data as a :class:`Forms` (attribute
``block_forms``), so the data is found through the oracles themselves.
One block evaluator serves every arithmetic: each form is summed column
by column over the support, from left to right and starting from zero.
Its kernel, :func:`_form_values`, gathers the coefficients of a support
column with ``np.take``, from the column-major blocks of
:func:`l1opt.lattice.point_blocks`, whose columns are contiguous rows
of ``pos.T`` and ``val.T``.  A 6 x 1,365 int64 gather took 14 us by
advanced indexing and 6 us by ``take`` (2-core Xeon, Python 3.11,
numpy 2.4).

- Float data is summed in float64.  These are the scalar oracles'
  operations in the scalar oracles' order, so every value is theirs bit
  for bit.
- Rational data (int and Fraction) is scaled to ints by the lcm of the
  denominators of each form.  The objective's sums run in int64 when
  max|M| rho^2 + max|a| rho + |const| fits in int64 for every form,
  which bounds every partial sum, and else over Python ints (numpy
  arrays of dtype object), one form at a time, which are exact at any
  size; the constraints' sums pick their dtype by the same bound on
  their own.
- Rational data at grid points (``step * y`` for a float step) is
  summed in float64 over each form's float image, since a rational
  coefficient times a float is the float product of its float image.
  A constraint row with no coefficient at all has the exact value of
  its constant, so it is decided once, exactly.  A row with no linear
  coefficient but a matrix is exact at the origin only, so such a
  problem runs per point.

The constraint rows are decided by one row test per arithmetic,
:func:`_float_rows` and :func:`_int_rows`.  A weighted budget
``sum(costs[j] * |x_j|) <= budget`` is no row: the walk itself visits
only the points within it (:func:`_walk_budget`), so every point that
an evaluator sees is within the budget.

A block is support-indexed: points x min(n, rho) arrays of indices and
values, not dense points x n rows.  At n = 40 and rho = 3 a dense block
holds 13 times as many cells.  Sized on the benchmark's n = 40 jobs
(2-core Xeon, Python 3.11, numpy 2.4), dense blocks of 4,096 points
raised peak RSS by 10.3 MB and support-indexed ones by 1.3 MB, and the
dense ones took twice as long; the blocks of ``lattice.BLOCK_CELLS``
raise it by about 0.8 MB on the ``wide`` workload.

Every refusal of the block path is a ``return None`` of
:func:`block_evaluator`, and the walk then runs per point:

- forms that are missing (generic and wrapped callables) or of another
  dimension than the walk's;
- a tolerance or stop that is neither a float nor a rational;
- data that mixes float with rational values, or float sums that would
  not be exact (:func:`_arithmetic`);
- rational data at grid points with a row that has a matrix but no
  linear coefficient;
- objective forms over rational data whose scales differ.

A rational threshold past the float range is no refusal: only finite
floats are at most a rational above the range, and only -inf is at most
one below it.
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from typing import NamedTuple

import numpy as np

from .counting import count_l1_lattice
from .lattice import block_tuples, canonical_ordinal, point_blocks

_INT64_MAX = (1 << 63) - 1
_INT64_MIN = -(1 << 63)
# Radii above this have no float64 evaluation: block entries are int64,
# and float data needs them exact as floats.
_EXACT_FLOAT_INT = 1 << 53
# Float sums overflow to inf, and inf - inf is NaN, as in the scalar sums.
_float_errors = np.errstate(over="ignore", invalid="ignore")


def block_scan(n, rho, forms, decide, objective, tolerance=0, stop=None, step=None, kept=None,
               costs=None, budget=None):
    """Best eligible ``(value, ordinal, x)`` over one walk of the rho-ball,
    with its counts: ``(best, calls, walked)``.

    The scan picks its evaluator: :func:`block_evaluator` over ``forms``,
    the walk's ``(objective, rows)`` or None, with a point feasible when
    every row is at most ``tolerance``; where that evaluator refuses them,
    :func:`point_evaluator` over ``decide``.  Both give the same values,
    eligible points and calls.  The winner's value is ``decide``'s result
    on the per-point path, and ``objective(x)`` on the block path, read
    from the winner's block value where ``forms`` holds the objective's
    own ``block_forms`` (:func:`_oracle_value`).  Each
    block takes one first-minimum reduction: the smallest ordinal wins a
    tie, and ``stop`` ends the scan at the first eligible point at or
    below it, with the counts of the walk up to that point.

    With ``kept`` the ball spans only those coordinates of the n, and
    the walk holds only the points within the weighted budget
    ``sum(costs[j] * |x_j|) <= budget`` (:func:`_walk_budget`), each one
    call; an empty ``kept`` walks the origin alone.  The counts are still
    those of the ball: its count when the scan drains it, and the
    winner's ordinal plus one when ``stop`` ends it.  The winner's
    ordinal is its position in the ball, in closed form.  With a
    ``step`` the point is ``step * y``, as in the approximation schemes.
    """
    evaluator = block_evaluator(n, forms, rho, tolerance, stop, step)
    evaluate, stop, exact = evaluator or (*point_evaluator(decide, n, stop, step), None)
    if exact is not None and forms[0] is not getattr(objective, "block_forms", None):
        exact = None  # a mixed solve's inner solver
    if kept is None:
        blocks = point_blocks(n, rho)
    else:
        # An empty kept spans the origin alone: the radius-0 ball of one
        # coordinate, whose padding index maps to n.
        dims, rho = (len(kept), rho) if kept else (1, 0)
        index = np.array([*kept, n], dtype=np.intp)
        blocks = point_blocks(dims, rho, _walk_budget(costs, budget, step))
    best = None
    walked = 0
    stopped = False
    for pos, val in blocks:
        reduced = pos
        if kept is not None:
            pos = index[pos]
        values, eligible, results = evaluate(pos, val)
        end = len(pos)
        candidates = np.flatnonzero(eligible)
        hits = candidates[:0]
        if stop is not None:
            hits = candidates[_at_or_below(values[candidates], stop)]
        if hits.size:
            # Every eligible value before the first hit is above stop,
            # so the hit improves on the incumbent and ends the scan.
            candidates = hits[:1]
            end = int(hits[0]) + 1
        if candidates.size:
            i = candidates[np.argmin(values[candidates])]
            if best is None or values[i] < best[0]:
                result = None if results is None else results[i]
                best = (values[i], walked + int(i), pos[i], val[i], result, reduced[i])
        walked += end
        if hits.size:
            stopped = True
            break
    calls = walked
    if kept is not None:
        # The walk held the points within the budget alone: the counts
        # and the ordinal are those of the ball over the kept coordinates.
        walked = count_l1_lattice(dims, rho)
    if best is None:
        return None, calls, walked
    value, ordinal, pos, val, result, reduced = best
    if kept is not None:
        ordinal = canonical_ordinal(next(block_tuples(dims, reduced[None], val[None])), rho)
        if stopped:
            walked = ordinal + 1
    x = next(block_tuples(n, pos[None], val[None], step))
    if result is None:
        result = objective(x) if exact is None else exact(value, pos)
    return (result, ordinal, x), calls, walked


def _walk_budget(costs, budget, step):
    """The weighted budget ``sum(costs[j] * |x_j|) <= budget`` as the
    ``(costs, step, limit)`` of :func:`l1opt.lattice.point_blocks`, whose
    walk sums it as the per-point sum runs, ``costs[j] * |step * y_j|``
    from int 0 over the support in ascending order.  Rational costs at
    integer points are scaled to ints by the lcm of their denominators,
    against the floor of the scaled budget, which keeps each sum an int;
    any others are summed as given."""
    if step is None and all(isinstance(c, (int, Fraction)) for c in costs):
        scale = math.lcm(*(c.denominator for c in costs))
        ints = tuple(c.numerator * (scale // c.denominator) for c in costs)
        return ints, 1, _scaled_floor(budget, scale, True)
    return costs, 1 if step is None else abs(step), budget


@_float_errors
def _at_or_below(values, stop):
    """``values <= stop``, elementwise; nothing is at or below a NaN."""
    return values <= stop


def point_evaluator(decide, n, stop=None, step=None):
    """``(evaluate, stop)`` that calls ``decide(x)`` once for each point
    of a block, in canonical order.

    ``evaluate(pos, val)`` returns a block's ``values``, the
    mask of its ``eligible`` points (feasible, with a value that is not
    NaN) and ``results``, each point's own result; :func:`block_evaluator`
    returns None for ``results``.  ``decide`` returns ``(value, result)``,
    with a value of None for an infeasible point; x is read through
    :func:`l1opt.lattice.block_tuples`, as :func:`block_scan` reads the
    winner.  A block ends at its first eligible value at or below
    ``stop``, where the scan ends, so ``decide`` runs exactly as often as
    the scan counts calls.
    """

    def evaluate(pos, val):
        size = len(pos)
        values, results = [None] * size, [None] * size
        for r, x in enumerate(block_tuples(n, pos, val, step)):
            value, result = decide(x)
            if value is not None and value == value:
                values[r], results[r] = value, result
                if stop is not None and value <= stop:
                    break
        eligible = np.fromiter((v is not None for v in values), dtype=bool, count=size)
        return np.fromiter(values, dtype=object, count=size), eligible, results

    return evaluate, stop


def block_evaluator(n, forms, rho, tolerance, stop, step):
    """``(evaluate, stop, exact)`` over ``forms``, the ``(objective, rows)``
    of a walk in dimension n, or None where :func:`point_evaluator` must
    run.

    ``stop`` is in the units of the values, and ``exact`` is that of
    :func:`_oracle_value` or None.  The objective's value is the largest
    of its forms' values.  Each ``return None`` is one of the refusals
    that the module docstring lists.
    """
    objective, rows = forms or (None, None)
    if objective is None or rows is None or not objective.forms or not objective.n == rows.n == n:
        return None
    thresholds = (tolerance,) if stop is None else (tolerance, stop)
    if not all(isinstance(t, (float, numbers.Rational)) for t in thresholds):
        return None
    types = objective.types | rows.types
    arithmetic = _arithmetic(types, rho, step)
    if arithmetic is float:
        if not types <= {float} and any(M is not None and not any(a) for M, a, _ in rows.forms):
            return None
        return _float_evaluator(objective, rows, tolerance, stop, step)
    if arithmetic is int and len(set(objective.ints.scales)) == 1:
        return _int_evaluator(objective, rows, rho, tolerance, stop)
    return None


def _arithmetic(types, rho, step):
    """How sums over data of ``types`` at the points of the rho-ball (times
    ``step``) run as the scalar sums run them: ``float`` in float64, for
    float data and for rational data at grid points, when every
    ``step * y`` is exact and finite; ``int`` over scaled ints, for
    rational data at integer points; None when neither holds."""
    if types <= {float} or (step is not None and types <= {int, Fraction}):
        exact = rho <= _EXACT_FLOAT_INT and (
            step is None or (isinstance(step, float) and math.isfinite(step * rho))
        )
        return float if exact else None
    return int if types <= {int, Fraction} else None


def _float_evaluator(objective, rows, tolerance, stop, step):
    """The evaluator in float64, for float data or for rational data at
    grid points."""
    feasible = _float_rows(rows, tolerance)
    threshold = None if stop is None else _float_floor(stop)

    @_float_errors
    def evaluate(pos, val):
        x = val.astype(np.float64) if step is None else step * val
        values = _largest(objective.float_values(pos, x))
        return values, feasible(pos, x) & (values == values), None

    return evaluate, threshold, _oracle_value(objective, float, step)


def _float_rows(rows, tolerance):
    """``feasible(pos, x)``: the mask of a block's points, entries ``x`` in
    float64, at which every row is at most ``tolerance``, each row summed
    in float64."""
    tol = _float_floor(tolerance)
    # A row with no coefficient is its constant at every point.
    passes = all(const <= tolerance for M, a, const in rows.forms if M is None and not any(a))
    live = tuple((M, a, const) for M, a, const in rows.forms if M is not None or any(a))
    if len(live) < len(rows.forms):
        rows = Forms(rows.n, live)

    @_float_errors
    def feasible(pos, x):
        return (rows.float_values(pos, x) <= tol).all(axis=0) & passes

    return feasible


def _int_evaluator(objective, rows, rho, tolerance, stop):
    """The evaluator over scaled ints for rational data at integer
    points, whose objective forms share one scale: the objective in int64
    within the bound of :meth:`Forms.fits_int64`, and past it over Python
    ints (``big``), one form at a time, and the rows by :func:`_int_rows`."""
    big = not objective.fits_int64(rho)
    feasible = _int_rows(rows, rho, tolerance)
    scale = objective.ints.scales[0]
    threshold = None if stop is None else _scaled_floor(stop, scale, big)
    if Fraction not in objective.types:
        exact = _oracle_value(objective, int)  # the scale is 1
    elif int not in objective.types:
        exact = _oracle_value(objective, lambda v: Fraction(int(v), scale))
    else:
        exact = None

    def evaluate(pos, val):
        if big:
            wide = val.astype(object)
            forms = (_form_values(*form, pos, wide)[0] for form in objective.singles)
            values = reduce(np.maximum, forms)
        else:
            values = _largest(objective.int_values(pos, val))
        return values, feasible(pos, val), None

    return evaluate, threshold, exact


def _oracle_value(objective, convert, step=None):
    """``exact(v, pos)``: the built-in objective oracle's value, in its
    type, at a point with support ``pos`` and block value ``v`` of its
    one form x'Mx + a.x; None for several forms.  The oracle's sum starts
    from int 0 and adds a_j x_j for each nonzero a_j and x_i (M_i . x)
    for each nonzero x_i, an int 0 when row i of M is zero and x_i an
    int.  With no term it is int 0, else ``convert(v)``."""
    if len(objective.forms) != 1:
        return None
    M, a, _ = objective.forms[0]
    if any(a):
        return lambda v, pos: convert(v)
    if M is None:
        return lambda v, pos: 0
    # Row n, all False, is the padding of the support.
    rows = np.array([step is not None or any(row) for row in M] + [False])
    return lambda v, pos: convert(v) if rows[pos].any() else 0


def _int_rows(rows, rho, tolerance):
    """``feasible(pos, val)``: the mask of a block's points at which every
    row is at most ``tolerance``, over the rows scaled to ints: in int64
    within the bound of :meth:`Forms.fits_int64`, and past it over Python
    ints, one form at a time, so that a block holds one form's values at
    once."""
    big = not rows.fits_int64(rho)
    limits = [_scaled_floor(tolerance, scale, big) for scale in rows.ints.scales]
    if not big:
        limits = np.array(limits, dtype=np.int64)[:, None]
        return lambda pos, val: (rows.int_values(pos, val) <= limits).all(axis=0)

    def feasible(pos, val):
        wide = val.astype(object)
        mask = np.ones(len(pos), dtype=bool)
        for form, limit in zip(rows.singles, limits):
            mask &= _form_values(*form, pos, wide)[0] <= limit
        return mask

    return feasible


def _largest(values):
    """The largest of each column of forms' values; the one row as it is
    for a single form, which saves a reduction per block."""
    return values[0] if len(values) == 1 else values.max(axis=0)


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
    """The forms behind a built-in oracle, for the block evaluator.

    Each form is ``(M, a, const)``, valued x'Mx + a.x + const, with M
    None for a linear form: one per row for constraints, and for an
    objective one form or several, whose largest value is its value.
    The oracle carries it as ``block_forms``, so the block evaluator
    finds the data through the oracle itself; the arrays are built on first
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

    @cached_property
    def singles(self) -> list:
        """Each form over ints as its own ``(L, consts, quads)``, so that
        sums over Python ints hold one form's values at a time."""
        L, consts, quads = self.ints[:3]
        return [
            (L[f : f + 1], consts[f : f + 1], [(0, M) for g, M in quads if g == f])
            for f in range(len(L))
        ]

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
    the dtype of the arrays and ``x``.  The coefficients are gathered
    with ``np.take``: a column of ``L`` per support column, into one
    reused buffer (``clip`` mode does not buffer ``out``), and M's entry
    (i, j) at ``i * (n + 1) + j`` of its flat array."""
    n1 = L.shape[1]
    cols, xs = pos.T, x.T
    dtype = np.result_type(L, x)
    L = L.astype(dtype, copy=False)
    values = np.zeros((len(L), len(pos)), dtype=dtype)
    term = np.empty_like(values)
    for col, xj in zip(cols, xs):
        L.take(col, axis=1, out=term, mode="clip")
        term *= xj
        values += term
    values += consts[:, None]
    for f, M in quads:
        flat = M.ravel()
        total = np.zeros(len(pos), dtype=dtype)
        for row_col, xi in zip(cols, xs):
            base = row_col * n1
            row = np.zeros(len(pos), dtype=dtype)
            for col, xj in zip(cols, xs):
                row += flat.take(base + col) * xj
            total += xi * row
        values[f] += total
    return values


def _float_floor(t):
    """The largest float at most ``t``, a float or a rational, so that a
    float v has v <= t exactly when v <= this.  For a ``t`` above the
    float range that is the largest finite float, since every finite float
    and no infinite one is at most such a ``t``; below the range it is
    -inf."""
    if isinstance(t, float):
        return t
    try:
        f = float(t)
    except OverflowError:
        return sys.float_info.max if t > 0 else -math.inf
    return math.nextafter(f, -math.inf) if f > t else f


def _scaled_floor(t, scale: int, big: bool):
    """floor(t * scale) for a float or a rational ``t``, so that an int
    value v has v / scale <= t exactly when v <= this; for values in int64
    clamped to int64, and for Python int values (``big``) an infinite or
    NaN ``t`` itself."""
    if isinstance(t, float):
        if not math.isfinite(t):
            return t if big else (_INT64_MAX if t > 0 else _INT64_MIN)
        num, den = t.as_integer_ratio()
    else:
        num, den = int(t.numerator), int(t.denominator)
    floor = num * scale // den
    return floor if big else min(max(floor, _INT64_MIN), _INT64_MAX)

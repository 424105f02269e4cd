"""The float64 guide of the package's certified LPs (:func:`l1opt.lp._optima`).

A two-phase simplex in numpy (Dantzig's rule, equilibrated rows, a
pivot cap, floating-point warnings off) proposes the basis that
``lp._certify`` then checks exactly; nothing here decides an answer.
LPs over one region's rows that differ only in the cost share one
guide: the tableau is built and taken through phase 1 once, and
phase 2 pivots a stack of one copy per cost in step, in chunks of at
most ``GUIDE_CELLS`` cells.  Each LP gets the float operations, in the
order, of a guide run on it alone, so the same basis.

On the 24 bound jobs of the benchmark's seeds 1-3 (576 coordinate
LPs) the stacked guides took 0.16 s against 0.26-0.28 s for one
guide per LP (best of 5, 2-core host).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from .lp import _LeqForm

# The guide's tolerance on its equilibrated data (every row and the cost
# scaled to a largest coefficient of 1).  It only steers the guide: an
# answer rests on the exact certificate alone.
_GUIDE_TOL = 1e-9

# The guide stacks one float64 tableau per cost, in chunks of at most
# this many cells (1 MB).  At 12 variables and 48 rows the 24 coordinate
# LPs take 0.7 MB, one chunk; at 100 variables and 400 rows 200 tableaux
# would take 385 MB, and a chunk holds one.
GUIDE_CELLS = 1 << 17


def _guide_bases(form: _LeqForm, costs: Sequence[list[int]]) -> list[Optional[list[int]]]:
    """For each integer cost over ``form``'s z columns, the basis at which a
    float64 two-phase simplex on ``form`` under that cost stops optimal.

    Variables are numbered as in ``lp._solve_leq_form``: z, then the
    slack of each row.  A basis is None when the data leaves the float
    range, when a value turns non-finite, at the pivot cap, or when the
    guide finds the LP infeasible or unbounded; the exact simplex decides
    those.
    Pivots take the most negative reduced cost (Dantzig's rule: on the
    benchmark's bound LPs about 60% of Bland's pivots), and the cap
    stops any cycling.

    Phase 1 does not depend on the cost, so it runs once; phase 2 runs
    on stacks of one copy per cost (:func:`_phase_two`).
    """
    if not costs:
        return []
    m, nz = len(form.rows), len(costs[0])
    width = nz + m
    neg = [i for i in range(m) if form.rhs[i] < 0]
    if not width:
        return [[] for _ in costs]
    budget = 50 + 4 * width
    bases: list[Optional[list[int]]] = [None] * len(costs)
    with np.errstate(all="ignore"):
        try:
            A = np.array(form.rows, dtype=float).reshape(m, nz)
            rhs = np.array(form.rhs, dtype=float)
        except OverflowError:
            return bases
        # Row i over its largest coefficient; its slack, scaled alike, keeps
        # coefficient 1 and stays basic.
        scale = np.abs(A).max(axis=1, initial=0.0)
        scale[scale == 0] = 1.0
        T = np.zeros((m + 1, width + len(neg) + 1))
        T[:m, :nz] = A / scale[:, None]
        T[:m, -1] = rhs / scale
        T[np.arange(m), nz + np.arange(m)] = 1.0
        basis = list(range(nz, width))
        if neg:
            # Phase 1: a negative-rhs row is negated and starts with an
            # artificial; the reduced costs are those of the artificial sum.
            T[neg] = -T[neg]
            T[neg, width + np.arange(len(neg))] = 1.0
            for k, i in enumerate(neg):
                basis[i] = width + k
            T[m, :width] = -T[neg, :width].sum(axis=0)
            T[m, -1] = -T[neg, -1].sum()
            (budget,) = _float_pivots(T[None], [basis], width, budget)
            if budget is None or not T[m, -1] > -_GUIDE_TOL:
                return bases
            for r, var in enumerate(basis):
                if var >= width:  # an artificial left basic at zero
                    # Its row keeps its own slack's -1 (the two columns are
                    # negatives of each other, exactly, while it is basic),
                    # so the largest entry is at least 1.
                    col = int(np.abs(T[r, :width]).argmax())
                    _float_pivot(T[None], [basis], np.array([r]), np.array([col]))
            T = np.delete(T, np.s_[width:-1], axis=1)
        per_chunk = max(1, GUIDE_CELLS // T.size)
        for start in range(0, len(costs), per_chunk):
            chunk = costs[start : start + per_chunk]
            bases[start : start + per_chunk] = _phase_two(T, basis, chunk, budget)
    return bases


def _phase_two(
    T: np.ndarray, basis: list[int], costs: Sequence[list[int]], budget: int
) -> list[Optional[list[int]]]:
    """The guide's phase 2 from the feasible tableau ``T`` at ``basis``,
    for each cost, on one stack of copies of ``T``."""
    m, nz = len(basis), len(costs[0])
    todo = []  # (index of the cost, its float row)
    for k, cost in enumerate(costs):
        try:
            todo.append((k, np.array(cost, dtype=float)))
        except OverflowError:
            pass
    stack = np.empty((len(todo), m + 1, T.shape[1]))
    stack[:, :m] = T[:m]
    for tableau, (_, cost) in zip(stack, todo):
        row = tableau[m]
        row[:] = 0.0
        row[:nz] = cost / (np.abs(cost).max(initial=0.0) or 1.0)
        row -= row[basis] @ T[:m]
    found = [list(basis) for _ in todo]
    done = _float_pivots(stack, found, nz + m, budget)
    bases: list[Optional[list[int]]] = [None] * len(costs)
    for (k, _), left, basis_k in zip(todo, done, found):
        if left is not None:
            bases[k] = basis_k
    return bases


def _float_pivots(
    stack: np.ndarray, bases: list[list[int]], limit: int, budget: int
) -> list[Optional[int]]:
    """Dantzig-rule pivots on columns below ``limit``, in step on every
    tableau of ``stack`` (one basis each), until each is optimal.

    Returns, per tableau, the budget left when it stopped optimal, or None
    when it looks unbounded, when the budget runs out or when it stopped
    holding a non-finite value, which no later pivot makes finite again.
    A tableau that is done leaves its slot to the last one still
    pivoting, so the work is always on a prefix of the stack; the stack
    is left in no particular order.
    """
    m = stack.shape[1] - 1
    at_slot = list(range(len(bases)))  # slot -> index of its tableau
    left: list[Optional[int]] = [None] * len(bases)
    live = len(bases)
    for spent in range(budget):
        if not live:
            break
        T = stack[:live]
        slots = np.arange(live)
        red = T[:, m, :limit]
        cols = red.argmin(axis=1)
        entering = red[slots, cols] < -_GUIDE_TOL
        entries = T[slots, :m, cols]
        fits = entries > _GUIDE_TOL
        unbounded = ~fits.any(axis=1)
        rows = np.zeros(live, dtype=np.intp)
        if m:
            ratios = np.where(fits, np.maximum(T[:, :m, -1], 0.0) / entries, np.inf)
            rows = ratios.argmin(axis=1)
            # When every ratio is infinite, argmin may name a row that does
            # not fit; the first one that fits is the single-tableau choice.
            stray = ~fits[slots, rows] & ~unbounded
            rows[stray] = fits[stray].argmax(axis=1)
        done = np.flatnonzero(~entering | unbounded)
        for s in done[::-1]:
            if not entering[s] and np.isfinite(T[s]).all():
                left[at_slot[s]] = budget - spent
            live -= 1
            if s != live:
                T[s] = T[live]
                at_slot[s], rows[s], cols[s] = at_slot[live], rows[live], cols[live]
        if live:
            _float_pivot(stack[:live], [bases[k] for k in at_slot[:live]], rows[:live], cols[:live])
    return left


def _float_pivot(
    stack: np.ndarray, bases: list[list[int]], rows: np.ndarray, cols: np.ndarray
) -> None:
    """Pivot tableau k of ``stack`` on row ``rows[k]`` and column ``cols[k]``.

    The rank-one update runs one tableau at a time: a stack-wide product
    would double the stack's memory and measured no faster.
    """
    slots = np.arange(len(stack))
    stack[slots, rows] /= stack[slots, rows, cols][:, None]
    factors = stack[slots, :, cols]
    factors[slots, rows] = 0.0
    for tableau, column, prow in zip(stack, factors, stack[slots, rows]):
        tableau -= np.outer(column, prow)
    for basis, r, col in zip(bases, rows, cols):
        basis[r] = int(col)

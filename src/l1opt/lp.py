"""Two-phase simplex over exact integer arithmetic.

The tableau is fraction-free: it holds Python ints T and one positive
common denominator D, and the true tableau is T / D.  Each pivot is the
Bareiss step ``T[i][j] = (p*T[i][j] - T[i][c]*T[r][j]) // D`` followed
by ``D = p``, and the division is always exact (Edmonds 1967; Bareiss
1968).  Only the nonbasic columns are stored, since a basic column is D
times a unit vector.  Results are still exact Fractions: basic values
are read as ``Fraction(T[i][rhs], D)``.  There is no tolerance anywhere,
so feasibility, optimality, and unboundedness are decided exactly.

Denominators are cleared row by row: each constraint row, rhs included,
is scaled by the lcm of its own denominators, and its slack and
artificial are read as that multiple of themselves, so the starting
basis stays the identity.  The cost row is scaled by its own lcm.  All
of these scale a row, a column or the objective by a positive factor,
so pivot selection by Bland's rule (which rules out cycling) makes the
same entering and leaving choices a Fraction tableau would, and
``LPResult.pivots`` is the same count.  One global lcm is avoided on
purpose: a row with a 30-digit denominator would then inflate every
other row, and every integer of every pivot with it.

Inputs given as floats are converted to the exact rationals they
represent, so the solver accepts mixed data without losing precision;
infinite or NaN input raises ``ValueError``.

Intended for small instances (tens of variables): the coordinate-range
and lifted-radius programs of the runtime-bound estimator, and LP
subproblems of mixed integer/continuous solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ShapeMismatchError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LPResult:
    """``pivots`` counts the pivots of phase 1, of artificial eviction and of phase 2."""

    status: str
    value: Optional[Fraction]
    x: Optional[tuple[Fraction, ...]]
    pivots: int = 0


def exact_rationals(values: Sequence, where: str) -> list[Fraction]:
    """``values`` as exact Fractions; ``ValueError`` naming ``where[k]`` for
    an entry that is infinite, NaN or otherwise not a finite number."""
    return [_exact(v, where, k) for k, v in enumerate(values)]


def _exact(value, where: str, index: int) -> Fraction:
    if type(value) is Fraction:  # the common case, and already exact
        return value
    try:
        return Fraction(value)
    except (OverflowError, ValueError):
        raise ValueError(f"{where}[{index}] = {value!r} is not a finite number") from None


def lp_solve(
    c: Sequence,
    A: Sequence[Sequence],
    b: Sequence,
    sense: str = "min",
    lower: Optional[Sequence] = None,
    upper: Optional[Sequence] = None,
) -> LPResult:
    """Optimize c.x subject to A x <= b plus optional per-variable bounds.

    Variables are free unless a lower/upper entry is given (None keeps a
    side unbounded).  Returns an exact vertex optimum, or a result with
    status "infeasible" / "unbounded".  Infinite or NaN input raises
    ``ValueError``.
    """
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    n = len(c)
    cost = exact_rationals(c, "lp_solve: c")
    rows = [exact_rationals(row, f"lp_solve: A[{i}]") for i, row in enumerate(A)]
    rhs = exact_rationals(b, "lp_solve: b")
    for row in rows:
        if len(row) != n:
            raise ShapeMismatchError(f"constraint row has {len(row)} entries, expected {n}")
    if len(rows) != len(rhs):
        raise ShapeMismatchError("A and b disagree on the number of constraints")
    lo = _bound_list(lower, n, "lower")
    hi = _bound_list(upper, n, "upper")
    for j in range(n):
        if lo[j] is not None and hi[j] is not None and lo[j] > hi[j]:
            return LPResult(INFEASIBLE, None, None)
    if sense == "max":
        cost = [-v for v in cost]

    # Substitute every variable by nonnegative ones:
    #   lower bound L present:        x = L + z
    #   only an upper bound U:        x = U - z
    #   free:                         x = z_pos - z_neg
    # Upper bounds of shifted variables become extra <= rows.
    subs: list[tuple] = []
    num_z = 0
    extra_rows: list[tuple[int, Fraction]] = []  # (z column, bound)
    for j in range(n):
        if lo[j] is not None:
            subs.append(("shift_lo", lo[j], num_z))
            if hi[j] is not None:
                extra_rows.append((num_z, hi[j] - lo[j]))
            num_z += 1
        elif hi[j] is not None:
            subs.append(("shift_hi", hi[j], num_z))
            num_z += 1
        else:
            subs.append(("split", num_z, num_z + 1))
            num_z += 2

    def expand(row: Sequence[int]) -> list[int]:
        # Each z column comes from one variable, so this only places and
        # negates entries: the row keeps its denominators and its scale.
        out = [0] * num_z
        for coef, sub in zip(row, subs):
            if not coef:
                continue
            if sub[0] == "shift_lo":
                out[sub[2]] = coef
            elif sub[0] == "shift_hi":
                out[sub[2]] = -coef
            else:
                out[sub[1]] = coef
                out[sub[2]] = -coef
        return out

    def constant_part(row: Sequence[Fraction]) -> Fraction:
        total = _ZERO
        for coef, sub in zip(row, subs):
            if coef and sub[0] != "split" and sub[1]:
                total += coef * sub[1]
        return total

    # Each row is cleared of denominators on its own, rhs included.
    std_rows = []
    std_rhs = []
    scales = []
    for row, beta in zip(rows, rhs):
        shift = constant_part(row)
        ints, scale = _scaled(row + [beta - shift if shift else beta])
        std_rhs.append(ints.pop())
        std_rows.append(expand(ints))
        scales.append(scale)
    for col, bound in extra_rows:
        row = [0] * num_z
        row[col] = bound.denominator
        std_rows.append(row)
        std_rhs.append(bound.numerator)
        scales.append(bound.denominator)
    cost_ints, cost_scale = _scaled(cost)

    status, z, value, pivots = _solve_leq_form(expand(cost_ints), std_rows, std_rhs, scales)
    if status != OPTIMAL:
        return LPResult(status, None, None, pivots)

    x = []
    for j in range(n):
        sub = subs[j]
        if sub[0] == "shift_lo":
            x.append(sub[1] + z[sub[2]])
        elif sub[0] == "shift_hi":
            x.append(sub[1] - z[sub[2]])
        else:
            x.append(z[sub[1]] - z[sub[2]])
    objective = value / cost_scale + constant_part(cost)
    if sense == "max":
        objective = -objective
    return LPResult(OPTIMAL, objective, tuple(x), pivots)


def _bound_list(bounds: Optional[Sequence], n: int, name: str) -> list[Optional[Fraction]]:
    if bounds is None:
        return [None] * n
    if len(bounds) != n:
        raise ShapeMismatchError(f"bound vector has {len(bounds)} entries, expected {n}")
    return [None if v is None else _exact(v, f"lp_solve: {name}", j) for j, v in enumerate(bounds)]


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``(ints, s)``: ``values`` times ``s``, the lcm of their denominators."""
    scale = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _solve_leq_form(
    cost: list[int],
    rows: list[list[int]],
    rhs: list[int],
    scales: list[int],
) -> tuple[str, list[Fraction], Fraction, int]:
    """min cost.z subject to rows.z <= rhs, z >= 0, via two-phase simplex.

    Row i is the original row times ``scales[i]``.  Returns
    ``(status, z, cost.z, pivots)``.
    """
    m = len(rows)
    nz = len(cost)
    # Variables are numbered z (0..nz-1), the slack of row i (nz + i) and
    # the artificial of the k-th row with negative rhs (nz + m + k).  Such
    # a row is negated, its slack gets coefficient -1 and its artificial
    # starts in the basis; every other row starts with its slack.  The
    # slack and artificial of row i stand for scales[i] times the original
    # ones, so the starting basis is the identity.
    neg = [i for i in range(m) if rhs[i] < 0]
    artificial_floor = nz + m
    width = artificial_floor + len(neg)
    artificial = {i: k for k, i in enumerate(neg)}
    tableau_rows = []
    basis = []
    for i in range(m):
        row = rows[i] + [0] * len(neg) + [rhs[i]]
        k = artificial.get(i)
        if k is None:
            basis.append(nz + i)
        else:
            row = [-v for v in row]
            row[nz + k] = -1
            basis.append(artificial_floor + k)
        tableau_rows.append(row)
    tableau = _Tableau(tableau_rows, basis, list(range(nz)) + [nz + i for i in neg])

    if neg:
        # Phase 1: drive the artificial total to zero.  Artificial k
        # stands for s_k times the original one, so its cost is 1/s_k,
        # scaled by the lcm P of those s_k to P / s_k.
        lcm = math.lcm(*[scales[i] for i in neg])
        red = tableau.reduced_costs([0] * artificial_floor + [lcm // scales[i] for i in neg])
        tableau.pivot_until_optimal(red, width)  # never unbounded: the objective is >= 0
        if red[-1] != 0:  # minimized artificial sum stayed positive
            return INFEASIBLE, [], _ZERO, tableau.pivots
        tableau.evict_artificials(artificial_floor)

    red = tableau.reduced_costs(cost + [0] * (width - nz))
    if tableau.pivot_until_optimal(red, artificial_floor) == UNBOUNDED:
        return UNBOUNDED, [], _ZERO, tableau.pivots
    denom = tableau.denom
    z = [_ZERO] * nz
    for row, var in zip(tableau.rows, basis):
        if var < nz:
            z[var] = Fraction(row[-1], denom)
    # The rhs slot of the reduced-cost row holds -D * cost.z.
    return OPTIMAL, z, Fraction(-red[-1], denom), tableau.pivots


class _Tableau:
    """A fraction-free simplex tableau that stores the nonbasic columns only.

    ``rows[i][j] / denom`` is the coefficient of variable ``cols[j]`` in
    the row of basic variable ``basis[i]``; the last entry of a row is its
    rhs.  ``denom`` (D) is a positive int.  The column of a basic variable
    would be D times a unit vector, so it is not kept.
    """

    def __init__(self, rows: list[list[int]], basis: list[int], cols: list[int]):
        self.rows = rows
        self.basis = basis
        self.cols = cols
        self.denom = 1
        self.pivots = 0

    def reduced_costs(self, cost: list[int]) -> list[int]:
        """D times c_j - c_B . B^-1 A_j for each stored column, then -D * objective."""
        red = [self.denom * cost[var] for var in self.cols] + [0]
        for row, var in zip(self.rows, self.basis):
            cb = cost[var]
            if cb:
                red = [r - cb * t for r, t in zip(red, row)]
        return red

    def pivot_until_optimal(self, red: list[int], limit: int) -> str:
        """Bland-rule pivoting until no variable below ``limit`` has a
        negative reduced cost."""
        rows = self.rows
        basis = self.basis
        while True:
            # Bland: the lowest-numbered variable with negative reduced cost.
            enter = -1
            lowest = limit
            for j, var in enumerate(self.cols):
                if var < lowest and red[j] < 0:
                    enter, lowest = j, var
            if enter < 0:
                return OPTIMAL
            # Ratio test: rhs_i / coef_i compared by cross-multiplication,
            # since D cancels and every coef taken is positive.  Ties go to
            # the lowest-numbered basic variable.
            leave = -1
            for i, row in enumerate(rows):
                coef = row[enter]
                if coef > 0:
                    if leave >= 0:
                        lhs = row[-1] * best_coef
                        rhs = best_rhs * coef
                        if lhs > rhs or (lhs == rhs and basis[i] > basis[leave]):
                            continue
                    leave, best_rhs, best_coef = i, row[-1], coef
            if leave < 0:
                return UNBOUNDED
            self.pivot(leave, enter, red)

    def pivot(self, r: int, col: int, red: Optional[list[int]] = None) -> None:
        """Exchange basic ``basis[r]`` and nonbasic ``cols[col]`` by a Bareiss step.

        Every other row, ``red`` included, becomes
        ``(p*T[i] - T[i][col]*T[r]) // D``, and D becomes p, the pivot.
        Column ``col`` then holds the leaving variable, whose column was D
        times a unit vector: it becomes -T[i][col] and D in the pivot row.
        A negative pivot (eviction only) negates the pivot row first, and
        with it the whole tableau, which keeps D positive.
        """
        rows = self.rows
        prow = rows[r]
        p = prow[col]
        d = self.denom
        negated = p < 0
        if negated:
            prow = rows[r] = [-v for v in prow]
            p = -p

        def update(row: list[int]) -> list[int]:
            f = row[col]
            if f:
                new = [(p * a - f * b) // d for a, b in zip(row, prow)]
                new[col] = f if negated else -f
                return new
            return row if p == d else [p * a // d for a in row]

        for i, row in enumerate(rows):
            if i != r:
                rows[i] = update(row)
        if red is not None:
            red[:] = update(red)
        prow[col] = -d if negated else d
        self.basis[r], self.cols[col] = self.cols[col], self.basis[r]
        self.denom = p
        self.pivots += 1

    def evict_artificials(self, artificial_floor: int) -> None:
        """Pivot basic artificial variables out, then drop their columns.

        After phase 1 an artificial can linger in the basis at value zero;
        pivoting on the lowest-numbered variable with a nonzero coefficient
        in its row removes it.  A row with no such coefficient is a
        redundant constraint and is harmless to keep, since its artificial
        stays pinned at zero.  Nonbasic artificials never enter again, so
        their columns go.
        """
        for i, var in enumerate(self.basis):
            if var < artificial_floor:
                continue
            row = self.rows[i]
            usable = [(v, j) for j, v in enumerate(self.cols) if v < artificial_floor and row[j]]
            if usable:
                self.pivot(i, min(usable)[1])
        keep = [j for j, var in enumerate(self.cols) if var < artificial_floor]
        self.cols = [self.cols[j] for j in keep]
        keep.append(-1)  # the rhs
        self.rows = [[row[j] for j in keep] for row in self.rows]

"""Two-phase simplex over exact integer arithmetic, and the certified
float-guided path that the package's LPs take.

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

The package solves three kinds of LP, and each is an integer ≤-form
(:class:`_LeqForm`) over nonnegative z: the coordinate LPs of a region
{x : A x <= b} and the mixed inner LP, whose free x_j is z_2j - z_2j+1
(:func:`_leq_rows`), and the lifted LP, whose s and t are z itself,
with a row for each upper bound (:func:`_lifted`).  The region's
coordinate LPs and its lifted LP go through :func:`_optima`, which
certifies a float-guided basis in place of pivoting exactly (the
approach of exact LP codes such as QSopt_ex; Applegate, Cook, Dash &
Espinoza 2007):

- *Guide.*  A float64 two-phase simplex in numpy (Dantzig's rule,
  equilibrated rows, a pivot cap, floating-point warnings off) proposes
  the basis it stops at.  LPs over one region's rows that differ only in
  the cost share one stacked guide (:mod:`l1opt.lp_guide`).
- *Certificate.*  The basic columns and the tight rows (those whose
  slack is nonbasic) form a k x k integer system.  A tight row with one
  nonzero among the basic columns, such as a bound row, pins its
  column.  The block of the other rows and columns is factored once, by
  fraction-free forward elimination, which leaves its LU factors in
  place (Nakos, Turner & Williams 1997): exact integer back-substitution
  gives the remaining basic values, an O(k^2) replay of the same factors
  transposed gives the duals of its rows (Zhou & Jeffrey 2008), and the
  pinned rows' duals follow by back-substitution.  The basis is accepted
  only when, exactly, the basic values are >= 0, every row holds, and
  the duals and the reduced costs of the nonbasic columns are >= 0:
  primal and dual feasibility, so the point is optimal.  The certificate
  is that point z, as integer numerators over one denominator, which
  ``_LeqForm.result`` turns into x and the value, one Fraction each;
  whether the optimum is unique is not decided.
- *Fallback.*  Data past the float range, a non-finite value, the cap, a
  singular basis, a failed check or a guide status other than optimal
  all lead to the exact simplex (``_LeqForm.solve``).  Status and value
  are therefore always the exact simplex's.  ``x`` is an exact optimal
  point; it is the exact simplex's vertex whenever the optimum is
  unique, and may be another optimal vertex at a tie.
  ``LPResult.certified`` says which path answered.

On the 2n + 1 LPs of ``complexity.estimate_bound`` at 12 variables and
48 rows, the guide's basis passes.  The 2n coordinate LPs share their
region's constraint rows (``_leq_rows``), differ only in the cost
(``_LeqForm.priced``) and go through one stacked guide (``_optima``);
the lifted LP's form is those rows with their columns reordered, plus
its bound rows (``_lifted``).  On the 600 certificates of the
benchmark's bound jobs (seeds 1-3), one factorization and its
transposed replay took 0.13-0.16 s against 0.21-0.23 s for the two
forward eliminations that solved the primal and the transposed system
apart (7 alternating runs, 2-core host).  Pinning keeps the bound rows
of the lifted LP, with denominators of about 120 bits, out of the
elimination, whose integers would otherwise grow to about 1,400 bits.
The inner LP of a linear mixed solve is priced once, and each integer
point sets only its rhs and runs the exact simplex, not the guide,
whose fixed cost made a solve about 1.3 times slower.

The layer is internal.  The general LP with per-variable bounds (x =
L + z, x = U - z), built on these same forms, is a reference entry
point of the tests (``tests/oracles.py``), which drive the simplex,
the guide and the certificate through it.

Intended for small instances (tens of variables): the coordinate-range
and lifted-radius programs of the runtime-bound estimator, and LP
subproblems of mixed integer/continuous solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import ShapeMismatchError
from .lp_guide import _guide_bases

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    """``pivots`` counts the exact simplex's pivots: those of phase 1, of
    artificial eviction and of phase 2.  ``certified`` is True when
    :func:`_optima` answered from a certified guide basis, with no exact
    pivot."""

    status: str
    value: Optional[Fraction]
    x: Optional[tuple[Fraction, ...]]
    pivots: int = 0
    certified: bool = False


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


class _LeqForm(NamedTuple):
    """min cost.z subject to rows.z <= rhs, z >= 0: an LP over nonnegative
    z after the per-row integer scaling.

    Row i is the original row times ``scales[i]``.  ``subs[j]`` holds the
    ``(k, sign)`` pairs with x_j the sum of sign * z_k over them: z_2j -
    z_2j+1 for a free x_j, z_j for a variable of the lifted LP.  The z
    columns are numbered in order of j, and each x_j's columns in order
    of its pairs.  The constraint part, from :func:`_leq_rows`, has no
    cost yet; :meth:`priced` adds one, so LPs over one region share its
    rows.  ``cost`` is then the cost (negated for "max") in z times
    ``cost_scale``.
    """

    rows: list[list[int]]
    rhs: list[int]
    scales: list[int]
    subs: list[tuple]
    cost: Optional[list[int]] = None
    cost_scale: int = 1
    maximize: bool = False

    def priced(self, c: list[Fraction], maximize: bool) -> _LeqForm:
        """This form's constraints under the objective ``c``, maximized or minimized."""
        ints, scale = _scaled([-v for v in c] if maximize else c)
        # Not _replace: each call of it leaves one more spare 7-tuple in
        # CPython's tuple free list, up to 2,000 of them (about 0.2 MB).
        return _LeqForm(self.rows, self.rhs, self.scales, self.subs, _expand(ints, self.subs), scale, maximize)

    def solve(self, rhs: Optional[list[int]] = None) -> LPResult:
        """The exact Bland simplex on this form, or on its rows under ``rhs``."""
        status, nums, d, pivots = _solve_leq_form(self.cost, self.rows, self.rhs if rhs is None else rhs, self.scales)
        if status != OPTIMAL:
            return LPResult(status, None, None, pivots)
        return self.result(nums, d, pivots)

    def result(self, nums: list[int], d: int, pivots: int, certified: bool = False) -> LPResult:
        """The optimal result at z = nums / d, with d > 0, in terms of x.

        Each x_j and the objective is built from integers as one Fraction,
        so each costs one gcd."""
        x = tuple(Fraction(sum(nums[k] * sign for k, sign in terms), d) for terms in self.subs)
        value = sum(map(mul, self.cost, nums))
        value = Fraction(-value if self.maximize else value, d * self.cost_scale)
        return LPResult(OPTIMAL, value, x, pivots, certified)


def _optima(forms: Sequence[_LeqForm]) -> Iterator[LPResult]:
    """For each form, in order, as they are asked for: the result at the
    guide's basis if :func:`_certify` accepts it, else ``form.solve()``.

    Every form is priced from one region's rows, so all share one stacked
    guide, :func:`_guide_bases`; a form that broke this would only cost an
    exact fallback, as each certificate checks its own form's rows.
    """
    bases = _guide_bases(forms[0], [form.cost for form in forms]) if forms else []
    for form, basis in zip(forms, bases):
        certificate = None if basis is None else _certify(form, basis)
        yield form.solve() if certificate is None else form.result(*certificate, 0, certified=True)


def _leq_rows(where, A, b, n) -> _LeqForm:
    """The constraint part of the ≤-form of A x <= b over n free
    variables, each x_j = z_2j - z_2j+1.  Each row is cleared of
    denominators on its own, rhs included."""
    rows = [exact_rationals(row, f"{where}: A[{i}]") for i, row in enumerate(A)]
    rhs = exact_rationals(b, f"{where}: b")
    for row in rows:
        if len(row) != n:
            raise ShapeMismatchError(f"constraint row has {len(row)} entries, expected {n}")
    if len(rows) != len(rhs):
        raise ShapeMismatchError("A and b disagree on the number of constraints")
    form = _LeqForm([], [], [], [((2 * j, 1), (2 * j + 1, -1)) for j in range(n)])
    for row, beta in zip(rows, rhs):
        ints, scale = _scaled(row + [beta])
        form.rhs.append(ints.pop())
        form.rows.append(_expand(ints, form.subs))
        form.scales.append(scale)
    return form


def _bounded(rows, rhs, scales, subs, bounds) -> _LeqForm:
    """The ≤-form of ``rows`` plus the row z_col <= bound for each
    ``(col, bound)`` of ``bounds``, scaled by the bound's denominator."""
    width = sum(len(terms) for terms in subs)
    rows = rows + [[0] * col + [bound.denominator] + [0] * (width - 1 - col) for col, bound in bounds]
    rhs = rhs + [bound.numerator for _, bound in bounds]
    return _LeqForm(rows, rhs, scales + [bound.denominator for _, bound in bounds], subs)


def _lifted(region: _LeqForm, cost: list[Fraction], upper: Sequence) -> _LeqForm:
    """max cost.(s, t) subject to A (s - t) <= b and 0 <= (s, t) <= upper,
    from ``region``, ``_leq_rows(where, A, b, n)``.

    Each free x_j of the region is z_2j - z_2j+1, so the region's rows,
    with their z columns reordered as every z_2j and then every z_2j+1,
    are the integers that the rows of [A | -A] scale to, under the same
    rhs and scales.  Each upper bound that is not None adds its row (a
    negative one leaves the LP infeasible); the form is the one that the
    general LP with lower bounds 0 builds (``tests/oracles.py``).  The
    caller checks that ``cost`` and ``upper`` have 2n entries.
    """
    width = 2 * len(region.subs)
    bounds = [(j, u) for j, u in enumerate(_bound_list(upper, width, "lp_optimum", "upper")) if u is not None]
    rows = [row[0::2] + row[1::2] for row in region.rows]
    subs = [((j, 1),) for j in range(width)]
    return _bounded(rows, region.rhs, region.scales, subs, bounds).priced(cost, True)


def _expand(row: Sequence[int], subs: list[tuple]) -> list[int]:
    """``row``, one entry per x_j, as one entry per z column.  Each z column
    comes from one variable, in order, so this only places and negates
    entries: the row keeps its denominators and its scale."""
    return [coef if sign > 0 else -coef for coef, terms in zip(row, subs) for _, sign in terms]


def _bound_list(bounds: Optional[Sequence], n: int, where: str, name: str) -> list[Optional[Fraction]]:
    if bounds is None:
        return [None] * n
    if len(bounds) != n:
        raise ShapeMismatchError(f"bound vector has {len(bounds)} entries, expected {n}")
    return [None if v is None else _exact(v, f"{where}: {name}", j) for j, v in enumerate(bounds)]


def _scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """``(ints, s)``: ``values`` times ``s``, the lcm of their denominators."""
    scale = math.lcm(*[v.denominator for v in values])
    return [v.numerator * (scale // v.denominator) for v in values], scale


def _solve_leq_form(
    cost: list[int],
    rows: list[list[int]],
    rhs: list[int],
    scales: list[int],
) -> tuple[str, list[int], int, int]:
    """min cost.z subject to rows.z <= rhs, z >= 0, via two-phase simplex.

    Row i is the original row times ``scales[i]``.  Returns
    ``(status, nums, d, pivots)``, with z = nums / d at an optimum.
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
            return INFEASIBLE, [], 1, tableau.pivots
        tableau.evict_artificials(artificial_floor)

    red = tableau.reduced_costs(cost + [0] * (width - nz))
    if tableau.pivot_until_optimal(red, artificial_floor) == UNBOUNDED:
        return UNBOUNDED, [], 1, tableau.pivots
    nums = [0] * nz
    for row, var in zip(tableau.rows, basis):
        if var < nz:
            nums[var] = row[-1]
    return OPTIMAL, nums, tableau.denom, tableau.pivots


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


def _certify(form: _LeqForm, basis: Sequence[int]) -> Optional[tuple[list[int], int]]:
    """``(nums, d)``, with z = nums / d, at ``basis`` when exact arithmetic
    shows it is an optimal basis of ``form``, else None.

    A basis names m variables (z_j is j, the slack of row i is nz + i).
    Its basic z columns and its tight rows (those whose slack is
    nonbasic) form a k x k system.  A tight row with one nonzero among
    the basic columns pins that column at rhs / entry.  One fraction-free
    factorization of the block of the other rows and columns, its rhs
    less the pinned values (:func:`_solve_square`), gives the remaining
    basic values and, replayed transposed (:func:`_solve_transposed`),
    the duals of its rows; each pinned row's dual then follows by
    back-substitution.  The basis is optimal when the basic values are
    >= 0, every other row holds, and the duals and the reduced costs of
    the nonbasic z columns are >= 0: primal and dual feasibility, and
    nothing more.  Returns None otherwise, or when the system is
    singular, as it is when two rows pin one column.
    """
    rows, rhs, cost = form.rows, form.rhs, form.cost
    m, nz = len(rows), len(cost)
    if len(set(basis)) != m or not all(0 <= var < nz + m for var in basis):
        return None
    cols = sorted(var for var in basis if var < nz)
    loose = {var - nz for var in basis if var >= nz}
    pins = {}  # basic column -> the tight row that pins it
    block = []  # the other tight rows
    for i in (i for i in range(m) if i not in loose):
        support = [j for j in cols if rows[i][j]]
        if len(support) != 1:
            block.append(i)
        elif pins.setdefault(support[0], i) != i:
            return None  # a second row pins the column: singular
    free = [j for j in cols if j not in pins]
    # Pinned values times ``scale``, the lcm of the pinning entries.
    scale = math.lcm(*[rows[i][j] for j, i in pins.items()])
    pinned = {j: rhs[i] * (scale // rows[i][j]) for j, i in pins.items()}
    primal = _solve_square(
        [[rows[i][j] for j in free] for i in block],
        [rhs[i] * scale - sum(rows[i][j] * v for j, v in pinned.items() if rows[i][j]) for i in block],
    )
    if primal is None:
        return None
    nums, d, lu = primal
    solved = dict(zip(free, nums))
    values = [solved[j] if j in solved else pinned[j] * d for j in cols]
    e, d = d, d * scale  # every basic value is values[.] / d
    if any(v < 0 for v in values):
        return None
    # Tight rows hold with equality by construction.
    for i in loose:
        if sum(map(mul, [rows[i][j] for j in cols], values)) > rhs[i] * d:
            return None
    block_duals = _solve_transposed(lu, [-cost[j] for j in free])
    duals = {i: y * scale for i, y in zip(block, block_duals)}
    for j, i in pins.items():
        rest = sum(map(mul, [rows[r][j] for r in block], block_duals))
        duals[i] = (-cost[j] * e - rest) * (scale // rows[i][j])
    e *= scale  # every dual is duals[.] / e
    if any(y < 0 for y in duals.values()):
        return None
    tight, ys = list(duals), list(duals.values())
    for j in set(range(nz)).difference(cols):  # the nonbasic z columns
        if cost[j] * e + sum(map(mul, [rows[i][j] for i in tight], ys)) < 0:
            return None
    z = dict(zip(cols, values))
    return [z.get(j, 0) for j in range(nz)], d


def _solve_square(M: list[list[int]], rhs: list[int]) -> Optional[tuple[list[int], int, tuple]]:
    """``(nums, d, lu)`` with ``M x = rhs`` at ``x = nums / d`` and d > 0,
    or None when M is singular.

    Fraction-free forward elimination: each step is the Bareiss update
    ``(p*a - f*b) // prev`` of the simplex tableau on the rows below the
    pivot, and every division is exact.  The last pivot is det(M) up to
    sign, d is its absolute value, and d times the solution is integral
    (Cramer's rule), so exact integer back-substitution gives it from the
    triangle:
    ``nums[i] = (d*T[i][k] - sum(T[i][j] * nums[j] for j > i)) // T[i][i]``.

    The pass leaves M's fraction-free LU in T (Nakos, Turner & Williams
    1997): U on and above the diagonal, and L below it, since column c of
    the rows under the pivot is never written after step c.  ``lu`` is
    ``(T, order)``, where row i of T comes from row ``order[i]`` of M, for
    :func:`_solve_transposed`.
    """
    k = len(M)
    T = [row + [beta] for row, beta in zip(M, rhs)]
    order = list(range(k))
    prev = 1
    for c in range(k):
        r = next((i for i in range(c, k) if T[i][c]), None)
        if r is None:
            return None
        T[c], T[r] = T[r], T[c]
        order[c], order[r] = order[r], order[c]
        prow = T[c][c + 1 :]
        p = T[c][c]
        for row in T[c + 1 :]:
            f = row[c]
            if f:
                row[c + 1 :] = [(p * a - f * b) // prev for a, b in zip(row[c + 1 :], prow)]
            elif p != prev:
                row[c + 1 :] = [p * a // prev for a in row[c + 1 :]]
        prev = p
    nums = [0] * k
    for i in range(k - 1, -1, -1):
        row = T[i]
        nums[i] = (abs(prev) * row[k] - sum(map(mul, row[i + 1 : k], nums[i + 1 :]))) // row[i]
    return nums, abs(prev), (T, order)


def _solve_transposed(lu: tuple, g: list[int]) -> list[int]:
    """``nums`` with ``M^T y = g`` at ``y = nums / d``, where ``lu`` and d
    come from :func:`_solve_square` on M.

    With P the pivot order, PM = L D^-1 U gives (PM)^T = U^T D^-1 L^T, the
    fraction-free LU of (PM)^T with the same pivots and no row exchange
    (Zhou & Jeffrey 2008).  So Bareiss elimination of (PM)^T would take
    row c of U as its multipliers at step c and leave L^T as its
    triangle: the rhs is eliminated by replaying U's rows on g, d times
    Py comes by back-substitution against L^T, column by column, and
    un-permuting gives d times y.  O(k^2), with no second elimination.
    """
    T, order = lu
    g = list(g)
    prev = 1
    for c, row in enumerate(T):
        g[c + 1 :] = [(row[c] * a - g[c] * u) // prev for a, u in zip(g[c + 1 :], row[c + 1 : -1])]
        prev = row[c]
    nums = [abs(prev) * a for a in g]
    for i in range(len(T) - 1, -1, -1):
        nums[i] //= T[i][i]
        nums[:i] = [a - u * nums[i] for a, u in zip(nums[:i], T[i])]
    return [v for _, v in sorted(zip(order, nums))]

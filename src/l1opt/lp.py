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

``lp_optimum`` takes the same LPs, builds the same integer ≤-form, and
certifies a float-guided basis instead of pivoting exactly (the approach
of exact LP codes such as QSopt_ex; Applegate, Cook, Dash & Espinoza
2007):

- *Guide.*  A float64 two-phase simplex in numpy (Dantzig's rule,
  equilibrated rows, a pivot cap, floating-point warnings off) proposes
  the basis it stops at.  LPs over one region's rows that differ only in
  the cost share one stacked guide (:mod:`l1opt.lp_guide`).
- *Certificate.*  The basic columns and the tight rows (those whose
  slack is nonbasic) form a k x k integer system.  A tight row with one
  nonzero among the basic columns, such as a variable bound, pins its
  column; fraction-free forward elimination and exact integer
  back-substitution solve the block of the other rows and columns for
  the remaining basic values and, transposed, for their duals, and the
  pinned rows' duals follow by back-substitution.  The basis is accepted
  only when, exactly, the basic values are >= 0, every row holds, and
  the duals and the reduced costs of the nonbasic columns are >= 0:
  primal and dual feasibility, so the point is optimal.
- *Fallback.*  Data past the float range, a non-finite value, the cap, a
  singular basis, a failed check or a guide status other than optimal
  all lead to ``lp_solve``.  Status and value are therefore always
  ``lp_solve``'s, and exact.  ``x`` is an exact optimal point; it is
  ``lp_solve``'s vertex whenever every nonbasic reduced cost is positive,
  since the optimum is then unique, and may be another optimal vertex at
  a tie.  ``LPResult.certified`` says which path answered.

On the 2n + 1 LPs of ``complexity.estimate_bound`` at 12 variables and
48 rows, the guide's basis passes.  The 2n coordinate LPs share their
region's constraint rows (``_leq_rows``), differ only in the cost
(``_LeqForm.priced``) and go through one stacked guide (``_optima``).
On the 1,200 certificate systems of the benchmark's bound jobs (seeds
1-3), forward elimination took 0.20-0.25 s against 0.34 s for Gauss-Jordan
(best of 5, 2-core host).  Pinning keeps the bound rows of the lifted LP,
with denominators of about 120 bits, out of the elimination, whose
integers would otherwise grow to about 1,400 bits.  The inner LPs of a
linear mixed solve use ``lp_solve``.  With the block evaluator the mixed
solver decides every integer point through the LPs' duals and solves one
LP, at the winner; the per-point evaluator, for a wrapped inner solver,
solves one per point, where the guide's fixed cost made a solve about 1.3 times
slower.

Intended for small instances (tens of variables): the coordinate-range
and lifted-radius programs of the runtime-bound estimator, and LP
subproblems of mixed integer/continuous solves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import ShapeMismatchError
from .lp_guide import _guide_bases

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LPResult:
    """``pivots`` counts the exact simplex's pivots: those of phase 1, of
    artificial eviction and of phase 2.  ``certified`` is True when
    ``lp_optimum`` answered from a certified guide basis, with no exact
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
    form = _leq_form("lp_solve", c, A, b, sense, lower, upper)
    return LPResult(INFEASIBLE, None, None) if form is None else form.solve()


def lp_optimum(
    c: Sequence,
    A: Sequence[Sequence],
    b: Sequence,
    sense: str = "min",
    lower: Optional[Sequence] = None,
    upper: Optional[Sequence] = None,
) -> LPResult:
    """``lp_solve``'s status and value, from a float-guided basis when it
    can be certified exactly.

    A float64 simplex proposes a basis and :func:`_certify` checks it in
    integer arithmetic; if the guide fails or the check does, this is
    ``lp_solve``.  ``x`` is an exact optimal point, ``lp_solve``'s own
    whenever the optimum is unique, but at a tie it may be another
    optimal vertex.  ``certified`` tells which path answered.
    """
    form = _leq_form("lp_optimum", c, A, b, sense, lower, upper)
    return LPResult(INFEASIBLE, None, None) if form is None else form.optimum()


class _LeqForm(NamedTuple):
    """min cost.z subject to rows.z <= rhs, z >= 0: an LP after the bound
    substitution and the per-row integer scaling.

    Row i is the original row times ``scales[i]``.  ``subs[j]`` says how
    x_j is made of z: ``("shift_lo", L, k)`` is L + z_k, ``("shift_hi", U,
    k)`` is U - z_k and ``("split", p, q)`` is z_p - z_q.  The constraint
    part, from :func:`_leq_rows`, has no cost yet; :meth:`priced` adds
    one, so LPs over one region share its rows.  ``cost`` is then the cost
    (negated for "max") in z times ``cost_scale``, and ``cost_shift`` is
    the constant that the bound shifts add to it.
    """

    rows: list[list[int]]
    rhs: list[int]
    scales: list[int]
    subs: list[tuple]
    cost: Optional[list[int]] = None
    cost_scale: int = 1
    cost_shift: Fraction = _ZERO
    maximize: bool = False

    def priced(self, c: list[Fraction], maximize: bool) -> _LeqForm:
        """This form's constraints under the objective ``c``, maximized or minimized."""
        signed = [-v for v in c] if maximize else c
        ints, scale = _scaled(signed)
        cost, shift = _expand(ints, self.subs), _constant_part(signed, self.subs)
        # Not _replace: each call of it leaves one more spare 8-tuple in
        # CPython's tuple free list, up to 2,000 of them (about 0.2 MB).
        return _LeqForm(self.rows, self.rhs, self.scales, self.subs, cost, scale, shift, maximize)

    def solve(self) -> LPResult:
        """The exact Bland simplex on this form."""
        status, z, value, pivots = _solve_leq_form(self.cost, self.rows, self.rhs, self.scales)
        if status != OPTIMAL:
            return LPResult(status, None, None, pivots)
        return self.result(z, value, pivots)

    def optimum(self) -> LPResult:
        """The result at the guide's basis if :func:`_certify` accepts it, else :meth:`solve`."""
        return next(_optima([self]))

    def result(
        self, z: list[Fraction], value: Fraction, pivots: int, certified: bool = False
    ) -> LPResult:
        """The optimal result for ``z`` with ``cost.z == value``, in terms of x."""
        x = []
        for sub in self.subs:
            if sub[0] == "shift_lo":
                x.append(sub[1] + z[sub[2]])
            elif sub[0] == "shift_hi":
                x.append(sub[1] - z[sub[2]])
            else:
                x.append(z[sub[1]] - z[sub[2]])
        objective = value / self.cost_scale + self.cost_shift
        if self.maximize:
            objective = -objective
        return LPResult(OPTIMAL, objective, tuple(x), pivots, certified)


def _optima(forms: Sequence[_LeqForm]) -> Iterator[LPResult]:
    """``form.optimum()`` for each form, in order, as they are asked for.

    Consecutive forms that share one region's rows (priced from one
    :func:`_leq_rows` form) share one stacked guide, :func:`_guide_bases`;
    the certificates and any exact fallbacks follow one LP at a time.
    """
    for _, group in itertools.groupby(forms, key=lambda form: id(form.rows)):
        group = list(group)
        for form, basis in zip(group, _guide_bases(group[0], [form.cost for form in group])):
            certificate = None if basis is None else _certify(form, basis)
            if certificate is None:
                yield form.solve()
            else:
                yield form.result(certificate.z, certificate.value, 0, certified=True)


def _leq_form(where, c, A, b, sense, lower, upper) -> Optional[_LeqForm]:
    """The ≤-form of an LP given to the entry point ``where``, or None when
    a lower bound exceeds its upper bound (the LP is infeasible)."""
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    cost = exact_rationals(c, f"{where}: c")
    form = _leq_rows(where, A, b, len(cost), lower, upper)
    return None if form is None else form.priced(cost, sense == "max")


def _leq_rows(where, A, b, n, lower, upper) -> Optional[_LeqForm]:
    """The constraint part of :func:`_leq_form` over n variables."""
    rows = [exact_rationals(row, f"{where}: A[{i}]") for i, row in enumerate(A)]
    rhs = exact_rationals(b, f"{where}: b")
    for row in rows:
        if len(row) != n:
            raise ShapeMismatchError(f"constraint row has {len(row)} entries, expected {n}")
    if len(rows) != len(rhs):
        raise ShapeMismatchError("A and b disagree on the number of constraints")
    lo = _bound_list(lower, n, where, "lower")
    hi = _bound_list(upper, n, where, "upper")
    for j in range(n):
        if lo[j] is not None and hi[j] is not None and lo[j] > hi[j]:
            return None

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

    # Each row is cleared of denominators on its own, rhs included.
    std_rows = []
    std_rhs = []
    scales = []
    for row, beta in zip(rows, rhs):
        shift = _constant_part(row, subs)
        ints, scale = _scaled(row + [beta - shift if shift else beta])
        std_rhs.append(ints.pop())
        std_rows.append(_expand(ints, subs))
        scales.append(scale)
    for col, bound in extra_rows:
        row = [0] * num_z
        row[col] = bound.denominator
        std_rows.append(row)
        std_rhs.append(bound.numerator)
        scales.append(bound.denominator)
    return _LeqForm(std_rows, std_rhs, scales, subs)


def _expand(row: Sequence[int], subs: list[tuple]) -> list[int]:
    """``row``, one entry per x_j, as one entry per z column.  Each z column
    comes from one variable, so this only places and negates entries: the
    row keeps its denominators and its scale."""
    out = [0] * (subs[-1][-1] + 1 if subs else 0)  # the last sub holds the last z column
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


def _constant_part(row: Sequence[Fraction], subs: list[tuple]) -> Fraction:
    """The part of ``row``.x that the bound shifts make constant."""
    terms = (coef * sub[1] for coef, sub in zip(row, subs) if coef and sub[0] != "split" and sub[1])
    return sum(terms, _ZERO)


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


class _Certificate(NamedTuple):
    z: list[Fraction]
    value: Fraction  # cost.z
    unique: bool  # every nonbasic reduced cost is positive, so z is the only optimum


def _certify(form: _LeqForm, basis: Sequence[int]) -> Optional[_Certificate]:
    """Check in exact arithmetic that ``basis`` is an optimal basis of ``form``.

    A basis names m variables (z_j is j, the slack of row i is nz + i).
    Its basic z columns and its tight rows (those whose slack is
    nonbasic) form a k x k system.  A tight row with one nonzero among
    the basic columns pins that column at rhs / entry.  Bareiss
    elimination solves the block of the other rows and columns, its rhs
    less the pinned values, for the remaining basic values and,
    transposed, for the duals of its rows; each pinned row's dual then
    follows by back-substitution.  The basis is optimal when the basic
    values are >= 0, every other row holds, and the duals and the reduced
    costs of the nonbasic z columns are >= 0.  Returns None otherwise, or
    when the system is singular, as it is when two rows pin one column.
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
    nums, d = primal
    solved = dict(zip(free, nums))
    values = [solved[j] if j in solved else pinned[j] * d for j in cols]
    d *= scale  # every basic value is values[.] / d
    if any(v < 0 for v in values):
        return None
    # Tight rows hold with equality by construction.
    for i in loose:
        if sum(rows[i][j] * v for j, v in zip(cols, values) if v) > rhs[i] * d:
            return None
    block_duals, e = _solve_square([[rows[i][j] for i in block] for j in free], [-cost[j] for j in free])
    duals = {i: y * scale for i, y in zip(block, block_duals)}
    for j, i in pins.items():
        rest = sum(rows[r][j] * y for r, y in zip(block, block_duals) if y)
        duals[i] = (-cost[j] * e - rest) * (scale // rows[i][j])
    e *= scale  # every dual is duals[.] / e
    if any(y < 0 for y in duals.values()):
        return None
    # A free x_j is z_p - z_q; when one of the two is basic the other's
    # reduced cost is zero without making the optimum ambiguous.
    twins = {}
    for sub in form.subs:
        if sub[0] == "split":
            twins[sub[1]], twins[sub[2]] = sub[2], sub[1]
    basic = set(cols)
    unique = all(duals.values())
    for j in range(nz):
        if j in basic:
            continue
        reduced = cost[j] * e + sum(rows[i][j] * y for i, y in duals.items() if y)
        if reduced < 0:
            return None
        if reduced == 0 and twins.get(j) not in basic:
            unique = False
    z = [_ZERO] * nz
    for j, v in zip(cols, values):
        z[j] = Fraction(v, d)
    value = Fraction(sum(cost[j] * v for j, v in zip(cols, values)), d)
    return _Certificate(z, value, unique)


def _solve_square(M: list[list[int]], rhs: list[int]) -> Optional[tuple[list[int], int]]:
    """``(nums, d)`` with ``M x = rhs`` at ``x = nums / d`` and d > 0, or
    None when M is singular.

    Fraction-free forward elimination: each step is the Bareiss update
    ``(p*a - f*b) // prev`` of the simplex tableau on the rows below the
    pivot, and every division is exact.  The last pivot d is det(M) up to
    sign, and d times the solution is integral (Cramer's rule), so exact
    integer back-substitution gives it from the triangle:
    ``nums[i] = (d*T[i][k] - sum(T[i][j] * nums[j] for j > i)) // T[i][i]``.
    """
    k = len(M)
    T = [row + [beta] for row, beta in zip(M, rhs)]
    prev = 1
    for c in range(k):
        r = next((i for i in range(c, k) if T[i][c]), None)
        if r is None:
            return None
        T[c], T[r] = T[r], T[c]
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
        total = prev * row[k] - sum(row[j] * nums[j] for j in range(i + 1, k) if nums[j])
        nums[i] = total // row[i]
    if prev < 0:
        return [-v for v in nums], -prev
    return nums, prev

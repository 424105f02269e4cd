"""Independent brute-force oracles used to validate the library.

Everything here is deliberately naive: box scans, vertex enumeration,
exact rational arithmetic.  None of it shares code paths with the
implementations under test beyond the canonical-ordinal helper, which
has its own replay-based validation, and the ``LPResult`` record the
Fraction simplex returns.

The references that only tests call live here too, not in the package:
the per-point scan over ``iter_l1_points`` that the solvers ran before
every walk went through ``l1opt.blocks.block_scan``
(:func:`reference_scan`, :func:`reference_mixed`), the fine-grid
reference for the approximation schemes (:func:`fine_grid_reference`),
the sampled Lipschitz check (:func:`check_lipschitz`), the single-cost
float guide (:func:`guide_basis_reference`) and the Gauss-Jordan solve
(:func:`solve_square_reference`, which :func:`certify_reference` runs on
a certificate's whole system) that ``l1opt.lp`` used before it stacked
its guides and eliminated forward only, and the l2 counts and covering
formulas (:func:`count_l2_lattice_brute`, :func:`l2_count_bounds`,
:func:`covering_bound_l1`, :func:`covering_bounds_linf`, built on
:func:`big_bound_ratio_power`).  Past their size budgets the brute-force
scans raise :class:`GridTooLargeError`.
"""

from __future__ import annotations

import itertools
import math
import warnings
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from l1opt.counting import (
    BigBound,
    Real,
    _require_bound_dimension,
    _within_cap,
    count_linf_lattice,
    floor_radius,
)
from l1opt.errors import InvalidDimensionError
from l1opt.lattice import LatticePoint, canonical_ordinal, iter_l1_points
from l1opt.lp import _ZERO, INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, _Certificate, _LeqForm
from l1opt.lp_guide import _GUIDE_TOL
from l1opt.ptas import ApproxSolution, LipschitzProblem, MixedSolution


class GridTooLargeError(RuntimeError):
    """A brute-force grid exceeds the configured safety budget."""


def ball_points_brute(n: int, radius) -> set[tuple[int, ...]]:
    """Integer points of the l1 ball by scanning the enclosing box."""
    rho = int(math.floor(radius))
    return {
        x
        for x in itertools.product(range(-rho, rho + 1), repeat=n)
        if sum(abs(v) for v in x) <= rho
    }


def nonneg_ball_count_brute(n: int, rho: int) -> int:
    return sum(
        1
        for x in itertools.product(range(rho + 1), repeat=n)
        if sum(x) <= rho
    )


def linf_count_brute(n: int, radius) -> int:
    rho = int(math.floor(radius))
    return sum(1 for _ in itertools.product(range(-rho, rho + 1), repeat=n))


def reference_l1_points(n: int, radius):
    """The canonical walk, one point at a time, as ``LatticePoint`` records.

    Reference for ``iter_l1_points``, sharing no code with it: it steps
    through the nondecreasing multisets u of {1, ..., rho + 1} in
    lexicographic order, takes each one's gap encoding (u_0 - 1, then
    successive differences) as the magnitude vector, and counts through
    its sign codes in binary (bit j negates the j-th nonzero entry).
    Each point costs O(n) Python steps.
    """
    rho = int(math.floor(radius))
    bound = rho + 1
    ordinal = 0
    u = [1] * n
    while True:
        gaps = [u[0] - 1] + [u[i] - u[i - 1] for i in range(1, n)]
        support = [i for i in range(n) if gaps[i]]
        for code in range(1 << len(support)):
            x = gaps[:]
            for j, pos in enumerate(support):
                if (code >> j) & 1:
                    x[pos] = -x[pos]
            yield LatticePoint(tuple(x), u[-1] - 1, ordinal)
            ordinal += 1
        j = n - 1
        while j >= 0 and u[j] == bound:
            j -= 1
        if j < 0:
            return
        u[j] += 1
        for i in range(j + 1, n):
            u[i] = u[j]


def solve_ball_brute(problem, radius, tolerance=0):
    """Reference optimum over the l1 ball with ordinal tie-breaking.

    Returns (status, objective, x).  Scans the enclosing box, keeps the
    best (value, canonical ordinal) pair.
    """
    rho = int(math.floor(radius))
    best = None
    for x in itertools.product(range(-rho, rho + 1), repeat=problem.n):
        if sum(abs(v) for v in x) > rho:
            continue
        value, residuals = problem.evaluate(x)
        if not all(g <= tolerance for g in residuals):
            continue
        key = (value, canonical_ordinal(x, rho))
        if best is None or key < best[0]:
            best = (key, x)
    if best is None:
        return ("infeasible", None, None)
    return ("optimal", best[0][0], best[1])


def solve_weighted_brute(problem, weights, radius, tolerance=0):
    """Reference optimum under a weighted l1 budget.

    Candidate magnitudes per coordinate are capped by radius/weight;
    ties break on the canonical ordinal of the reduced vector (kept
    coordinates only) at the effective radius, matching the documented
    solver tie-break.
    """
    weights = [Fraction(w) for w in weights]
    radius = Fraction(radius)
    caps = [int(radius / w) for w in weights]
    kept = [i for i, w in enumerate(weights) if w <= radius]
    if kept:
        mu = radius / min(weights)
        reduced_rho = mu.numerator // mu.denominator
    best = None
    for x in itertools.product(*(range(-c, c + 1) for c in caps)):
        if sum(w * abs(v) for w, v in zip(weights, x)) > radius:
            continue
        value, residuals = problem.evaluate(x)
        if not all(g <= tolerance for g in residuals):
            continue
        if kept:
            reduced = tuple(x[i] for i in kept)
            key = (value, canonical_ordinal(reduced, reduced_rho))
        else:
            key = (value, 0)
        if best is None or key < best[0]:
            best = (key, x)
    if best is None:
        return ("infeasible", None, None)
    return ("optimal", best[0][0], best[1])


def reference_scan(problem, rho, tolerance, stop=None, step=None, kept=None, costs=None, budget=None):
    """``l1opt.solver.scan_ball`` as a per-point scan: :func:`scan_points`
    over :func:`iter_l1_points`, one joint oracle call per point that
    passes the weighted budget, with the grid map ``step * y`` and the
    weighted embedding applied per point.  This is the package's former
    scalar path, kept as the reference of the one scan loop; a zero entry
    at a grid step is ``step * 0``, as the package now builds it."""
    n = problem.n
    if kept is None:
        walk = iter_l1_points(n, rho)
        prepare = None if step is None else (lambda y: tuple(map(step.__mul__, y)))
    else:
        walk = iter_l1_points(len(kept), rho) if kept else [LatticePoint(x=(), l1=0, ordinal=0)]
        indices = range(len(kept))
        zero = 0 if step is None else step * 0

        def prepare(y: Sequence[int]) -> Optional[tuple]:
            # Zero and pinned entries add nothing to the weighted norm, so
            # a sum over the support, in ascending kept order, matches the
            # sum over every kept coordinate bit for bit, and an infinite
            # pinned weight cannot turn it into NaN.
            x = [zero] * n
            norm = 0
            for j in itertools.compress(indices, y):
                x[kept[j]] = v = y[j] if step is None else step * y[j]
                norm += costs[j] * abs(v)
            return None if norm > budget else tuple(x)

    evaluate = oracle_evaluator(problem.evaluate, tolerance)
    return scan_points(walk, evaluate, prepare=prepare, stop=stop)


def reference_mixed(problem, radius) -> MixedSolution:
    """``l1opt.ptas.solve_mixed_integer`` as a per-point scan: one inner
    solve per integer point, by :func:`scan_points`."""

    def solve_inner(x: tuple[int, ...]):
        return x, problem.inner_solver(x)

    def inner_value(solved):
        inner = solved[1]
        return inner.value if inner.status == "optimal" else None

    walk = iter_l1_points(problem.n_int, radius)
    best, calls, points = scan_points(walk, inner_value, prepare=solve_inner)
    if best is None:
        return MixedSolution("infeasible", None, None, None, calls, points)
    value, _, (x, inner) = best
    return MixedSolution("optimal", x, tuple(inner.y), value, calls, points)


def scan_points(points, evaluate, prepare=None, stop=None):
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


def oracle_evaluator(evaluate, tolerance):
    """Per-point evaluator over joint oracles: the value when every
    constraint is at most ``tolerance``, else None."""

    def feasible_value(x):
        value, residuals = evaluate(x)
        return value if all(g <= tolerance for g in residuals) else None

    return feasible_value


def vertex_lp_brute(c, rows, rhs, sense="min"):
    """Optimal LP value by enumerating candidate vertices.

    Only valid for feasible regions that are bounded (add box rows when
    generating instances).  Returns None when no feasible vertex exists.
    """
    n = len(c)
    c = [Fraction(v) for v in c]
    rows = [[Fraction(v) for v in row] for row in rows]
    rhs = [Fraction(v) for v in rhs]
    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        x = _fraction_solve_square([rows[i] for i in subset], [rhs[i] for i in subset])
        if x is None:
            continue
        if any(
            sum(a * b for a, b in zip(row, x)) > beta for row, beta in zip(rows, rhs)
        ):
            continue
        value = sum(a * b for a, b in zip(c, x))
        if best is None or (value < best if sense == "min" else value > best):
            best = value
    return best


def fraction_lp_solve(c, A, b, sense="min", lower=None, upper=None) -> LPResult:
    """Reference for ``l1opt.lp.lp_solve``: the two-phase Bland simplex with
    every tableau entry a Fraction.

    The bound substitution, the slack and artificial columns and every
    pivot choice are those ``lp_solve`` makes on its integer tableau, so
    status, value, vertex and pivot count must all agree exactly.
    """
    n = len(c)
    cost = [Fraction(v) for v in c]
    rows = [[Fraction(v) for v in row] for row in A]
    rhs = [Fraction(v) for v in b]
    lo = [None] * n if lower is None else [None if v is None else Fraction(v) for v in lower]
    hi = [None] * n if upper is None else [None if v is None else Fraction(v) for v in upper]
    if any(l is not None and h is not None and l > h for l, h in zip(lo, hi)):
        return LPResult(INFEASIBLE, None, None, 0)
    if sense == "max":
        cost = [-v for v in cost]
    # x = L + z (lower bound), x = U - z (upper bound only), x = z+ - z- (free).
    subs = []
    num_z = 0
    extra_rows = []
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

    def expand(row):
        out = [Fraction(0)] * num_z
        for j, coef in enumerate(row):
            sub = subs[j]
            if sub[0] == "shift_lo":
                out[sub[2]] += coef
            elif sub[0] == "shift_hi":
                out[sub[2]] -= coef
            else:
                out[sub[1]] += coef
                out[sub[2]] -= coef
        return out

    def constant_part(row):
        return sum((coef * sub[1] for coef, sub in zip(row, subs) if sub[0] != "split"), Fraction(0))

    std_rows = [expand(row) for row in rows]
    std_rhs = [beta - constant_part(row) for row, beta in zip(rows, rhs)]
    for col, bound in extra_rows:
        unit = [Fraction(0)] * num_z
        unit[col] = Fraction(1)
        std_rows.append(unit)
        std_rhs.append(bound)
    status, z, value, pivots = _fraction_leq_form(expand(cost), std_rows, std_rhs)
    if status != OPTIMAL:
        return LPResult(status, None, None, pivots)
    x = []
    for sub in subs:
        if sub[0] == "shift_lo":
            x.append(sub[1] + z[sub[2]])
        elif sub[0] == "shift_hi":
            x.append(sub[1] - z[sub[2]])
        else:
            x.append(z[sub[1]] - z[sub[2]])
    objective = value + constant_part(cost)
    return LPResult(OPTIMAL, -objective if sense == "max" else objective, tuple(x), pivots)


def _fraction_leq_form(cost, rows, rhs):
    """min cost.z s.t. rows.z <= rhs, z >= 0: (status, z, value, pivots)."""
    m = len(rows)
    nz = len(cost)
    neg = [i for i in range(m) if rhs[i] < 0]
    width = nz + m + len(neg)
    art_col = {i: nz + m + k for k, i in enumerate(neg)}
    tableau = []
    basis = []
    for i in range(m):
        sgn = -1 if rhs[i] < 0 else 1
        row = [sgn * v for v in rows[i]] + [Fraction(0)] * (width - nz) + [sgn * rhs[i]]
        row[nz + i] = Fraction(sgn)
        if i in art_col:
            row[art_col[i]] = Fraction(1)
        basis.append(art_col.get(i, nz + i))
        tableau.append(row)
    pivots = [0]

    def pivot(red, r, col):
        pivot_row = tableau[r]
        pivot_row[:] = [v / pivot_row[col] for v in pivot_row]
        for target in tableau + [red]:
            factor = target[col]
            if target is not pivot_row and factor:
                target[:] = [t - factor * p for t, p in zip(target, pivot_row)]
        pivots[0] += 1

    def reduced_costs(phase_cost):
        red = list(phase_cost) + [Fraction(0)]
        for row, var in zip(tableau, basis):
            red = [r - phase_cost[var] * t for r, t in zip(red, row)]
        return red

    def optimize(red, limit):
        while True:
            enter = next((j for j in range(limit) if red[j] < 0), None)
            if enter is None:
                return OPTIMAL
            leave = None
            for i, row in enumerate(tableau):
                if row[enter] > 0:
                    ratio = row[width] / row[enter]
                    if leave is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best, leave = ratio, i
            if leave is None:
                return UNBOUNDED
            pivot(red, leave, enter)
            basis[leave] = enter

    floor = nz + m
    if neg:
        red = reduced_costs([Fraction(0)] * floor + [Fraction(1)] * len(neg))
        optimize(red, width)
        if red[width] != 0:  # the minimized artificial sum stayed positive
            return INFEASIBLE, [], Fraction(0), pivots[0]
        for i, var in enumerate(basis):
            if var >= floor:
                col = next((j for j in range(floor) if tableau[i][j] != 0), None)
                if col is not None:  # otherwise the row is redundant
                    pivot([Fraction(0)] * (width + 1), i, col)
                    basis[i] = col
    red = reduced_costs(cost + [Fraction(0)] * (width - nz))
    if optimize(red, floor) == UNBOUNDED:
        return UNBOUNDED, [], Fraction(0), pivots[0]
    z = [Fraction(0)] * nz
    for row, var in zip(tableau, basis):
        if var < nz:
            z[var] = row[width]
    return OPTIMAL, z, sum((a * v for a, v in zip(cost, z)), Fraction(0)), pivots[0]


def _fraction_solve_square(M, v):
    """Exact solution of a square system, or None if singular."""
    n = len(v)
    aug = [list(row) + [v[i]] for i, row in enumerate(M)]
    row_at = 0
    for col in range(n):
        pivot = next((r for r in range(row_at, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[row_at], aug[pivot] = aug[pivot], aug[row_at]
        inv = Fraction(1) / aug[row_at][col]
        aug[row_at] = [e * inv for e in aug[row_at]]
        for r in range(n):
            if r != row_at and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row_at])]
        row_at += 1
    return [aug[i][n] for i in range(n)]


def certify_reference(form: _LeqForm, basis: Sequence[int]) -> Optional[_Certificate]:
    """Reference for ``l1opt.lp._certify``: the same checks with no pinned
    rows, the whole k x k system eliminated at once.

    Check in exact arithmetic that ``basis`` is an optimal basis of ``form``.

    A basis names m variables (z_j is j, the slack of row i is nz + i).
    Its basic z columns and its tight rows (those whose slack is
    nonbasic) form a k x k system; Bareiss elimination solves it for the
    basic values and, transposed, for the duals of the tight rows.  The
    basis is optimal when the basic values are >= 0, every other row
    holds, and the duals and the reduced costs of the nonbasic z columns
    are >= 0.  Returns None otherwise, or when the system is singular.
    """
    rows, rhs, cost = form.rows, form.rhs, form.cost
    m, nz = len(rows), len(cost)
    if len(set(basis)) != m or not all(0 <= var < nz + m for var in basis):
        return None
    cols = sorted(var for var in basis if var < nz)
    loose = {var - nz for var in basis if var >= nz}
    tight = [i for i in range(m) if i not in loose]
    primal = solve_square_reference([[rows[i][j] for j in cols] for i in tight], [rhs[i] for i in tight])
    if primal is None:
        return None
    values, d = primal
    if any(v < 0 for v in values):
        return None
    # Tight rows hold with equality by construction.
    for i in loose:
        if sum(rows[i][j] * v for j, v in zip(cols, values) if v) > rhs[i] * d:
            return None
    duals, e = solve_square_reference([[rows[i][j] for i in tight] for j in cols], [-cost[j] for j in cols])
    if any(y < 0 for y in duals):
        return None
    # A free x_j is z_p - z_q; when one of the two is basic the other's
    # reduced cost is zero without making the optimum ambiguous.
    twins = {}
    for sub in form.subs:
        if sub[0] == "split":
            twins[sub[1]], twins[sub[2]] = sub[2], sub[1]
    basic = set(cols)
    unique = all(duals)
    for j in range(nz):
        if j in basic:
            continue
        reduced = cost[j] * e + sum(rows[i][j] * y for i, y in zip(tight, duals) if y)
        if reduced < 0:
            return None
        if reduced == 0 and twins.get(j) not in basic:
            unique = False
    z = [_ZERO] * nz
    for j, v in zip(cols, values):
        z[j] = Fraction(v, d)
    value = Fraction(sum(cost[j] * v for j, v in zip(cols, values)), d)
    return _Certificate(z, value, unique)


def guide_basis_reference(form: _LeqForm) -> Optional[list[int]]:
    """Reference for ``l1opt.lp_guide._guide_bases``: one cost, one tableau.

    The basis at which a float64 two-phase simplex on ``form`` stops optimal.

    Variables are numbered as in ``_solve_leq_form``: z, then the slack
    of each row.  Returns None when the data leaves the float range, when
    a value turns non-finite, at the pivot cap, or when the guide finds
    the LP infeasible or unbounded; the exact simplex decides those.
    Pivots take the most negative reduced cost (Dantzig's rule: on the
    benchmark's bound LPs about 60% of Bland's pivots), and the cap
    stops any cycling.
    """
    m, nz = len(form.rows), len(form.cost)
    width = nz + m
    neg = [i for i in range(m) if form.rhs[i] < 0]
    if not width:
        return []
    budget = 50 + 4 * width
    with np.errstate(all="ignore"):
        try:
            A = np.array(form.rows, dtype=float).reshape(m, nz)
            rhs = np.array(form.rhs, dtype=float)
            cost = np.array(form.cost, dtype=float)
        except OverflowError:
            return None
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
            budget = reference_float_pivots(T, basis, width, budget)
            if budget is None or not T[m, -1] > -_GUIDE_TOL:
                return None
            for r, var in enumerate(basis):
                if var >= width:  # an artificial left basic at zero
                    col = int(np.abs(T[r, :width]).argmax())
                    if not abs(T[r, col]) > _GUIDE_TOL:
                        return None
                    _reference_float_pivot(T, basis, r, col)
            T = np.delete(T, np.s_[width:-1], axis=1)
        T[m] = 0.0
        T[m, :nz] = cost / (np.abs(cost).max(initial=0.0) or 1.0)
        T[m] -= T[m, basis] @ T[:m]
        budget = reference_float_pivots(T, basis, width, budget)
        if budget is None or not np.isfinite(T).all():
            return None
    return basis


def reference_float_pivots(T: np.ndarray, basis: list[int], limit: int, budget: int) -> Optional[int]:
    """Dantzig-rule pivots on columns below ``limit`` until optimal; the
    budget left, or None when the LP looks unbounded or the budget runs out."""
    m = len(basis)
    for left in range(budget, 0, -1):
        red = T[m, :limit]
        col = int(red.argmin())
        if not red[col] < -_GUIDE_TOL:
            return left
        entries = T[:m, col]
        candidates = np.flatnonzero(entries > _GUIDE_TOL)
        if not candidates.size:
            return None
        ratios = np.maximum(T[candidates, -1], 0.0) / entries[candidates]
        _reference_float_pivot(T, basis, int(candidates[ratios.argmin()]), col)
    return None


def _reference_float_pivot(T: np.ndarray, basis: list[int], r: int, col: int) -> None:
    T[r] /= T[r, col]
    factors = T[:, col].copy()
    factors[r] = 0.0
    T -= np.outer(factors, T[r])
    basis[r] = col


def solve_square_reference(M: list[list[int]], rhs: list[int]) -> Optional[tuple[list[int], int]]:
    """Reference for ``l1opt.lp._solve_square``, by Gauss-Jordan elimination.

    ``(nums, d)`` with ``M x = rhs`` at ``x = nums / d`` and d > 0, or
    None when M is singular.

    Fraction-free Gauss-Jordan elimination: each step is the Bareiss
    update ``(p*a - f*b) // prev`` of the simplex tableau, and every
    division is exact.  After step c every pivoted column holds the pivot
    on its diagonal and zeros elsewhere, so columns left of c are not
    updated; the rhs column ends as d times the solution.
    """
    k = len(M)
    T = [row + [beta] for row, beta in zip(M, rhs)]
    prev = 1
    for c in range(k):
        r = next((i for i in range(c, k) if T[i][c]), None)
        if r is None:
            return None
        T[c], T[r] = T[r], T[c]
        prow = T[c][c:]
        p = prow[0]
        for i in range(k):
            if i == c:
                continue
            row = T[i]
            f = row[c]
            if f:
                row[c:] = [(p * a - f * b) // prev for a, b in zip(row[c:], prow)]
            elif p != prev:
                row[c:] = [p * a // prev for a in row[c:]]
        prev = p
    nums = [row[k] for row in T]
    if prev < 0:
        return [-v for v in nums], -prev
    return nums, prev


def dense_dot(a, x):
    """a.x as the dense left-to-right sum over the nonzero coefficients."""
    total = 0
    for ai, xi in zip(a, x):
        if ai:
            total += ai * xi
    return total


def dense_quad_form(M, x):
    """x'Mx as the dense sum of x_i * (M_i . x) over the nonzero x_i."""
    total = 0
    for i, row in enumerate(M):
        xi = x[i]
        if xi:
            total += xi * dense_dot(row, x)
    return total


def dense_linear_oracle(c, A, b):
    """Reference for ``make_linear_oracle``: dense sums over every coordinate."""

    def objective(x):
        return dense_dot(c, x)

    def constraints(x):
        return tuple(dense_dot(row, x) - beta for row, beta in zip(A, b))

    return objective, constraints


def dense_quadratic_oracle(Q, c, rows):
    """Reference for ``make_quadratic_oracle``: dense sums over every coordinate."""

    def objective(x):
        return dense_quad_form(Q, x) + dense_dot(c, x)

    def constraints(x):
        values = []
        for row in rows:
            value = dense_dot(row.b, x) + row.c
            if row.A is not None:
                value += dense_quad_form(row.A, x)
            values.append(value)
        return tuple(values)

    return objective, constraints


def random_fraction(rng, lo=-5, hi=5, max_den=5) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_ilp(rng, max_n=4, max_m=3):
    """Random linear instance (c, A, b) with small rational coefficients."""
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    c = [random_fraction(rng) for _ in range(n)]
    A = [[random_fraction(rng) for _ in range(n)] for _ in range(m)]
    b = [random_fraction(rng) for _ in range(m)]
    return n, c, A, b


def random_quadratic(rng, max_n=3, max_m=2):
    """Random nonconvex quadratic instance with quadratic constraints."""
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    def mat():
        return [[random_fraction(rng, -3, 3, 3) for _ in range(n)] for _ in range(n)]
    Q = mat()
    c = [random_fraction(rng, -3, 3, 3) for _ in range(n)]
    constraints = []
    for _ in range(m):
        constraints.append(
            (
                mat() if rng.random() < 0.7 else None,
                [random_fraction(rng, -3, 3, 3) for _ in range(n)],
                random_fraction(rng, -3, 3, 3),
            )
        )
    return n, Q, c, constraints


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


def big_bound_ratio_power(ratio: Real, n: int) -> BigBound:
    """ratio**n for a nonnegative, possibly fractional ratio."""
    if ratio < 0:
        raise ValueError("ratio must be nonnegative")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if ratio == 0:
        return BigBound.from_int(0) if n > 0 else BigBound.from_int(1)
    if isinstance(ratio, int):
        log10 = n * math.log10(ratio)
        return BigBound.from_int(ratio**n) if _within_cap(log10) else BigBound(None, log10)
    if isinstance(ratio, Fraction):
        log10 = n * (math.log10(ratio.numerator) - math.log10(ratio.denominator))
        integral = ratio.denominator == 1 and _within_cap(log10)
        return BigBound(exact=ratio.numerator**n if integral else None, log10=log10)
    value = float(ratio) ** n
    exact = None
    if math.isfinite(value) and abs(value) < 1e15:
        nearest = round(value)
        if abs(value - nearest) <= 1e-9 * max(1.0, abs(value)):
            exact = int(nearest)
    return BigBound(exact=exact, log10=n * math.log10(ratio))


def l2_count_bounds(n: int, radius: Real) -> tuple[int, int]:
    """(lower, upper) bounds on the number of integer points of the l2 ball.

    The lower bound 2n needs radius >= 1; the upper bound
    (1 + 2*floor(radius))^n holds unconditionally.  No exact closed form
    is exposed; see :func:`count_l2_lattice_brute` for small cases.
    """
    _require_bound_dimension(n)
    return 2 * n, count_linf_lattice(n, radius)


def count_l2_lattice_brute(n: int, radius: Real) -> int:
    """Brute-force l2 lattice count for small instances (test utility)."""
    if n < 1:
        raise InvalidDimensionError("dimension must be >= 1")
    rho = floor_radius(radius)
    if (1 + 2 * rho) ** n > 5_000_000:
        raise GridTooLargeError(f"brute-force box (1+2*{rho})^{n} is too large")
    limit = Fraction(radius) ** 2 if isinstance(radius, (int, Fraction)) else float(radius) ** 2
    count = 0
    for x in itertools.product(range(-rho, rho + 1), repeat=n):
        if sum(v * v for v in x) <= limit:
            count += 1
    return count


def covering_bound_l1(n: int, radius: Real, r: Real) -> BigBound:
    """Upper bound n^((radius/(sqrt(2)*r))^2) on covering the l1 ball by r-cubes."""
    _require_bound_dimension(n)
    if r <= 0:
        raise ValueError("covering radius r must be positive")
    if isinstance(radius, (int, Fraction)) and isinstance(r, (int, Fraction)):
        exponent = Fraction(radius) ** 2 / (2 * Fraction(r) ** 2)
    else:
        exponent = float(radius) ** 2 / (2.0 * float(r) ** 2)
    return BigBound.from_power(n, exponent)


def covering_bounds_linf(n: int, radius: Real, r: Real) -> tuple[BigBound, BigBound]:
    """((radius/r)^n, (2 + radius/r)^n) bounds for covering a cube by cubes.

    The lower bound is meaningful only when r <= radius; the upper bound
    holds for all radius >= 0.
    """
    if n < 1:
        raise InvalidDimensionError("dimension must be >= 1")
    if r <= 0:
        raise ValueError("covering radius r must be positive")
    if isinstance(radius, (int, Fraction)) and isinstance(r, (int, Fraction)):
        ratio: Real = Fraction(radius) / Fraction(r)
    else:
        ratio = float(radius) / float(r)
    return big_bound_ratio_power(ratio, n), big_bound_ratio_power(2 + ratio, n)

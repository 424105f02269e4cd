"""Independent brute-force oracles used to validate the library.

Everything here is deliberately naive: box scans, vertex enumeration,
exact rational arithmetic.  None of it shares code paths with the
implementations under test beyond the canonical-ordinal helper, which
has its own replay-based validation, and the ``LPResult`` record the
Fraction simplex returns.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from l1opt.lattice import LatticePoint, canonical_ordinal
from l1opt.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult


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
        x = _solve_square([rows[i] for i in subset], [rhs[i] for i in subset])
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


def _solve_square(M, v):
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

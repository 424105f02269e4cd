"""Independent brute-force oracles used to validate the library.

Everything here is deliberately naive: box scans, vertex enumeration,
exact rational arithmetic.  None of it shares code paths with the
implementations under test beyond the canonical-ordinal helper, which
has its own replay-based validation.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from l1opt.lattice import canonical_ordinal


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

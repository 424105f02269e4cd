"""Correctness gate: independent expected results for every benchmark job.

Nothing here calls l1opt.  The reference rebuilds the integer points of
each ball in the documented canonical order (magnitude vectors sorted
by the prefix sums of their entries, then a binary sign counter over
the support, + before -, least significant bit at the smallest index),
evaluates every point with numpy and takes the first minimum, which is
the smallest-ordinal optimum the solvers promise.

- Rational mode is evaluated in integers after clearing denominators,
  so values and decisions are exact.
- Float mode repeats the documented scalar arithmetic: products summed
  left to right over nonzero coefficients, then compared with the
  1e-9 default tolerance.  Same operations in the same order give the
  same IEEE results, so x and the objective must match bit for bit.
- Mixed solves are checked against vertex enumeration of each
  continuous subproblem, bound estimates against scipy's HiGHS LP
  solver; both are floating point, so those values match within 1e-7.

Each returned x is also re-checked for feasibility in Fraction
arithmetic.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional

import numpy as np

FLOAT_TOLERANCE = 1e-9  # the solver's documented default
LP_TOLERANCE = 1e-7
_CHUNK = 1 << 16


def l1_ball_count(n: int, rho: int) -> int:
    """Integer points of the rho-ball in dimension n: sum_k 2^k C(n,k) C(rho,k)."""
    return sum((1 << k) * math.comb(n, k) * math.comb(rho, k) for k in range(min(n, rho) + 1))


def _magnitudes(n: int, rho: int) -> np.ndarray:
    """Nonnegative vectors with entry sum <= rho, sorted by canonical order."""
    rows = np.zeros((1, 0), dtype=np.int8)
    used = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        parts, budgets = [], []
        for v in range(rho + 1):
            keep = used + v <= rho
            block = rows[keep]
            parts.append(np.hstack([block, np.full((len(block), 1), v, dtype=np.int8)]))
            budgets.append(used[keep] + v)
        rows, used = np.concatenate(parts), np.concatenate(budgets)
    prefix = np.cumsum(rows, axis=1, dtype=np.int64)
    return rows[np.lexsort(prefix.T[::-1])]


def ball_points(n: int, rho: int) -> np.ndarray:
    """Every integer point of the rho-ball, one row each, in canonical order."""
    mags = _magnitudes(n, rho)
    reps = 1 << np.count_nonzero(mags, axis=1)
    points = np.repeat(mags, reps, axis=0)
    starts = np.repeat(np.cumsum(reps) - reps, reps)
    codes = np.arange(len(points), dtype=np.int64) - starts
    for lo in range(0, len(points), _CHUNK):
        block = points[lo : lo + _CHUNK]
        nonzero = block != 0
        rank = np.cumsum(nonzero, axis=1, dtype=np.int64) - 1
        negative = nonzero & (((codes[lo : lo + _CHUNK, None] >> np.maximum(rank, 0)) & 1) == 1)
        block[negative] = -block[negative]
    return points


class Reference:
    """Expected records for jobs, with the canonical balls cached per run."""

    def __init__(self) -> None:
        self._balls: dict[tuple[int, int], np.ndarray] = {}

    def ball(self, n: int, rho: int) -> np.ndarray:
        key = (n, rho)
        if key not in self._balls:
            self._balls[key] = ball_points(n, rho)
        return self._balls[key]

    def expected(self, kind: str, doc: Optional[dict], walk=None) -> dict:
        if kind == "enum":
            return {"points": l1_ball_count(*walk)}
        if kind == "bound":
            return _bound_expected(doc)
        if kind == "mixed":
            return self._mixed_expected(doc)
        if doc["arithmetic"] == "rational":
            return self._exact_expected(kind, doc)
        return self._float_expected(kind, doc)

    def _exact_expected(self, kind: str, doc: dict) -> dict:
        rho = _floor(Fraction(doc["lambda"]))
        points = self.ball(doc["n"], rho).astype(np.int64)
        c = [Fraction(v) for v in doc["c"]]
        scale = math.lcm(*(v.denominator for v in c))
        values = points @ np.array([int(v * scale) for v in c], dtype=np.int64)
        if kind == "iqp":
            Q = [[Fraction(v) for v in row] for row in doc["Q"]]
            q_scale = math.lcm(*(v.denominator for row in Q for v in row))
            total = math.lcm(scale, q_scale)
            Q_int = np.array([[int(v * total) for v in row] for row in Q], dtype=np.int64)
            values = values * (total // scale) + np.einsum("pi,ij,pj->p", points, Q_int, points)
            scale = total
        feasible = np.ones(len(points), dtype=bool)
        for row, beta in zip(doc["A"], doc["b"]):
            coeffs = [Fraction(v) for v in row] + [Fraction(beta)]
            row_scale = math.lcm(*(v.denominator for v in coeffs))
            ints = [int(v * row_scale) for v in coeffs]
            feasible &= points @ np.array(ints[:-1], dtype=np.int64) <= ints[-1]
        return _first_minimum(points, values, feasible, lambda v: str(Fraction(int(v), scale)))

    def _float_expected(self, kind: str, doc: dict) -> dict:
        n = doc["n"]
        radius = float(doc["lambda"])
        c, A, b = doc["c"], doc["A"], doc["b"]
        tol = FLOAT_TOLERANCE
        if kind == "ptas":
            # grid radius floor(lambda * kappa / epsilon), step epsilon / kappa
            kappa, epsilon = doc["kappa"], doc["epsilon"]
            rho = _floor(Fraction(radius) * Fraction(kappa) / Fraction(epsilon))
            points = self.ball(n, rho)
            step = epsilon / kappa
            coords = [step * points[:, i].astype(np.float64) for i in range(n)]
            record = _scan_float(points, coords, c, A, b, epsilon, np.ones(len(points), bool))
            if record["x"] is None:
                record["status"] = "no_feasible_grid_point"
            else:
                record["x"] = [step * v for v in record["x"]]
            return record
        if kind == "weighted":
            weights = [float(Fraction(w)) for w in doc["weights"]]
            kept = [i for i, w in enumerate(weights) if w <= radius]
            rho = _floor(Fraction(radius) / Fraction(min(weights)))
            sub = self.ball(len(kept), rho)
            points = np.zeros((len(sub), n), dtype=np.int8)
            points[:, kept] = sub
            coords = [points[:, i].astype(np.float64) for i in range(n)]
            norm = np.zeros(len(points))
            for i, w in enumerate(weights):
                norm = norm + w * np.abs(coords[i])
            admitted = norm <= radius + FLOAT_TOLERANCE
            record = _scan_float(points, coords, c, A, b, tol, admitted)
            del record["points"]  # the weighted walk size is not part of the contract
            return record
        points = self.ball(n, _floor(Fraction(radius)))
        coords = [points[:, i].astype(np.float64) for i in range(n)]
        return _scan_float(points, coords, c, A, b, tol, np.ones(len(points), bool))

    def _mixed_expected(self, doc: dict) -> dict:
        points = self.ball(doc["n"], _floor(Fraction(doc["lambda"])))
        A_x = _float_matrix(doc["A_x"])
        A_y = _float_matrix(doc["A_y"])
        b = np.array([float(Fraction(v)) for v in doc["b"]])
        c_x = np.array([float(Fraction(v)) for v in doc["c_x"]])
        c_y = np.array([float(Fraction(v)) for v in doc["c_y"]])
        p = A_y.shape[1]
        rhs = b[None, :] - points.astype(np.float64) @ A_x.T  # one row per integer point
        best = np.full(len(points), np.inf)
        for rows in itertools.combinations(range(len(b)), p):
            basis = A_y[list(rows)]
            if abs(np.linalg.det(basis)) < 1e-12:
                continue
            y = np.linalg.solve(basis, rhs[:, list(rows)].T).T
            slack = rhs - y @ A_y.T
            ok = (slack >= -LP_TOLERANCE * (1 + np.abs(rhs))).all(axis=1)
            best = np.where(ok, np.minimum(best, y @ c_y), best)
        values = points.astype(np.float64) @ c_x + best
        feasible = np.isfinite(best)
        if not feasible.any():
            return {"status": "infeasible", "x": None, "objective": None, "points": len(points)}
        low = values[feasible].min()
        near = feasible & (values <= low + LP_TOLERANCE * (1 + abs(low)))
        index = int(np.flatnonzero(near)[0])
        return {
            "status": "optimal",
            "x": [int(v) for v in points[index]],
            "objective": float(values[index]),
            "points": len(points),
        }


def _floor(value: Fraction) -> int:
    return value.numerator // value.denominator


def _float_matrix(rows) -> np.ndarray:
    return np.array([[float(Fraction(v)) for v in row] for row in rows], dtype=np.float64)


def _sequential_dot(coeffs, coords) -> np.ndarray:
    """sum(a_i * x_i) over nonzero a_i, accumulated left to right."""
    total = np.zeros(len(coords[0]))
    for a, col in zip(coeffs, coords):
        if a:
            total = total + a * col
    return total


def _scan_float(points, coords, c, A, b, tol, admitted) -> dict:
    values = _sequential_dot(c, coords)
    feasible = admitted.copy()
    for row, beta in zip(A, b):
        feasible &= _sequential_dot(row, coords) - beta <= tol
    return _first_minimum(points, values, feasible, float)


def _first_minimum(points, values, feasible, convert) -> dict:
    candidates = np.flatnonzero(feasible)
    if len(candidates) == 0:
        return {"status": "infeasible", "x": None, "objective": None, "points": len(points)}
    index = int(candidates[np.argmin(values[candidates])])
    return {
        "status": "optimal",
        "x": [int(v) for v in points[index]],
        "objective": convert(values[index]),
        "points": len(points),
    }


def _bound_expected(doc: dict) -> dict:
    from scipy.optimize import linprog

    A = _float_matrix(doc["A"])
    b = np.array([float(Fraction(v)) for v in doc["b"]])
    n = A.shape[1]

    def maximize(direction, A_ub, bounds):
        result = linprog(-np.asarray(direction, float), A_ub=A_ub, b_ub=b, bounds=bounds, method="highs")
        if result.status != 0:
            raise ArithmeticError(f"reference LP failed: {result.message}")
        return -result.fun

    free = [(None, None)] * n
    l, u = [], []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        u.append(max(maximize(e, A, free), 0.0))
        l.append(max(maximize(-e, A, free), 0.0))
    lifted = maximize(np.ones(2 * n), np.hstack([A, -A]), list(zip([0] * n, u)) + list(zip([0] * n, l)))
    return {"l": l, "u": u, "rho": math.floor(lifted + 1e-9), "calls": 2 * n + 1}


def _close(got, want) -> bool:
    got, want = float(Fraction(got)), float(want)
    return abs(got - want) <= LP_TOLERANCE * (1 + abs(want))


def compare(got: dict, want: dict, approximate: bool) -> list[str]:
    """Fields where a normalized result differs from the expected record."""
    problems = []
    for key, value in want.items():
        mine = got.get(key)
        if approximate and key in ("objective", "l", "u") and mine is not None and value is not None:
            ok = all(map(_close, mine, value)) if isinstance(value, list) else _close(mine, value)
        else:
            ok = mine == value
        if not ok:
            problems.append(f"{key}: got {_short(mine)}, expected {_short(value)}")
    return problems


def feasibility_problems(kind: str, doc: Optional[dict], got: dict) -> list[str]:
    """Re-check a returned solution in exact arithmetic."""
    if kind in ("enum", "bound") or got.get("x") is None:
        return []
    F = Fraction
    x = [F(v) for v in got["x"]]
    problems = []
    if kind == "mixed":
        y = [F(v) for v in got["y"]]
        for k, (ax, ay, beta) in enumerate(zip(doc["A_x"], doc["A_y"], doc["b"])):
            if _dot(ax, x) + _dot(ay, y) > F(beta):
                problems.append(f"row {k} violated")
        if _dot(doc["c_x"], x) + _dot(doc["c_y"], y) != F(got["objective"]):
            problems.append("objective is not c_x.x + c_y.y")
        return problems
    exact = doc["arithmetic"] == "rational"
    slack = F(0) if exact else F(FLOAT_TOLERANCE) + F(1, 10**12)
    if kind == "ptas":
        slack = F(doc["epsilon"]) + F(1, 10**12)
    radius = F(doc["lambda"])
    if kind == "weighted":
        budget = sum(F(w) * abs(v) for w, v in zip(doc["weights"], x))
        if budget > radius + (0 if exact else F(FLOAT_TOLERANCE)):
            problems.append(f"weighted norm {float(budget)} over {float(radius)}")
    elif sum(abs(v) for v in x) > radius + F(1, 10**12):
        problems.append("x lies outside the ball")
    for k, (row, beta) in enumerate(zip(doc["A"], doc["b"])):
        if _dot(row, x) - F(beta) > slack:
            problems.append(f"row {k} violated")
    if exact:
        value = _dot(doc["c"], x)
        if kind == "iqp":
            value += sum(x[i] * _dot(row, x) for i, row in enumerate(doc["Q"]))
        if value != F(got["objective"]):
            problems.append("objective does not match x")
    return problems


def _dot(row, x) -> Fraction:
    return sum((Fraction(a) * v for a, v in zip(row, x)), Fraction(0))


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def walk_problems(n: int, rho: int, stream) -> list[str]:
    """Compare a stream of points (``.x``, ``.ordinal``) with the canonical ball."""
    expected = ball_points(n, rho)
    seen = 0
    while True:
        block = list(itertools.islice(stream, _CHUNK))
        if not block:
            break
        want = expected[seen : seen + len(block)]
        if len(want) != len(block):
            return [f"walk has more than {len(expected)} points"]
        xs = np.array([p.x for p in block], dtype=np.int64)
        if xs.shape != want.shape or not (xs == want).all():
            return [f"walk leaves the canonical order within points {seen}..{seen + len(block) - 1}"]
        if [p.ordinal for p in block] != list(range(seen, seen + len(block))):
            return [f"ordinals are not consecutive within points {seen}..{seen + len(block) - 1}"]
        seen += len(block)
    if seen != len(expected):
        return [f"walk has {seen} points, expected {len(expected)}"]
    return []

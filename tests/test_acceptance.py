"""End-to-end acceptance checks.

Each test covers one release gate at its stated tolerance and prints a
PASS/FAIL line (run with ``pytest -s`` to see all of them).  The
brute-force references live in ``oracles.py`` and stay independent of
the code paths they validate.
"""

import json
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from l1opt.counting import (
    count_l1_lattice,
    count_linf_lattice,
    estimate_gaussian_width,
    gaussian_width_bound,
)
from l1opt.complexity import LinearRegionBackend, estimate_bound, verify_cover
from l1opt.lattice import iter_l1_points
from l1opt.ptas import (
    LipschitzProblem,
    linear_lipschitz_constant,
    quadratic_lipschitz_constant,
    solve_lipschitz_ptas,
)
from l1opt.solver import (
    ProblemInstance,
    QuadraticConstraint,
    WeightedL1Spec,
    solve_l1_ip,
    solve_weighted_l1_ip,
)
from oracles import (
    ball_points_brute,
    fine_grid_reference,
    random_ilp,
    random_quadratic,
    solve_ball_brute,
    solve_weighted_brute,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_enumeration_matches_box_scan():
    started = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        for lam in (0, 0.5, 1, 2, 3, 4):
            points = [p.x for p in iter_l1_points(n, lam)]
            assert len(points) == len(set(points)), (n, lam)
            assert set(points) == ball_points_brute(n, lam), (n, lam)
            checked += 1
    elapsed = time.perf_counter() - started
    report(
        1,
        elapsed < 5.0,
        f"enumeration equals box scan on {checked} (n, radius) grids in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_count_law_and_bounds():
    for n in range(1, 7):
        for lam in (0, 0.5, 1, 2, 3, 4):
            assert count_l1_lattice(n, lam) == len(ball_points_brute(n, lam))
    for n in range(1, 51):
        assert count_l1_lattice(n, 2) == 2 * n * n + 2 * n + 1
    for n in range(2, 7):
        for lam in range(1, 5):
            count = count_l1_lattice(n, lam)
            assert 2 * n <= count <= n ** (4 * lam * lam), (n, lam)
    report(2, True, "exact counts, quadratic law to n=50, and sandwich bounds all hold")


def test_criterion_3_polynomial_vs_exponential_growth():
    dims = [4, 8, 16, 32, 64]
    enumerated = []
    for n in dims:
        count = sum(1 for _ in iter_l1_points(n, 2))
        assert count == count_l1_lattice(n, 2)
        enumerated.append(count)
    slope = float(np.polyfit(np.log(dims), np.log(enumerated), 1)[0])
    for n in dims:
        assert count_linf_lattice(n, 2) == 5**n
    report(
        3,
        abs(slope - 2.0) <= 0.2,
        f"log-log slope of ball growth is {slope:.3f} (2.0 +/- 0.2); cube counts equal 5^n",
    )


def test_criterion_4_solver_exactness_randomized():
    started = time.perf_counter()
    rng = random.Random(101)
    mismatches = 0

    def check(problem, lam):
        nonlocal mismatches
        mine = solve_l1_ip(problem, lam)
        if (mine.status, mine.objective, mine.x) != solve_ball_brute(problem, lam):
            mismatches += 1

    for _ in range(100):
        n, c, A, b = random_ilp(rng)
        check(ProblemInstance.linear(c, A, b), rng.choice([1, 2, 3]))
    for _ in range(50):
        n, Q, c, rows = random_quadratic(rng)
        constraints = tuple(QuadraticConstraint(A=A, b=tuple(b), c=cc) for A, b, cc in rows)
        check(ProblemInstance.quadratic(Q, c, constraints), rng.choice([1, 2, 3]))
    elapsed = time.perf_counter() - started
    report(
        4,
        mismatches == 0 and elapsed < 30.0,
        f"100 linear + 50 quadratic exact solves match the box oracle, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_5_weighted_reduction():
    rng = random.Random(202)
    for _ in range(20):
        n, c, A, b = random_ilp(rng)
        lam = rng.choice([1, 2, 3])
        problem = ProblemInstance.linear(c, A, b)
        plain = solve_l1_ip(problem, lam)
        unit = solve_weighted_l1_ip(problem, WeightedL1Spec((Fraction(1),) * n, Fraction(lam)))
        assert (unit.status, unit.objective, unit.x) == (plain.status, plain.objective, plain.x)
    for _ in range(20):
        n, c, A, b = random_ilp(rng, max_n=3)
        lam = Fraction(rng.randint(1, 3))
        weights = tuple(Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(n))
        problem = ProblemInstance.linear(c, A, b)
        mine = solve_weighted_l1_ip(problem, WeightedL1Spec(weights, lam))
        status, value, x = solve_weighted_brute(problem, weights, lam)
        assert (mine.status, mine.objective, mine.x) == (status, value, x)
    report(5, True, "unit weights reduce to the plain solver; general weights match brute force")


def test_criterion_6_bound_estimator_soundness():
    box_rows = [[-1, 0], [0, -1], [1, 0], [0, 1]]
    box_rhs = [0, 0, 1, 1]
    box_report = estimate_bound(LinearRegionBackend(box_rows, box_rhs), 2)
    assert box_report.l == (0, 0)
    assert box_report.u == (1, 1)
    assert box_report.rho == 2
    assert box_report.bound.exact == 131072
    assert box_report.backend_calls == 5

    simplex_rows = [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1]]
    simplex_rhs = [0, 0, 0, 1]
    simplex_report = estimate_bound(LinearRegionBackend(simplex_rows, simplex_rhs), 3)
    assert simplex_report.rho == 1
    assert simplex_report.bound.exact == 243
    assert simplex_report.backend_calls == 7

    rng = random.Random(303)
    for trial in range(20):
        n = rng.randint(2, 4)
        m = rng.randint(1, 3)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        anchor = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        rhs = [
            sum(a * v for a, v in zip(row, anchor)) + Fraction(rng.randint(0, 3))
            for row in rows
        ]
        for i in range(n):
            for sign in (1, -1):
                unit = [Fraction(0)] * n
                unit[i] = Fraction(sign)
                rows.append(unit)
                rhs.append(Fraction(4))
        bound_report = estimate_bound(LinearRegionBackend(rows, rhs), n)
        assert bound_report.backend_calls == 2 * n + 1
        instance = ProblemInstance.linear([0] * n, rows, rhs)
        check = verify_cover(
            bound_report, lambda x: all(g <= 0 for g in instance.constraints(x))
        )
        assert check.passed, f"trial {trial}: counterexample {check.counterexample}"
    report(6, True, "box/simplex reports exact, 2n+1 calls, and 20 random covers verified")


def _random_lipschitz_instance(rng, quadratic: bool):
    radius = 1.0
    if not quadratic:
        c = [rng.uniform(-2, 2) for _ in range(2)]
        a = [rng.uniform(-2, 2) for _ in range(2)]
        beta = rng.uniform(0.2, 1.0)
        kappa = max(linear_lipschitz_constant(c, [a]), 0.5)
        objective = lambda x: c[0] * x[0] + c[1] * x[1]
        constraints = lambda x: (a[0] * x[0] + a[1] * x[1] - beta,)
    else:
        q = [[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)]
        c = [rng.uniform(-1, 1) for _ in range(2)]
        a = [rng.uniform(-2, 2) for _ in range(2)]
        beta = rng.uniform(0.2, 1.0)
        kappa = max(
            quadratic_lipschitz_constant(q, c, (), radius),
            linear_lipschitz_constant([0, 0], [a]),
            0.5,
        )
        objective = lambda x: (
            q[0][0] * x[0] * x[0]
            + q[0][1] * x[0] * x[1]
            + q[1][0] * x[1] * x[0]
            + q[1][1] * x[1] * x[1]
            + c[0] * x[0]
            + c[1] * x[1]
        )
        constraints = lambda x: (a[0] * x[0] + a[1] * x[1] - beta,)
    return LipschitzProblem(
        n=2, objective=objective, constraints=constraints, lipschitz=kappa, radius=radius
    )


def test_criterion_7_ptas_additive_guarantee():
    started = time.perf_counter()
    rng = random.Random(404)
    instances = [_random_lipschitz_instance(rng, quadratic=(i % 2 == 1)) for i in range(30)]
    worst_gap = float("-inf")
    for problem in instances:
        for epsilon in (0.5, 0.25):
            solution = solve_lipschitz_ptas(problem, epsilon)
            assert solution.status == "optimal"
            assert sum(abs(v) for v in solution.x) <= problem.radius + 1e-12
            assert max(problem.constraints(solution.x)) <= epsilon + 1e-12
            reference = fine_grid_reference(
                problem, epsilon / (10 * problem.lipschitz)
            )
            assert reference.status == "optimal"
            gap = solution.objective - reference.objective
            worst_gap = max(worst_gap, gap)
            assert gap <= epsilon + 1e-9
    elapsed = time.perf_counter() - started
    report(
        7,
        elapsed < 60.0,
        f"30 instances x 2 tolerances: worst gap {worst_gap:.4f} within epsilon, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_8_gaussian_width_bound():
    worst_margin = float("inf")
    for n in (2, 4, 8, 16, 32):
        for lam in (1, 2):
            mean, stderr = estimate_gaussian_width(n, lam, samples=100_000, seed=20240501)
            bound = gaussian_width_bound(n, lam)
            worst_margin = min(worst_margin, bound - (mean + 3 * stderr))
            assert mean + 3 * stderr <= bound, (n, lam)
    report(8, True, f"width estimate + 3 stderr below the closed form; min margin {worst_margin:.4f}")


def _run_cli(*args):
    result = subprocess.run(
        [sys.executable, "-m", "l1opt", *map(str, args)],
        capture_output=True,
    )
    return result.returncode, result.stdout


def _normalize_timing(raw: bytes) -> bytes:
    # Wall-clock timing is the one legitimately nondeterministic field.
    return re.sub(rb'"wall_time_ms": \d+', b'"wall_time_ms": 0', raw)


def test_criterion_9_byte_identical_results(tmp_path):
    solve_doc = {
        "kind": "ilp",
        "n": 3,
        "m": 2,
        "arithmetic": "rational",
        "lambda": "2",
        "c": ["-1", "2", "-1"],
        "A": [["1", "1", "0"], ["-1", "0", "1"]],
        "b": ["1", "2"],
    }
    ptas_doc = {
        "kind": "lipschitz-linear",
        "n": 2,
        "m": 1,
        "arithmetic": "float",
        "lambda": 1.0,
        "epsilon": 0.25,
        "c": [1.0, -0.5],
        "A": [[0.5, 0.5]],
        "b": [0.6],
    }
    solve_path = tmp_path / "solve.json"
    solve_path.write_text(json.dumps(solve_doc))
    ptas_path = tmp_path / "ptas.json"
    ptas_path.write_text(json.dumps(ptas_doc))

    outputs = {}
    for name, argv in {
        "solve": ("solve", str(solve_path)),
        "ptas": ("ptas", str(ptas_path)),
        "enumerate": ("enumerate", 3, 2),
    }.items():
        runs = []
        for workers in (1, 2, 8, 1):  # repeated worker count doubles as a rerun
            code, out = _run_cli(*argv, "--parallel", workers)
            assert code == 0, (name, workers)
            runs.append(_normalize_timing(out))
        assert all(run == runs[0] for run in runs), f"{name} output varies"
        outputs[name] = runs[0]
    report(
        9,
        True,
        "solve, ptas, and enumerate are byte-identical across reruns and --parallel 1/2/8 "
        "(timing field normalized)",
    )

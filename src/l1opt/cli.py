"""Command-line front end.

Commands: solve, count, bound, ptas, enumerate.  Results go to stdout
as a single JSON document (newline-delimited JSON arrays for the point
stream of ``enumerate``); diagnostics go to stderr.  Exit codes: 0 on
success, 1 on input or usage errors, 2 when a solve is infeasible or no
grid point passes the relaxed test, 3 when the continuous relaxation of
a bound query is unbounded.

The L1OPT_TOLERANCE environment variable sets the default float-mode
feasibility tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .complexity import LinearRegionBackend, estimate_bound, verify_cover
from .counting import (
    DEFAULT_SLACK,
    count_l1_lattice,
    count_linf_lattice,
    estimate_gaussian_width,
    gaussian_width_bound,
    l1_count_lower_bound,
    l1_count_upper_bound,
)
from .errors import ProblemFileError, RegionInfeasibleError, RegionUnboundedError
from .files import ParsedProblem, format_value, load_problem
from .lattice import iter_l1_points
from .ptas import (
    LipschitzProblem,
    MixedProblem,
    linear_lipschitz_constant,
    linear_mixed_inner_solver,
    quadratic_lipschitz_constant,
    solve_lipschitz_ptas,
    solve_mixed_integer,
)
from .solver import (
    FLOAT,
    SolveOptions,
    WeightedL1Spec,
    solve_l1_ip,
    solve_weighted_l1_ip,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for
        # infeasible results and report usage problems as errors.
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        return args.handler(args)
    except (ValueError, RegionInfeasibleError) as exc:
        # ValueError covers ProblemFileError and InvalidDimensionError.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except RegionUnboundedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNBOUNDED
    except OverflowError as exc:
        # A bound whose log10 leaves the float range, say.
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1opt",
        description="Solvers, counts, and complexity bounds for optimization under an L1 constraint.",
    )
    sub = parser.add_subparsers(required=True)

    p_solve = sub.add_parser("solve", help="exactly solve an integer problem file")
    p_solve.add_argument("file")
    p_solve.add_argument("--lambda", dest="radius", help="override the file's radius")
    p_solve.add_argument("--weights", help="comma-separated weights overriding the file")
    _add_parallel(p_solve)
    p_solve.add_argument("--tolerance", type=float, default=None, help="float-mode feasibility tolerance")
    p_solve.set_defaults(handler=_cmd_solve)

    p_count = sub.add_parser("count", help="lattice point counts and bound formulas")
    p_count.add_argument("n", type=int)
    p_count.add_argument("radius", metavar="lambda")
    p_count.add_argument("--norm", choices=("l1", "linf"), default="l1")
    p_count.add_argument("--bounds", action="store_true", help="include lower/upper bound formulas")
    p_count.add_argument("--delta", type=float, default=DEFAULT_SLACK)
    p_count.add_argument("--precise", action="store_true", help="use the delta form instead of the simplified bound")
    p_count.add_argument("--width-samples", type=int, default=None, metavar="S",
                         help="also estimate the Gaussian mean width from S samples")
    p_count.add_argument("--seed", type=int, default=0, help="seed for the width estimator")
    p_count.set_defaults(handler=_cmd_count)

    p_bound = sub.add_parser("bound", help="a-priori oracle-complexity bound for a problem file")
    p_bound.add_argument("file")
    p_bound.add_argument("--delta", type=float, default=DEFAULT_SLACK)
    p_bound.add_argument("--precise", action="store_true", help="use the delta form instead of the simplified bound")
    p_bound.add_argument("--verify", action="store_true", help="brute-force check the covering radius")
    p_bound.set_defaults(handler=_cmd_bound)

    p_ptas = sub.add_parser("ptas", help="additive approximation of a Lipschitz problem file")
    p_ptas.add_argument("file")
    p_ptas.add_argument("--epsilon", type=float, default=None)
    p_ptas.add_argument("--kappa", type=float, default=None, help="override the Lipschitz constant")
    _add_parallel(p_ptas)
    p_ptas.set_defaults(handler=_cmd_ptas)

    p_enum = sub.add_parser("enumerate", help="stream l1-ball lattice points in canonical order")
    p_enum.add_argument("n", type=int)
    p_enum.add_argument("radius", metavar="lambda")
    p_enum.add_argument("--limit", type=_at_least(0), default=None)
    _add_parallel(p_enum)
    p_enum.set_defaults(handler=_cmd_enumerate)

    return parser


def _add_parallel(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--parallel", type=_at_least(1), default=1, metavar="K",
                        help="accepted for interface parity; runs are serial, so output does not depend on K")


def _at_least(minimum: int):
    """An argparse type: an integer of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _cmd_solve(args) -> int:
    started = time.perf_counter()
    problem = load_problem(args.file)
    if problem.kind not in ("ilp", "iqp", "iqcqp"):
        raise ProblemFileError("kind", f"solve expects an integer kind, got {problem.kind!r}")
    radius = problem.radius if args.radius is None else _parse_radius(args.radius, problem)
    weights = problem.weights
    if args.weights is not None:
        weights = _parse_weights(args.weights, problem)
    options = SolveOptions(tolerance=_default_tolerance(args.tolerance), parallel=args.parallel)
    instance = problem.instance()
    if weights is not None:
        solution = solve_weighted_l1_ip(instance, WeightedL1Spec(weights, radius), options)
    else:
        solution = solve_l1_ip(instance, radius, options)
    result = {
        "status": solution.status,
        "objective": format_value(solution.objective),
        "x": list(solution.x) if solution.x is not None else None,
        "oracle_calls": solution.oracle_calls,
        "points_enumerated": solution.points_enumerated,
        "version": __version__,
        "wall_time_ms": _elapsed_ms(started),
    }
    _emit(result)
    return EXIT_OK if solution.status == "optimal" else EXIT_INFEASIBLE


def _cmd_count(args) -> int:
    started = time.perf_counter()
    radius = _parse_cli_number(args.radius, "lambda")
    if radius < 0:
        raise ValueError("lambda must be >= 0")
    if args.norm == "l1":
        count = count_l1_lattice(args.n, radius)
    else:
        count = count_linf_lattice(args.n, radius)
    result = {
        "norm": args.norm,
        "n": args.n,
        "lambda": format_value(radius),
        "count": count,
    }
    if args.bounds:
        if args.norm != "l1":
            raise ValueError("--bounds applies to the l1 norm only")
        upper = l1_count_upper_bound(args.n, radius, slack=args.delta, simplified=not args.precise)
        result["bounds"] = {
            "lower": l1_count_lower_bound(args.n),
            "upper": {"exact": upper.exact, "log10": upper.log10},
            "delta": args.delta,
            "simplified": not args.precise,
        }
    if args.width_samples is not None:
        mean, stderr = estimate_gaussian_width(args.n, radius, args.width_samples, args.seed)
        result["gaussian_width"] = {
            "mean": mean,
            "stderr": stderr,
            "bound": gaussian_width_bound(args.n, radius),
            "samples": args.width_samples,
            "seed": args.seed,
        }
    result["version"] = __version__
    result["wall_time_ms"] = _elapsed_ms(started)
    _emit(result)
    return EXIT_OK


def _cmd_bound(args) -> int:
    started = time.perf_counter()
    problem = load_problem(args.file)
    if problem.kind not in ("ilp", "iqp", "lipschitz-linear"):
        raise ProblemFileError(
            "kind",
            "bound needs a linear constraint region; use an ilp, iqp, or lipschitz-linear file",
        )
    backend = LinearRegionBackend(problem.A, problem.b)
    report = estimate_bound(backend, problem.n, slack=args.delta, simplified=not args.precise)
    result = {
        "status": "ok",
        "bound_report": {
            "l": [format_value(v) for v in report.l],
            "u": [format_value(v) for v in report.u],
            "rho": report.rho,
            "bnd": {"exact": report.bound.exact, "log10": report.bound.log10},
            "delta": report.slack,
            "simplified": report.simplified,
            "backend_calls": report.backend_calls,
        },
    }
    if args.verify:
        instance = problem.instance()
        check = verify_cover(report, lambda x: all(g <= 0 for g in instance.constraints(x)))
        result["verify"] = {
            "passed": check.passed,
            "counterexample": list(check.counterexample) if check.counterexample else None,
            "points_checked": check.points_checked,
            "exhaustive": check.exhaustive,
            "note": check.note,
        }
    result["version"] = __version__
    result["wall_time_ms"] = _elapsed_ms(started)
    _emit(result)
    return EXIT_OK


def _cmd_ptas(args) -> int:
    started = time.perf_counter()
    problem = load_problem(args.file)
    if problem.kind not in ("lipschitz-linear", "lipschitz-quadratic", "mixed"):
        raise ProblemFileError(
            "kind", f"ptas expects lipschitz-linear, lipschitz-quadratic, or mixed, got {problem.kind!r}"
        )
    if problem.kind == "mixed":
        return _run_mixed(problem, started, args.parallel)
    epsilon = args.epsilon if args.epsilon is not None else problem.epsilon
    if epsilon is None or not (math.isfinite(epsilon) and epsilon > 0):
        raise ProblemFileError(
            "epsilon", "a finite positive epsilon is required (file field or --epsilon)"
        )
    kappa = args.kappa if args.kappa is not None else problem.kappa
    if kappa is None:
        kappa = _derived_kappa(problem)
    instance = problem.instance()
    lipschitz = LipschitzProblem(
        n=problem.n,
        objective=instance.objective,
        constraints=instance.constraints,
        lipschitz=kappa,
        radius=float(problem.radius),
    )
    solution = solve_lipschitz_ptas(lipschitz, epsilon, parallel=args.parallel)
    result = {
        "status": solution.status,
        "objective": None if solution.objective is None else float(solution.objective),
        "x": list(solution.x) if solution.x is not None else None,
        "oracle_calls": solution.oracle_calls,
        "points_enumerated": solution.points_enumerated,
        "epsilon": epsilon,
        "kappa": kappa,
        "grid_radius": solution.grid_radius,
        "step": solution.step,
        "version": __version__,
        "wall_time_ms": _elapsed_ms(started),
    }
    _emit(result)
    return EXIT_OK if solution.status == "optimal" else EXIT_INFEASIBLE


def _run_mixed(problem: ParsedProblem, started: float, parallel: int) -> int:
    inner = linear_mixed_inner_solver(problem.c, problem.c_cont, problem.A, problem.A_cont, problem.b)
    mixed = MixedProblem(n_int=problem.n, n_cont=problem.n_cont, inner_solver=inner)
    solution = solve_mixed_integer(mixed, problem.radius, parallel=parallel)
    result = {
        "status": solution.status,
        "objective": format_value(solution.objective),
        "x": list(solution.x) if solution.x is not None else None,
        "y": [format_value(v) for v in solution.y] if solution.y is not None else None,
        "oracle_calls": solution.inner_calls,
        "points_enumerated": solution.points_enumerated,
        "version": __version__,
        "wall_time_ms": _elapsed_ms(started),
    }
    _emit(result)
    return EXIT_OK if solution.status == "optimal" else EXIT_INFEASIBLE


def _cmd_enumerate(args) -> int:
    radius = _parse_cli_number(args.radius, "lambda")
    if radius < 0:
        raise ValueError("lambda must be >= 0")
    emitted = 0
    out = sys.stdout
    for point in iter_l1_points(args.n, radius):
        if args.limit is not None and emitted >= args.limit:
            break
        out.write("[" + ",".join(map(str, point.x)) + "]\n")
        emitted += 1
    return EXIT_OK


def _derived_kappa(problem: ParsedProblem) -> float:
    if problem.kind == "lipschitz-linear":
        return linear_lipschitz_constant(problem.c, problem.A)
    # Quadratic objective over the ball, linear constraint rows.
    objective_constant = quadratic_lipschitz_constant(problem.Q, problem.c, (), problem.radius)
    rows_constant = linear_lipschitz_constant((0,) * problem.n, problem.A)
    return max(objective_constant, rows_constant)


def _parse_radius(text: str, problem: ParsedProblem):
    value = _parse_cli_number(text, "--lambda")
    if value < 0:
        raise ValueError("--lambda must be >= 0")
    return value if problem.arithmetic != FLOAT else float(value)


def _parse_weights(text: str, problem: ParsedProblem) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != problem.n:
        raise ProblemFileError("--weights", f"expected {problem.n} comma-separated values")
    weights = []
    for i, part in enumerate(parts):
        w = _parse_cli_number(part, f"--weights[{i}]")
        if w <= 0:
            raise ProblemFileError(f"--weights[{i}]", f"must be > 0, got {part}")
        weights.append(w if problem.arithmetic != FLOAT else float(w))
    return tuple(weights)


def _parse_cli_number(text: str, label: str) -> Fraction:
    text = str(text)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        shown = text if len(text) <= 40 else text[:40] + "..."
        # Past CPython's int-to-str digit limit an int cannot be parsed;
        # say so instead of calling the value not a number.
        digits = sum(map(str.isdigit, text))
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and digits > limit:
            raise ValueError(f"{label}: too many digits ({digits}, at most {limit}): {shown!r}")
        raise ValueError(f"{label}: not a number: {shown!r}")


def _default_tolerance(flag_value):
    source, value = "--tolerance", flag_value
    if value is None:
        env = os.environ.get("L1OPT_TOLERANCE")
        if not env:
            return None
        source = "L1OPT_TOLERANCE"
        try:
            value = float(env)
        except ValueError:
            raise ValueError(f"{source}: not a number: {env!r}")
    if not math.isfinite(value):
        raise ValueError(f"{source} must be finite, got {value}")
    return value


def _elapsed_ms(started: float) -> int:
    return int(round(1000.0 * (time.perf_counter() - started)))


def _emit(result: dict) -> None:
    # Exact counts are written in full, past CPython's int-to-str limit;
    # exact bounds never reach it (see counting.exact_digit_cap).
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(result)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    sys.stdout.write(text + "\n")


if __name__ == "__main__":
    raise SystemExit(main())

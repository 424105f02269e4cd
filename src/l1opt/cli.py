"""Command-line front end.

Commands: solve, count, bound, ptas, enumerate.  Results go to stdout
as a single JSON document (newline-delimited JSON arrays for the point
stream of ``enumerate``); diagnostics go to stderr.  Exit codes: 0 on
success, 1 on input or usage errors, when the continuous part of a
mixed problem is unbounded and when a result holds an infinite or NaN
float, 2 when a solve is infeasible or no grid point passes the relaxed
test, 3 when the continuous relaxation of a bound query is unbounded.

Every number that is not an integer takes the file grammar of
:func:`l1opt.files._scalar`.  The flags ``--lambda``, ``--weights``
(split on commas), ``--epsilon`` and ``--kappa`` are written into the
file's fields of the same names before it is validated; the radius of
``count`` and ``enumerate``, ``--delta``, ``--tolerance`` and its
default, L1OPT_TOLERANCE, are parsed alike.
``ptas`` runs the weighted scheme when the file has weights, and
refuses weights on a mixed file; ``bound`` reads only the region.
Every JSON result ends with ``version`` and ``wall_time_ms``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

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
from .errors import InnerSolverError, ProblemFileError, RegionInfeasibleError, RegionUnboundedError
from .files import ParsedProblem, _radius, _read_document, _scalar, format_value, parse_problem
from .lattice import iter_l1_points
from .ptas import (
    LipschitzProblem,
    MixedProblem,
    linear_lipschitz_constant,
    linear_mixed_inner_solver,
    quadratic_lipschitz_constant,
    solve_lipschitz_ptas,
    solve_mixed_integer,
    solve_weighted_lipschitz_ptas,
)
from .solver import FLOAT, RATIONAL, SolveOptions, WeightedL1Spec, solve_l1_ip, solve_weighted_l1_ip

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
    except (ValueError, RegionInfeasibleError, InnerSolverError) as exc:
        # ValueError covers ProblemFileError and InvalidDimensionError;
        # InnerSolverError is a mixed problem's unbounded continuous part.
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
    p_solve.add_argument("--lambda", metavar="RADIUS", help="override the file's radius")
    p_solve.add_argument("--weights", help="comma-separated weights overriding the file")
    _add_parallel(p_solve)
    p_solve.add_argument("--tolerance", default=None, help="float-mode feasibility tolerance")
    p_solve.set_defaults(handler=_cmd_solve)

    p_count = sub.add_parser("count", help="lattice point counts and bound formulas")
    p_count.add_argument("n", type=int)
    p_count.add_argument("radius", metavar="lambda")
    p_count.add_argument("--norm", choices=("l1", "linf"), default="l1")
    p_count.add_argument("--bounds", action="store_true", help="include lower/upper bound formulas")
    p_count.add_argument("--delta", default=DEFAULT_SLACK)
    p_count.add_argument("--precise", action="store_true", help="use the delta form instead of the simplified bound")
    p_count.add_argument("--width-samples", type=int, default=None, metavar="S",
                         help="also estimate the Gaussian mean width from S samples")
    p_count.add_argument("--seed", type=int, default=0, help="seed for the width estimator")
    p_count.set_defaults(handler=_cmd_count)

    p_bound = sub.add_parser("bound", help="a-priori oracle-complexity bound for a problem file")
    p_bound.add_argument("file")
    p_bound.add_argument("--delta", default=DEFAULT_SLACK)
    p_bound.add_argument("--precise", action="store_true", help="use the delta form instead of the simplified bound")
    p_bound.add_argument("--verify", action="store_true", help="brute-force check the covering radius")
    p_bound.set_defaults(handler=_cmd_bound)

    p_ptas = sub.add_parser("ptas", help="additive approximation of a Lipschitz problem file")
    p_ptas.add_argument("file")
    p_ptas.add_argument("--epsilon", default=None)
    p_ptas.add_argument("--kappa", default=None, help="override the Lipschitz constant")
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


# The problem kinds that each file command reads.
_COMMAND_KINDS = {
    "solve": ("ilp", "iqp", "iqcqp"),
    "bound": ("ilp", "iqp", "lipschitz-linear"),
    "ptas": ("lipschitz-linear", "lipschitz-quadratic", "mixed"),
}

# The flags that stand for the problem-file fields of the same names.
_FIELD_FLAGS = ("lambda", "weights", "epsilon", "kappa")


def _load(args, command: str) -> ParsedProblem:
    """The command's problem file, with its flags written into the file's
    fields before parsing, so flag values are validated as file values."""
    doc = _read_document(args.file)
    if isinstance(doc, dict):
        for field in _FIELD_FLAGS:
            value = getattr(args, field, None)
            if value is not None:
                doc[field] = value.split(",") if field == "weights" else value
    problem = parse_problem(doc)
    kinds = _COMMAND_KINDS[command]
    if problem.kind not in kinds:
        raise ProblemFileError("kind", f"{command} expects one of {kinds}, got {problem.kind!r}")
    return problem


def _cmd_solve(args) -> int:
    started = time.perf_counter()
    problem = _load(args, "solve")
    options = SolveOptions(tolerance=_default_tolerance(args.tolerance), parallel=args.parallel)
    instance = problem.instance()
    if problem.weights is not None:
        spec = WeightedL1Spec(problem.weights, problem.radius)
        solution = solve_weighted_l1_ip(instance, spec, options)
    else:
        solution = solve_l1_ip(instance, problem.radius, options)
    return _report(_solved(solution, solution.oracle_calls, problem.arithmetic == RATIONAL), started)


def _cmd_count(args) -> int:
    started = time.perf_counter()
    radius = _radius(args.radius, RATIONAL)
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
        delta = _scalar(args.delta, FLOAT, "--delta")
        upper = l1_count_upper_bound(args.n, radius, slack=delta, simplified=not args.precise)
        result["bounds"] = {
            "lower": l1_count_lower_bound(args.n),
            "upper": {"exact": upper.exact, "log10": upper.log10},
            "delta": delta,
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
    return _report(result, started)


def _cmd_bound(args) -> int:
    started = time.perf_counter()
    slack = _scalar(args.delta, FLOAT, "--delta")
    problem = _load(args, "bound")
    backend = LinearRegionBackend(problem.A, problem.b)
    report = estimate_bound(backend, problem.n, slack=slack, simplified=not args.precise)
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
    return _report(result, started)


def _cmd_ptas(args) -> int:
    started = time.perf_counter()
    problem = _load(args, "ptas")
    if problem.kind == "mixed":
        if problem.weights is not None:
            raise ProblemFileError("weights", "mixed problems have no weighted solver")
        inner = linear_mixed_inner_solver(
            problem.c, problem.c_cont, problem.A, problem.A_cont, problem.b
        )
        mixed = MixedProblem(n_int=problem.n, n_cont=problem.n_cont, inner_solver=inner)
        solution = solve_mixed_integer(mixed, problem.radius, parallel=args.parallel)
        y = None if solution.y is None else [format_value(v) for v in solution.y]
        return _report(_solved(solution, solution.inner_calls, True, y=y), started)
    epsilon = problem.epsilon
    if epsilon is None:
        raise ProblemFileError(
            "epsilon", "a finite positive epsilon is required (file field or --epsilon)"
        )
    kappa = problem.kappa if problem.kappa is not None else _derived_kappa(problem)
    instance = problem.instance()
    lipschitz = LipschitzProblem(
        n=problem.n,
        objective=instance.objective,
        constraints=instance.constraints,
        lipschitz=kappa,
        radius=float(problem.radius),
    )
    if problem.weights is not None:
        solution = solve_weighted_lipschitz_ptas(
            lipschitz, problem.weights, epsilon, parallel=args.parallel
        )
    else:
        solution = solve_lipschitz_ptas(lipschitz, epsilon, parallel=args.parallel)
    result = _solved(solution, solution.oracle_calls, False)
    result.update(epsilon=epsilon, kappa=kappa, grid_radius=solution.grid_radius, step=solution.step)
    return _report(result, started)


def _cmd_enumerate(args) -> int:
    radius = _radius(args.radius, RATIONAL)
    emitted = 0
    out = sys.stdout
    for point in iter_l1_points(args.n, radius):
        if args.limit is not None and emitted >= args.limit:
            break
        out.write("[" + ",".join(map(str, point.x)) + "]\n")
        emitted += 1
    return EXIT_OK


def _solved(solution, calls: int, exact: bool, **y) -> dict:
    """The record of a solve: status, objective, x (and y), then counts.
    The objective is written as an exact string when ``exact`` (rational
    solves and mixed ones), and else as a float, zero included."""
    objective = solution.objective
    if objective is not None:
        objective = format_value(objective) if exact else float(objective)
    return {
        "status": solution.status,
        "objective": objective,
        "x": None if solution.x is None else list(solution.x),
        **y,
        "oracle_calls": calls,
        "points_enumerated": solution.points_enumerated,
    }


def _report(result: dict, started: float) -> int:
    """Add ``version`` and ``wall_time_ms``, write ``result``, and return
    the exit code of its ``status``: 0 for "ok", "optimal" or none, else 2.
    A result that holds an infinite or NaN float, which JSON cannot carry,
    raises ``ValueError`` before anything is written."""
    result["version"] = __version__
    result["wall_time_ms"] = int(round(1000.0 * (time.perf_counter() - started)))
    # Exact counts are written in full, past CPython's int-to-str limit;
    # exact bounds never reach it (see counting.exact_digit_cap).
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(result, allow_nan=False)
    except ValueError:
        raise ValueError("the result holds a non-finite float, which JSON cannot carry") from None
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    sys.stdout.write(text + "\n")
    return EXIT_OK if result.get("status", "ok") in ("ok", "optimal") else EXIT_INFEASIBLE


def _derived_kappa(problem: ParsedProblem) -> float:
    """The shared Lipschitz constant of the file's forms; 1.0 when every
    form is constant, since any positive constant is then valid."""
    if problem.kind == "lipschitz-linear":
        kappa = linear_lipschitz_constant(problem.c, problem.A)
    else:
        # Quadratic objective over the ball, linear constraint rows.
        objective_constant = quadratic_lipschitz_constant(problem.Q, problem.c, (), problem.radius)
        rows_constant = linear_lipschitz_constant((0,) * problem.n, problem.A)
        kappa = max(objective_constant, rows_constant)
    return kappa or 1.0


def _default_tolerance(flag_value):
    if flag_value is not None:
        return _scalar(flag_value, FLOAT, "--tolerance")
    env = os.environ.get("L1OPT_TOLERANCE")
    return _scalar(env, FLOAT, "L1OPT_TOLERANCE") if env else None


if __name__ == "__main__":
    raise SystemExit(main())

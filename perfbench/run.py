#!/usr/bin/env python3
"""Layered benchmark of l1opt on three seeded workloads.

    python3 perfbench/run.py --workload exact --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --pin 1 2

One closed-loop client (each job starts when the previous one returns)
runs the workload's rounds back to back for ``--seconds`` through the
public l1opt API of this checkout's ``src/``.  Every result goes
through the correctness gate in ``reference.py`` and, for the seeds in
``expected.jsonl``, through the values pinned there.  ``--trace 1``
pairs each untraced round with a traced one and reports per-layer
numbers instead of end-to-end ones.  ``--smoke`` runs tiny versions of
all workloads and checks the metric names, units and the gate itself;
``--pin`` records expected results for new seeds.

Human-readable lines come first; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full report, and the spans of a traced run, are written to
``perfbench/out/``.  The exit code is 1 when a job failed or the
package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.jsonl"

END_TO_END = {"setup_s": "s", "round_cal": "cal", "peak_rss_mb": "MB"}
PER_LAYER = {
    "lattice.points": "count",
    "lattice.walk_s": "s",
    "lattice.points_per_s": "1/s",
    "lattice.shard_max_share": "ratio",
    "solver.evals": "count",
    "solver.eval_s": "s",
    "solver.eval_share": "ratio",
    "solver.accept_ratio": "ratio",
    "solver.loop_s": "s",
    "solver.par_speedup": "ratio",
    "ptas.inner_calls": "count",
    "ptas.inner_share": "ratio",
    "lp.calls": "count",
    "lp.share": "ratio",
    "complexity.backend_calls": "count",
    "complexity.estimate_share": "ratio",
    "files.parse_s": "s",
    "trace.overhead_ratio": "ratio",
}
SOLVE_KINDS = ("ilp", "iqp", "weighted", "ptas", "mixed")
SETUP_REPEATS = 3


def import_package() -> None:
    """Import l1opt from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import l1opt
    except ImportError as exc:
        sys.exit(f"error: l1opt is not importable from {SRC}: {exc}")
    if SRC not in Path(l1opt.__file__).resolve().parents:
        sys.exit(f"error: imported l1opt from {l1opt.__file__}, not from {SRC}")


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import l1opt from src/."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "start = time.perf_counter(); import l1opt; print(time.perf_counter() - start)"
    )
    argv = [sys.executable, "-c", code, str(SRC)]
    return statistics.median(
        float(subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout)
        for _ in range(SETUP_REPEATS)
    )


@dataclass
class Execution:
    job: object
    result: object
    error: Optional[str]
    seconds: float
    span: int = 0


def calibrate() -> float:
    """Seconds taken by a fixed slice of interpreter work (about 45 ms).

    The host's speed drifts by up to 40% over minutes, as other tenants
    load the cores, for the jobs and for this loop alike.  Dividing a
    run's round time by the mean of samples taken between its jobs
    gives the round's cost in calibration units ("cal"), which varies
    about half as much from run to run as the seconds do.  The loop
    mixes the Fraction, float and tuple work of the solvers and never
    calls l1opt, so no change to the package can move it.
    """
    start = time.perf_counter()
    total, acc = Fraction(0), 0.0
    for i in range(1, 12000):
        total += Fraction(i % 7, i % 5 + 1)
        acc += (i * 0.37) * (i % 3)
        tuple(range(i % 9))
    return time.perf_counter() - start


@dataclass
class Report:
    workload: str
    seed: int
    trace: int
    metrics: dict
    kinds: dict = field(default_factory=dict)
    rounds: int = 0
    executions: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    failed: int = 0
    jobs: list = field(default_factory=list)
    spans: Optional[dict] = None


def run_round(jobs, tracer=None, parent=None, parallel=None) -> list[Execution]:
    done = []
    for job in jobs:
        span = tracer.new_span() if tracer else 0
        start = time.perf_counter()
        try:
            result, error = job.run(tracer, span, parallel), None
        except Exception:
            result, error = None, traceback.format_exc()
        end = time.perf_counter()
        if tracer:
            tracer.record(span, parent, job.spec.job_id, start, end)
        done.append(Execution(job, result, error, end - start, span))
    return done


def set_up(workload: str, seed: int, size: str):
    """Generate, serialize, parse and build the round pool, then warm up once."""
    from jobs import build, document_text
    from workloads import POOL_ROUNDS, round_jobs

    start = time.perf_counter()
    texts = [
        [(spec, document_text(spec)) for spec in round_jobs(workload, seed, r, size)]
        for r in range(POOL_ROUNDS)
    ]
    parse_start = time.perf_counter()
    pool = [[build(spec, text) for spec, text in specs] for specs in texts]
    parse_s = (time.perf_counter() - parse_start) / POOL_ROUNDS
    run_round([build(spec, document_text(spec)) for spec in round_jobs(workload, seed, 0, "smoke")])
    return pool, parse_s, time.perf_counter() - start


def run_workload(workload, seed, seconds, trace, size="full", pinned=None) -> Report:
    from reference import Reference

    setups = [set_up(workload, seed, size) for _ in range(SETUP_REPEATS)]
    pool = setups[-1][0]
    if trace:
        report = _traced(workload, seed, seconds, pool, statistics.median(s[1] for s in setups))
    else:
        setup_s = import_seconds() + statistics.median(s[2] for s in setups)
        report = _untraced(workload, seed, seconds, pool, setup_s)
    report.failed, report.problems = gate(report.executions, Reference(), pinned or {})
    return report


def _closed_loop(pool, seconds, one_round):
    """Run rounds back to back while the next one is expected to fit in ``seconds``."""
    results, times = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(one_round(pool[len(results) % len(pool)]))
        times.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(times) > seconds:
            return results


def _untraced(workload, seed, seconds, pool, setup_s) -> Report:
    samples = [calibrate()]

    def calibrated_round(jobs):
        done = []
        for job in jobs:
            done += run_round([job])
            samples.append(calibrate())
        return done

    rounds = _closed_loop(pool, seconds, calibrated_round)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cal_s = statistics.mean(samples)
    kinds = {"calibration_s": cal_s, "round_s": statistics.median(sum(e.seconds for e in r) for r in rounds)}
    for kind in dict.fromkeys(e.job.kind for e in rounds[0]):
        kinds[f"{kind}_s"] = statistics.median(
            sum(e.seconds for e in r if e.job.kind == kind) for r in rounds
        )
    metrics = {
        "setup_s": setup_s,
        "round_cal": kinds["round_s"] / cal_s,
        "peak_rss_mb": peak_rss_mb,
    }
    executions = [e for r in rounds for e in r]
    return Report(workload, seed, 0, metrics, kinds, len(rounds), executions)


def _traced(workload, seed, seconds, pool, parse_s) -> Report:
    import l1opt
    from jobs import Tracer

    tracer = Tracer()

    def pair(jobs):
        plain = run_round(jobs)
        round_span = tracer.new_span()
        start = time.perf_counter()
        traced = run_round(jobs, tracer, round_span)
        tracer.record(round_span, None, "round", start, time.perf_counter())
        return plain, traced

    pairs = _closed_loop(pool, seconds, pair)
    executions = [e for plain, traced in pairs for e in plain + traced]

    # solver.par_speedup: the round's first solve, untraced, at parallel=1
    # and 2 in the order 1, 2, 2, 1 so that a drift in host speed cancels.
    first = next(e.job for e in pairs[0][0] if e.job.kind in SOLVE_KINDS)
    probes = [run_round([first], parallel=k)[0] for k in (1, 2, 2, 1)]
    executions.extend(probes)
    speedup = (probes[0].seconds + probes[3].seconds) / (probes[1].seconds + probes[2].seconds)

    # lattice.walk_s: a separate timed drain of each ball a traced job walked.
    drains = {}
    for _, traced in pairs:
        for e in traced:
            walk = None if e.error else e.job.walk(e.result)
            if walk is not None:
                start = time.perf_counter()
                count = sum(1 for _ in l1opt.iter_l1_points(*walk))
                end = time.perf_counter()
                drains[e.span] = (end - start, count)
                tracer.record(tracer.new_span(), e.span, "drain", start, end)

    per_pair = []
    jobs = []
    for plain, traced in pairs:
        metrics, rows = _layer_metrics(plain, traced, tracer, drains)
        metrics["solver.par_speedup"] = speedup
        metrics["files.parse_s"] = parse_s
        per_pair.append(metrics)
        jobs.extend(rows)
    metrics = {name: statistics.median(m[name] for m in per_pair) for name in PER_LAYER}
    return Report(workload, seed, 1, metrics, {}, len(pairs), executions, jobs=jobs, spans=tracer.to_json())


def _layer_metrics(plain, traced, tracer, drains):
    total = {k: 0 for k in ("points", "walk_s", "drained", "evals", "eval_s", "solve_s",
                              "solve_points", "solve_walk_s", "inner", "inner_s", "backend",
                              "backend_s", "bound_s")}
    shares = []
    rows = []
    for e in traced:
        if e.error:
            continue
        cells = tracer.layer_cells(e.span)

        def calls(layer):
            return sum(c[0] for c in cells.get(layer, ()))

        def secs(layer):
            return sum(c[1] for c in cells.get(layer, ()))

        walk_s, drained = drains.get(e.span, (0.0, 0))
        total["walk_s"] += walk_s
        total["drained"] += drained
        total["inner"] += calls("inner")
        total["inner_s"] += secs("inner")
        total["backend"] += calls("backend")
        total["backend_s"] += secs("backend")
        row = {"job": e.job.spec.job_id, "wall_s": e.seconds, "walk_s": walk_s}
        if e.job.kind == "enum":
            total["points"] += e.result
        elif e.job.kind == "bound":
            total["bound_s"] += e.seconds
            row["lp_s"] = secs("backend")
        else:
            evals = calls("objective") + calls("inner")
            eval_s = secs("objective") + secs("constraints") + secs("inner")
            points = e.result.points_enumerated
            total["points"] += points
            total["evals"] += evals
            total["eval_s"] += eval_s
            total["solve_s"] += e.seconds
            total["solve_points"] += points
            total["solve_walk_s"] += walk_s
            row.update(eval_s=eval_s, loop_s=e.seconds - walk_s - eval_s, evals=evals, points=points)
            if e.job.spec.parallel > 1:
                per_thread = [c[0] for c in cells.get("objective", ()) or cells.get("inner", ())]
                shares.append(max(per_thread) / sum(per_thread))
        rows.append(row)
    round_s = sum(e.seconds for e in traced)
    metrics = {
        "lattice.points": total["points"],
        "lattice.walk_s": total["walk_s"],
        "lattice.points_per_s": _ratio(total["drained"], total["walk_s"]),
        "lattice.shard_max_share": max(shares, default=1.0),
        "solver.evals": total["evals"],
        "solver.eval_s": total["eval_s"],
        "solver.eval_share": _ratio(total["eval_s"], total["solve_s"]),
        "solver.accept_ratio": _ratio(total["evals"], total["solve_points"]),
        "solver.loop_s": total["solve_s"] - total["solve_walk_s"] - total["eval_s"],
        "ptas.inner_calls": total["inner"],
        "ptas.inner_share": _ratio(total["inner_s"], round_s),
        "lp.calls": total["inner"] + total["backend"],
        "lp.share": _ratio(total["inner_s"] + total["backend_s"], round_s),
        "complexity.backend_calls": total["backend"],
        "complexity.estimate_share": _ratio(total["bound_s"], round_s),
        "trace.overhead_ratio": _ratio(round_s, sum(e.seconds for e in plain)),
    }
    return metrics, rows


def _ratio(part, whole) -> float:
    """part / whole, or 0 when every job that would give ``whole`` failed."""
    return part / whole if whole else 0.0


def gate(executions, reference, pinned) -> tuple[int, list[str]]:
    """Check every execution; return the number that failed and why."""
    import l1opt
    from jobs import normalize
    from reference import compare, feasibility_problems, walk_problems

    expected = {}
    walks = {}
    failed = 0
    problems = []
    for e in executions:
        spec = e.job.spec
        if e.error:
            faults = [f"raised {e.error.strip().splitlines()[-1]}"]
            print(e.error, file=sys.stderr)
        else:
            got = normalize(spec.kind, e.result)
            try:
                if spec.job_id not in expected:
                    expected[spec.job_id] = reference.expected(spec.kind, spec.doc, spec.walk)
                approximate = spec.kind in ("mixed", "bound")
                faults = compare(got, expected[spec.job_id], approximate)
                faults += feasibility_problems(spec.kind, spec.doc, got)
            except Exception:
                faults = [f"reference failed: {traceback.format_exc()}"]
            if spec.job_id in pinned:
                faults += ["pinned " + p for p in compare(got, pinned[spec.job_id], False)]
            if spec.kind == "enum":
                if spec.walk not in walks:
                    walks[spec.walk] = walk_problems(*spec.walk, l1opt.iter_l1_points(*spec.walk))
                faults += walks[spec.walk]
        if faults:
            failed += 1
            problems.extend(f"{spec.job_id}: {fault}" for fault in faults)
    return failed, problems


def machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _pinned_lines() -> list[dict]:
    """One record per pinned job: seed, workload, job id and expected fields."""
    if not EXPECTED.exists():
        return []
    return [json.loads(line) for line in EXPECTED.read_text().splitlines()]


def load_pinned(seed: int, workload: str) -> dict:
    return {
        line["job"]: line["expected"]
        for line in _pinned_lines()
        if line["seed"] == seed and line["workload"] == workload
    }


def pinned_record(kind: str, record: dict) -> dict:
    """The fields fixed at the pinning commit; evaluation counts may change."""
    keep = {k: v for k, v in record.items() if k != "evals"}
    if kind == "weighted":
        keep.pop("points")
    return keep


def print_report(report: Report, info: dict) -> dict:
    units = PER_LAYER if report.trace else END_TO_END
    attempted = len(report.executions)
    print(f"machine {json.dumps(info)}")
    print(
        f"workload {report.workload} seed {report.seed} trace {report.trace}: "
        f"{report.rounds} round(s), {attempted} jobs, {report.failed} failed"
    )
    for name, value in report.kinds.items():
        how = "mean of samples between jobs" if name == "calibration_s" else f"median of {report.rounds} rounds"
        print(f"  {name:28s} {value:12.6f} s      {how}")
    for row in report.jobs:
        print("  job " + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in row.items()))
    for name, value in report.metrics.items():
        print(f"  {name:28s} {value:12.6f} {units[name]}")
    print(f"  {'failed_ratio':28s} {report.failed / attempted:12.6f} ratio  ({report.failed}/{attempted})")
    for problem in report.problems:
        print(f"FAILED {problem}")
    result = {
        "correct": report.failed == 0,
        "attempted": attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in report.metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    executions = [[e.job.spec.job_id, e.seconds] for e in report.executions]
    dump = dict(result, machine=info, workload=report.workload, seed=report.seed, rounds=report.rounds,
                kinds=report.kinds, jobs=report.jobs, executions=executions, problems=report.problems,
                trace=report.spans)
    name = f"{report.workload}-seed{report.seed}-trace{report.trace}.json"
    (OUT / name).write_text(json.dumps(dump, indent=1) + "\n")
    return result


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
            return proc.returncode or 1
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for name, metric in part["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return code


def pin(seeds: list[int]) -> int:
    """Run every pool job of every workload once and record its result."""
    import_package()
    from jobs import build, document_text, normalize
    from reference import Reference
    from workloads import POOL_ROUNDS, WORKLOADS, round_jobs

    lines = [line for line in _pinned_lines() if line["seed"] not in seeds]
    for seed in seeds:
        for workload in WORKLOADS:
            jobs = [build(s, document_text(s)) for r in range(POOL_ROUNDS) for s in round_jobs(workload, seed, r)]
            executions = run_round(jobs)
            failed, problems = gate(executions, Reference(), {})
            if failed:
                print("\n".join(problems), file=sys.stderr)
                return 1
            lines += [
                {"seed": seed, "workload": workload, "job": e.job.spec.job_id,
                 "expected": pinned_record(e.job.kind, normalize(e.job.kind, e.result))}
                for e in executions
            ]
            print(f"pinned seed {seed} {workload}: {len(executions)} jobs", file=sys.stderr)
    lines.sort(key=lambda line: (line["seed"], line["workload"], line["job"]))
    EXPECTED.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines))
    return 0


def smoke() -> int:
    """Tiny runs of every workload: metric names and units, and the gate itself."""
    import_package()
    from jobs import normalize
    from reference import Reference
    from workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            report = run_workload(workload, 1, 0, trace, size="smoke")
            units = PER_LAYER if trace else END_TO_END
            shown = {name: units[name] for name in report.metrics}
            if shown != declared[trace]:
                errors.append(f"{workload} trace {trace}: metrics {shown} differ from BENCHMARK.json")
            if report.failed:
                errors.append(f"{workload} trace {trace}: gate failed: {report.problems}")
        # A corrupted expected value, pinned or from the reference, must fail the gate.
        target = next(e for e in report.executions if e.job.kind != "enum")
        corrupt = {target.job.spec.job_id: _corrupt(normalize(target.job.kind, target.result))}
        if gate([target], Reference(), corrupt)[0] != 1:
            errors.append(f"{workload}: a corrupted pinned value passed the gate")

        class Corrupted(Reference):
            def expected(self, kind, doc, walk=None):
                return _corrupt(super().expected(kind, doc, walk))

        if gate([target], Corrupted(), {})[0] != 1:
            errors.append(f"{workload}: a corrupted reference value passed the gate")
    for error in errors:
        print(f"SMOKE FAILED {error}")
    print("smoke ok" if not errors else f"smoke failed: {len(errors)} problem(s)")
    return 1 if errors else 0


def _corrupt(record: dict) -> dict:
    record = dict(record)
    for key in ("objective", "rho", "points"):
        value = record.get(key)
        if isinstance(value, str):
            record[key] = str(Fraction(value) + 1)
        elif isinstance(value, (int, float)):
            record[key] = value + 1
        else:
            continue
        return record
    record["status"] = "corrupted"
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("exact", "wide", "lp-mixed", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny self-check of metrics and gate")
    parser.add_argument("--pin", type=int, nargs="+", metavar="SEED", help="record expected results")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.pin:
        return pin(args.pin)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    import_package()
    info = machine()
    pinned = load_pinned(args.seed, args.workload)
    report = run_workload(args.workload, args.seed, args.seconds, args.trace, pinned=pinned)
    print(json.dumps(print_report(report, info)))
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Summarize the run reports in perfbench/out/ into one baseline document.

    python3 perfbench/summarize.py > perfbench/baseline.json

Groups the reports by workload, and gives every metric's median,
quartiles, spread (interquartile range over median) and run count,
with the machine the runs were made on.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def describe(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "runs": len(values)}


def main() -> int:
    reports = [json.loads(path.read_text()) for path in sorted(OUT.glob("*.json"))]
    if not reports:
        sys.exit(f"no reports in {OUT}")
    machines = {json.dumps(r["machine"], sort_keys=True) for r in reports}
    if len(machines) != 1:
        sys.exit(f"reports come from {len(machines)} different machines")
    summary = {"machine": reports[0]["machine"], "workloads": {}}
    for workload in dict.fromkeys(r["workload"] for r in reports):
        mine = [r for r in reports if r["workload"] == workload]
        entry = {
            "attempted": sum(r["attempted"] for r in mine),
            "failed": sum(r["failed"] for r in mine),
        }
        for label, runs, field in (
            ("end_to_end", [r for r in mine if not r["jobs"]], "metrics"),
            ("per_kind", [r for r in mine if not r["jobs"]], "kinds"),
            ("per_layer", [r for r in mine if r["jobs"]], "metrics"),
        ):
            if not runs:
                continue
            entry[f"{label}_seeds"] = sorted(r["seed"] for r in runs)
            entry[label] = {
                name: describe([r[field][name]["value"] if field == "metrics" else r[field][name] for r in runs])
                for name in runs[0][field]
            }
        traced = [r for r in mine if r["jobs"]]
        if traced:
            entry["jobs_of_seed"] = traced[0]["seed"]
            entry["jobs"] = traced[0]["jobs"]
        summary["workloads"][workload] = entry
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

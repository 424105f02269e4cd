"""Seeded problem documents for the three benchmark workloads.

Every instance is a problem-file document (the JSON format that
``l1opt.files.parse_problem`` reads), generated from the workload seed
alone.  A workload run cycles through ``POOL_ROUNDS`` rounds; round
``r`` holds one job of each kind listed in ``KINDS[workload]``, built
from a document whose random stream is named by the seed, workload,
round and slot.

Coefficient shapes are fixed per kind (dense rows, numerators and
denominators from fixed ranges), so the work per job depends mostly on
the sizes below; the simplex pivot count of the LP jobs still varies
with the data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

WORKLOADS = ("exact", "wide", "lp-mixed")

KINDS = {
    "exact": ("ilp", "iqp"),
    "wide": ("enum", "ilp", "weighted", "ptas"),
    "lp-mixed": ("mixed", "mixed", "bound"),
}

# Jobs of the wide workload run at parallel=2, the way a user on a
# 2-core machine would run them; the other workloads run serially.
PARALLEL = {"exact": 1, "wide": 2, "lp-mixed": 1}

POOL_ROUNDS = 8

# Per-workload instance sizes.  "full" is what the benchmark measures,
# "smoke" is a seconds-long version of the same jobs for self-checks.
SIZES = {
    "full": {
        "exact": {"n": 12, "radius": 3, "m": 6},
        "wide": {"enum_n": 30, "enum_radius": 4, "n": 40, "radius": 3, "m": 6, "grid": 3},
        "lp-mixed": {"n_int": 6, "p": 3, "radius": 3, "m_rand": 5, "bound_n": 12, "bound_m": 48},
    },
    "smoke": {
        "exact": {"n": 4, "radius": 2, "m": 2},
        "wide": {"enum_n": 6, "enum_radius": 2, "n": 6, "radius": 2, "m": 2, "grid": 2},
        "lp-mixed": {"n_int": 3, "p": 2, "radius": 2, "m_rand": 2, "bound_n": 3, "bound_m": 8},
    },
}

WEIGHT_CYCLE = ("1", "5/2")  # alternating weights 1 and 2.5


@dataclass(frozen=True)
class JobSpec:
    """One job of a round: a problem document, or a bare walk for ``enum``."""

    job_id: str
    kind: str
    parallel: int
    doc: Optional[dict] = None
    walk: Optional[tuple[int, int]] = None


def round_jobs(workload: str, seed: int, round_index: int, size: str = "full") -> list[JobSpec]:
    """The jobs of one round, in the order the closed loop runs them."""
    dims = SIZES[size][workload]
    parallel = PARALLEL[workload]
    jobs = []
    for slot, kind in enumerate(KINDS[workload]):
        rng = random.Random(f"{seed}:{workload}:{round_index}:{slot}:{kind}")
        job_id = f"r{round_index}.{slot}.{kind}"
        if kind == "enum":
            jobs.append(JobSpec(job_id, kind, 1, walk=(dims["enum_n"], dims["enum_radius"])))
            continue
        if workload == "exact":
            doc = _exact_doc(rng, kind, dims)
        elif kind in ("ilp", "weighted"):
            # The weighted job reuses the round's ILP data under a weighted budget.
            ilp_rng = random.Random(f"{seed}:{workload}:{round_index}:ilp-data")
            doc = _float_ilp_doc(ilp_rng, dims)
            if kind == "weighted":
                doc["weights"] = [WEIGHT_CYCLE[i % 2] for i in range(dims["n"])]
        elif kind == "ptas":
            doc = _ptas_doc(rng, dims)
        elif kind == "mixed":
            doc = _mixed_doc(rng, dims)
        else:
            doc = _bound_doc(rng, dims)
        jobs.append(JobSpec(job_id, kind, parallel, doc=doc))
    return jobs


def _fraction(rng: random.Random, numerator_max: int, positive: bool = False) -> str:
    """A nonzero rational with a denominator in 2..9, spelled as in problem files."""
    num = rng.randint(1, numerator_max)
    if not positive and rng.random() < 0.5:
        num = -num
    return str(Fraction(num, rng.randint(2, 9)))


def _fraction_between(rng: random.Random, lo: int, hi: int) -> str:
    """A rational in [lo, hi] with a denominator in 2..9."""
    den = rng.randint(2, 9)
    return str(Fraction(rng.randint(lo * den, hi * den), den))


def _fraction_vector(rng, length, numerator_max, positive=False):
    return [_fraction(rng, numerator_max, positive) for _ in range(length)]


def _exact_doc(rng: random.Random, kind: str, dims: dict) -> dict:
    n, m = dims["n"], dims["m"]
    doc = {"kind": kind, "n": n, "m": m, "arithmetic": "rational", "lambda": str(dims["radius"])}
    if kind == "iqp":
        doc["Q"] = [_fraction_vector(rng, n, 9) for _ in range(n)]
    doc["c"] = _fraction_vector(rng, n, 9)
    doc["A"] = [_fraction_vector(rng, n, 9) for _ in range(m)]
    doc["b"] = _fraction_vector(rng, m, 18, positive=True)
    return doc


def _uniform_vector(rng, length, lo, hi):
    return [rng.uniform(lo, hi) for _ in range(length)]


def _float_ilp_doc(rng: random.Random, dims: dict) -> dict:
    n, m = dims["n"], dims["m"]
    return {
        "kind": "ilp",
        "n": n,
        "m": m,
        "arithmetic": "float",
        "lambda": dims["radius"],
        "c": _uniform_vector(rng, n, -1.0, 1.0),
        "A": [_uniform_vector(rng, n, -1.0, 1.0) for _ in range(m)],
        "b": _uniform_vector(rng, m, 0.5, 2.0),
    }


def _ptas_doc(rng: random.Random, dims: dict) -> dict:
    n, m = dims["n"], dims["m"]
    c = _uniform_vector(rng, n, -1.0, 1.0)
    A = [_uniform_vector(rng, n, -1.0, 1.0) for _ in range(m)]
    kappa = max(sum(abs(v) for v in row) for row in [c] + A)
    # grid radius = floor(lambda * kappa / epsilon) = floor(grid + 1/2)
    epsilon = kappa / (dims["grid"] + 0.5)
    return {
        "kind": "lipschitz-linear",
        "n": n,
        "m": m,
        "arithmetic": "float",
        "lambda": 1.0,
        "kappa": kappa,
        "epsilon": epsilon,
        "c": c,
        "A": A,
        "b": _uniform_vector(rng, m, -0.5, 0.5),
    }


def _mixed_doc(rng: random.Random, dims: dict) -> dict:
    n, p, m_rand = dims["n_int"], dims["p"], dims["m_rand"]
    A_x = [_fraction_vector(rng, n, 9) for _ in range(m_rand)]
    A_y = [_fraction_vector(rng, p, 9) for _ in range(m_rand)]
    b = [_fraction_between(rng, 1, 3) for _ in range(m_rand)]
    # Box rows -B <= y_j <= B keep every continuous subproblem bounded.
    for j in range(p):
        for sign in (1, -1):
            A_x.append(["0"] * n)
            A_y.append([str(sign) if k == j else "0" for k in range(p)])
            b.append(_fraction_between(rng, 1, 3))
    return {
        "kind": "mixed",
        "n": n,
        "p": p,
        "m": len(b),
        "arithmetic": "rational",
        "lambda": str(dims["radius"]),
        "c_x": _fraction_vector(rng, n, 9),
        "c_y": _fraction_vector(rng, p, 9),
        "A_x": A_x,
        "A_y": A_y,
        "b": b,
    }


def _bound_doc(rng: random.Random, dims: dict) -> dict:
    n, m = dims["bound_n"], dims["bound_m"]
    # x_i >= -B for every i and sum(x) <= B make the region bounded; the
    # remaining rows are random cuts.
    A = [["-1" if k == i else "0" for k in range(n)] for i in range(n)]
    A.append(["1"] * n)
    b = [_fraction_between(rng, 1, 3) for _ in range(m)]
    for _ in range(m - n - 1):
        A.append(_fraction_vector(rng, n, 9))
    return {
        "kind": "ilp",
        "n": n,
        "m": m,
        "arithmetic": "rational",
        "lambda": "1",
        "c": _fraction_vector(rng, n, 9),
        "A": A,
        "b": b,
    }

"""Turn problem documents into runnable jobs on the public l1opt API.

Each document goes through ``json`` text and ``l1opt.files.parse_problem``
exactly as a problem file would.  A job runs untraced, or traced with
the caller-supplied callables it hands to l1opt wrapped by a
:class:`Tracer`: ``ProblemInstance`` and ``LipschitzProblem`` oracles,
``MixedProblem.inner_solver`` and a ``ConvexOptBackend`` delegating to
``LinearRegionBackend``.  Nothing inside the package is patched.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from fractions import Fraction
from typing import Callable, Optional

import l1opt
from l1opt.files import ParsedProblem, parse_problem

from workloads import JobSpec


class Tracer:
    """Spans and per-span layer counters, kept in memory until the run ends.

    A span is ``(id, parent, name, start, end)`` in ``perf_counter``
    seconds.  Per-point callables are too many to record one span each,
    so their calls and thread CPU seconds are summed per enclosing job
    span and per thread.  Thread CPU time keeps the other worker's turn
    on the interpreter lock out of a call's duration, and per-thread
    cells need no lock.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.layers: list[tuple[int, str, dict]] = []
        self._ids = itertools.count(1)

    def new_span(self) -> int:
        return next(self._ids)

    def record(self, span_id: int, parent: Optional[int], name: str, start: float, end: float):
        self.spans.append((span_id, parent, name, start, end))

    def timed(self, span_id: int, layer: str, fn: Callable) -> Callable:
        cells: dict[int, list] = {}
        self.layers.append((span_id, layer, cells))
        clock = time.thread_time

        def wrapper(*args):
            tid = threading.get_ident()
            cell = cells.get(tid)
            if cell is None:
                cell = cells.setdefault(tid, [0, 0.0])
            start = clock()
            try:
                return fn(*args)
            finally:
                cell[0] += 1
                cell[1] += clock() - start

        return wrapper

    def layer_cells(self, span_id: int) -> dict[str, list]:
        """Per-thread [calls, seconds] cells of each layer of one span."""
        return {layer: list(cells.values()) for sid, layer, cells in self.layers if sid == span_id}

    def to_json(self) -> dict:
        return {
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4]}
                for s in self.spans
            ],
            "layers": [
                {
                    "span": span_id,
                    "layer": layer,
                    "calls": sum(c[0] for c in cells.values()),
                    "cpu_s": sum(c[1] for c in cells.values()),
                }
                for span_id, layer, cells in self.layers
            ],
        }


class TracedBackend(l1opt.ConvexOptBackend):
    """Backend that times each call into the wrapped backend."""

    def __init__(self, inner: l1opt.ConvexOptBackend, tracer: Tracer, span_id: int):
        self._maximize = tracer.timed(span_id, "backend", inner.maximize)

    def maximize(self, direction, lifted_bounds=None):
        return self._maximize(direction, lifted_bounds)


@dataclasses.dataclass
class Job:
    spec: JobSpec
    parsed: Optional[ParsedProblem]
    instance: Optional[l1opt.ProblemInstance]

    @property
    def kind(self) -> str:
        return self.spec.kind

    def run(self, tracer: Optional[Tracer] = None, span_id: int = 0, parallel: Optional[int] = None):
        """Call the l1opt API once and return its raw result."""
        kind, p = self.kind, self.parsed
        parallel = self.spec.parallel if parallel is None else parallel

        def wrap(layer, fn):
            return fn if tracer is None else tracer.timed(span_id, layer, fn)

        if kind == "enum":
            n, radius = self.spec.walk
            count = 0
            for _ in l1opt.iter_l1_points(n, radius):
                count += 1
            return count
        if kind == "bound":
            backend = l1opt.LinearRegionBackend(p.A, p.b)
            if tracer is not None:
                backend = TracedBackend(backend, tracer, span_id)
            return l1opt.estimate_bound(backend, p.n)
        if kind == "mixed":
            inner = l1opt.linear_mixed_inner_solver(p.c, p.c_cont, p.A, p.A_cont, p.b)
            problem = l1opt.MixedProblem(
                n_int=p.n, n_cont=p.n_cont, inner_solver=wrap("inner", inner)
            )
            return l1opt.solve_mixed_integer(problem, p.radius, parallel=parallel)
        objective = wrap("objective", self.instance.objective)
        constraints = wrap("constraints", self.instance.constraints)
        if kind == "ptas":
            problem = l1opt.LipschitzProblem(
                n=p.n,
                objective=objective,
                constraints=constraints,
                lipschitz=p.kappa,
                radius=float(p.radius),
            )
            return l1opt.solve_lipschitz_ptas(problem, p.epsilon, parallel=parallel)
        instance = dataclasses.replace(self.instance, objective=objective, constraints=constraints)
        options = l1opt.SolveOptions(parallel=parallel)
        if kind == "weighted":
            spec = l1opt.WeightedL1Spec(p.weights, p.radius)
            return l1opt.solve_weighted_l1_ip(instance, spec, options)
        return l1opt.solve_l1_ip(instance, p.radius, options)

    def walk(self, result) -> Optional[tuple[int, object]]:
        """(dimension, radius) of the ball the job walked, or None."""
        p = self.parsed
        if self.kind == "enum":
            return self.spec.walk
        if self.kind in ("ilp", "iqp", "mixed"):
            return (p.n, p.radius)
        if self.kind == "ptas":
            return (p.n, result.grid_radius)
        if self.kind == "weighted":
            kept = [w for w in p.weights if w <= p.radius]
            return (len(kept), p.radius / min(p.weights)) if kept else None
        return None


def document_text(spec: JobSpec) -> Optional[str]:
    return None if spec.doc is None else json.dumps(spec.doc)


def build(spec: JobSpec, text: Optional[str]) -> Job:
    """Parse a job's document and build its solver inputs."""
    if text is None:
        return Job(spec, None, None)
    parsed = parse_problem(json.loads(text))
    instance = parsed.instance() if spec.kind in ("ilp", "iqp", "weighted", "ptas") else None
    return Job(spec, parsed, instance)


def normalize(kind: str, result) -> dict:
    """A JSON-ready record of the result fields the correctness gate compares."""
    if kind == "enum":
        return {"points": result}
    if kind == "bound":
        return {
            "l": [_value(v) for v in result.l],
            "u": [_value(v) for v in result.u],
            "rho": result.rho,
            "calls": result.backend_calls,
        }
    record = {
        "status": result.status,
        "x": None if result.x is None else list(result.x),
        "objective": _value(result.objective),
        "points": result.points_enumerated,
    }
    if kind == "mixed":
        record["y"] = None if result.y is None else [_value(v) for v in result.y]
        record["evals"] = result.inner_calls
    else:
        record["evals"] = result.oracle_calls
    return record


def _value(v):
    """Exact rationals as strings, floats as JSON numbers (repr round-trips)."""
    if isinstance(v, (Fraction, int)) and not isinstance(v, bool):
        return str(Fraction(v))
    return v

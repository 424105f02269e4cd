"""Problem-file parsing, validation, and result serialization.

Problem files are JSON documents.  Numeric entries are exact by
construction: integers, strings like ``"3/4"`` or ``"0.25"``, or
``[numerator, denominator]`` pairs.  Bare JSON floats are rejected in
rational mode, since they already lost their decimal identity.
Rational results are serialized back as strings, so values round-trip
without precision loss.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional, Sequence

from .errors import ProblemFileError
from .solver import (
    FLOAT,
    RATIONAL,
    ProblemInstance,
    QuadraticConstraint,
)

PROBLEM_KINDS = (
    "ilp",
    "iqp",
    "iqcqp",
    "lipschitz-linear",
    "lipschitz-quadratic",
    "mixed",
)

@dataclass(frozen=True)
class ParsedProblem:
    """Validated problem document with coefficients in their target type."""

    kind: str
    n: int
    m: int
    arithmetic: str
    radius: Any
    weights: Optional[tuple] = None
    epsilon: Optional[float] = None
    kappa: Optional[float] = None
    c: Optional[tuple] = None
    A: Optional[tuple] = None
    b: Optional[tuple] = None
    Q: Optional[tuple] = None
    quad_constraints: Optional[tuple[QuadraticConstraint, ...]] = None
    n_cont: int = 0
    c_cont: Optional[tuple] = None
    A_cont: Optional[tuple] = None

    def instance(self) -> ProblemInstance:
        """Build oracle-backed problem data for the integer solvers."""
        if self.kind in ("ilp", "lipschitz-linear"):
            return ProblemInstance.linear(self.c, self.A, self.b, arithmetic=self.arithmetic)
        if self.kind in ("iqp", "lipschitz-quadratic"):
            rows = tuple(
                QuadraticConstraint(A=None, b=row, c=-beta) for row, beta in zip(self.A, self.b)
            )
            return ProblemInstance.quadratic(self.Q, self.c, rows, arithmetic=self.arithmetic)
        if self.kind == "iqcqp":
            return ProblemInstance.quadratic(
                self.Q, self.c, self.quad_constraints, arithmetic=self.arithmetic
            )
        raise ProblemFileError("kind", f"{self.kind} has no direct integer-solver form")


def load_problem(path: str) -> ParsedProblem:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ProblemFileError("document", f"invalid JSON at line {exc.lineno}: {exc.msg}")
    return parse_problem(doc)


def parse_problem(doc: Any) -> ParsedProblem:
    if not isinstance(doc, dict):
        raise ProblemFileError("document", "top level must be a JSON object")
    kind = _require(doc, "kind", str)
    if kind not in PROBLEM_KINDS:
        raise ProblemFileError("kind", f"unknown kind {kind!r}; expected one of {PROBLEM_KINDS}")
    arithmetic = doc.get("arithmetic", RATIONAL)
    if arithmetic not in (RATIONAL, FLOAT):
        raise ProblemFileError("arithmetic", f"must be '{RATIONAL}' or '{FLOAT}'")
    n = _require(doc, "n", int)
    if n < 1:
        raise ProblemFileError("n", "dimension must be >= 1")
    m = _require(doc, "m", int)
    if m < 0:
        raise ProblemFileError("m", "constraint count must be >= 0")

    radius = _scalar(doc.get("lambda"), arithmetic, "lambda")
    if radius < 0:
        raise ProblemFileError("lambda", "must be >= 0")

    weights = None
    if doc.get("weights") is not None:
        weights = _vector(doc["weights"], n, arithmetic, "weights")
        for i, w in enumerate(weights):
            if w <= 0:
                raise ProblemFileError(f"weights[{i}]", f"must be > 0, got {w}")

    epsilon = kappa = None
    if doc.get("epsilon") is not None:
        epsilon = float(_scalar(doc["epsilon"], FLOAT, "epsilon"))
        if epsilon <= 0:
            raise ProblemFileError("epsilon", "must be > 0")
    if doc.get("kappa") is not None:
        kappa = float(_scalar(doc["kappa"], FLOAT, "kappa"))
        if kappa <= 0:
            raise ProblemFileError("kappa", "must be > 0")

    fields: dict[str, Any] = dict(
        kind=kind,
        n=n,
        m=m,
        arithmetic=arithmetic,
        radius=radius,
        weights=weights,
        epsilon=epsilon,
        kappa=kappa,
    )

    if kind in ("ilp", "lipschitz-linear"):
        fields["c"] = _vector(_require_present(doc, "c"), n, arithmetic, "c")
        fields["A"] = _matrix(_require_present(doc, "A"), m, n, arithmetic, "A")
        fields["b"] = _vector(_require_present(doc, "b"), m, arithmetic, "b")
    elif kind in ("iqp", "lipschitz-quadratic"):
        fields["Q"] = _matrix(_require_present(doc, "Q"), n, n, arithmetic, "Q")
        fields["c"] = _vector(_require_present(doc, "c"), n, arithmetic, "c")
        fields["A"] = _matrix(_require_present(doc, "A"), m, n, arithmetic, "A")
        fields["b"] = _vector(_require_present(doc, "b"), m, arithmetic, "b")
    elif kind == "iqcqp":
        fields["Q"] = _matrix(_require_present(doc, "Q"), n, n, arithmetic, "Q")
        fields["c"] = _vector(_require_present(doc, "c"), n, arithmetic, "c")
        raw = _require_present(doc, "constraints")
        if not isinstance(raw, list) or len(raw) != m:
            raise ProblemFileError("constraints", f"must be a list of {m} entries")
        rows = []
        for k, entry in enumerate(raw):
            if not isinstance(entry, dict):
                raise ProblemFileError(f"constraints[{k}]", "must be an object")
            A_part = entry.get("A")
            rows.append(
                QuadraticConstraint(
                    A=None if A_part is None else _matrix(
                        A_part, n, n, arithmetic, f"constraints[{k}].A"
                    ),
                    b=_vector(
                        _require_present(entry, "b", f"constraints[{k}].b"),
                        n,
                        arithmetic,
                        f"constraints[{k}].b",
                    ),
                    c=_scalar(
                        _require_present(entry, "c", f"constraints[{k}].c"),
                        arithmetic,
                        f"constraints[{k}].c",
                    ),
                )
            )
        fields["quad_constraints"] = tuple(rows)
    elif kind == "mixed":
        n_cont = _require(doc, "p", int)
        if n_cont < 1:
            raise ProblemFileError("p", "continuous dimension must be >= 1")
        fields["n_cont"] = n_cont
        fields["c"] = _vector(_require_present(doc, "c_x"), n, arithmetic, "c_x")
        fields["c_cont"] = _vector(_require_present(doc, "c_y"), n_cont, arithmetic, "c_y")
        fields["A"] = _matrix(_require_present(doc, "A_x"), m, n, arithmetic, "A_x")
        fields["A_cont"] = _matrix(_require_present(doc, "A_y"), m, n_cont, arithmetic, "A_y")
        fields["b"] = _vector(_require_present(doc, "b"), m, arithmetic, "b")

    return ParsedProblem(**fields)


def problem_to_json(p: ParsedProblem) -> dict:
    """Inverse of :func:`parse_problem` up to canonical scalar spelling."""
    doc: dict[str, Any] = {
        "kind": p.kind,
        "n": p.n,
        "m": p.m,
        "arithmetic": p.arithmetic,
        "lambda": format_value(p.radius),
    }
    if p.weights is not None:
        doc["weights"] = [format_value(w) for w in p.weights]
    if p.epsilon is not None:
        doc["epsilon"] = p.epsilon
    if p.kappa is not None:
        doc["kappa"] = p.kappa
    if p.kind in ("ilp", "lipschitz-linear"):
        doc["c"] = _fmt_vec(p.c)
        doc["A"] = _fmt_mat(p.A)
        doc["b"] = _fmt_vec(p.b)
    elif p.kind in ("iqp", "lipschitz-quadratic"):
        doc["Q"] = _fmt_mat(p.Q)
        doc["c"] = _fmt_vec(p.c)
        doc["A"] = _fmt_mat(p.A)
        doc["b"] = _fmt_vec(p.b)
    elif p.kind == "iqcqp":
        doc["Q"] = _fmt_mat(p.Q)
        doc["c"] = _fmt_vec(p.c)
        doc["constraints"] = [
            {
                **({"A": _fmt_mat(row.A)} if row.A is not None else {}),
                "b": _fmt_vec(row.b),
                "c": format_value(row.c),
            }
            for row in p.quad_constraints
        ]
    elif p.kind == "mixed":
        doc["p"] = p.n_cont
        doc["c_x"] = _fmt_vec(p.c)
        doc["c_y"] = _fmt_vec(p.c_cont)
        doc["A_x"] = _fmt_mat(p.A)
        doc["A_y"] = _fmt_mat(p.A_cont)
        doc["b"] = _fmt_vec(p.b)
    return doc


def format_value(value: Any) -> Any:
    """Rationals as exact strings, floats as JSON numbers."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    return value


def _fmt_vec(vec: Sequence) -> list:
    return [format_value(v) for v in vec]


def _fmt_mat(mat: Sequence[Sequence]) -> list:
    return [[format_value(v) for v in row] for row in mat]


def _require(doc: dict, key: str, typ: type) -> Any:
    value = _require_present(doc, key)
    if typ is int and isinstance(value, bool):
        raise ProblemFileError(key, "must be an integer")
    if not isinstance(value, typ):
        raise ProblemFileError(key, f"must be of type {typ.__name__}")
    return value


def _require_present(doc: dict, key: str, label: Optional[str] = None) -> Any:
    if key not in doc or doc[key] is None:
        raise ProblemFileError(label or key, "missing required field")
    return doc[key]


def _scalar(value: Any, arithmetic: str, fieldname: str) -> Any:
    if value is None:
        raise ProblemFileError(fieldname, "missing required field")
    if isinstance(value, bool):
        raise ProblemFileError(fieldname, "booleans are not numbers")
    try:
        if isinstance(value, int):
            return Fraction(value) if arithmetic == RATIONAL else float(value)
        if isinstance(value, str):
            parsed = Fraction(value)
            return parsed if arithmetic == RATIONAL else float(parsed)
        if isinstance(value, list) and len(value) == 2:
            parsed = Fraction(int(value[0]), int(value[1]))
            return parsed if arithmetic == RATIONAL else float(parsed)
        if isinstance(value, float):
            if arithmetic == RATIONAL:
                raise ProblemFileError(
                    fieldname,
                    "bare floats are not exact; use a string or [num, den] pair",
                )
            if not math.isfinite(value):
                raise ProblemFileError(fieldname, f"must be finite, got {value}")
            return value
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemFileError(fieldname, f"not a valid number: {exc}")
    raise ProblemFileError(fieldname, f"unsupported value {value!r}")


def _vector(value: Any, length: int, arithmetic: str, fieldname: str) -> tuple:
    if not isinstance(value, list) or len(value) != length:
        raise ProblemFileError(fieldname, f"must be a list of {length} numbers")
    return tuple(_scalar(v, arithmetic, f"{fieldname}[{i}]") for i, v in enumerate(value))


def _matrix(value: Any, rows: int, cols: int, arithmetic: str, fieldname: str) -> tuple:
    if not isinstance(value, list) or len(value) != rows:
        raise ProblemFileError(fieldname, f"must be a list of {rows} rows")
    return tuple(
        _vector(row, cols, arithmetic, f"{fieldname}[{i}]") for i, row in enumerate(value)
    )

import json
from fractions import Fraction

import pytest

from l1opt.errors import ProblemFileError
from l1opt.files import ParsedProblem, format_value, parse_problem


ILP_DOC = {
    "kind": "ilp",
    "n": 2,
    "m": 1,
    "arithmetic": "rational",
    "lambda": "2",
    "c": ["-1", "-1"],
    "A": [["1", "1"]],
    "b": ["1"],
}


def test_parse_ilp():
    problem = parse_problem(ILP_DOC)
    assert problem.kind == "ilp"
    assert problem.radius == Fraction(2)
    assert problem.c == (Fraction(-1), Fraction(-1))
    instance = problem.instance()
    assert instance.objective((1, 0)) == -1
    assert instance.constraints((1, 1)) == (1,)


def test_parse_accepts_mixed_numeric_spellings():
    doc = dict(ILP_DOC, c=[-1, "1/2"], b=[[3, 4]])
    problem = parse_problem(doc)
    assert problem.c == (Fraction(-1), Fraction(1, 2))
    assert problem.b == (Fraction(3, 4),)


def test_parse_rejects_bare_floats_in_rational_mode():
    doc = dict(ILP_DOC, c=[0.5, 1])
    with pytest.raises(ProblemFileError) as err:
        parse_problem(doc)
    assert "c[0]" in str(err.value)


@pytest.mark.parametrize("pair", [[None, 1], [1.5, 2], [[1], 2], ["1", 2], [True, 2], [1, float("inf")]])
def test_a_pair_must_hold_two_integers(pair):
    # None and a nested list ended in a TypeError traceback, 1.5 was
    # truncated to 1 without a word, and inf ended in an OverflowError
    # that named no field.
    doc = dict(ILP_DOC, b=[pair])
    with pytest.raises(ProblemFileError, match=r"^b\[0\]: a \[num, den\] pair must hold two integers, got "):
        parse_problem(doc)


@pytest.mark.parametrize("value", [-(10**400), [10**400, 1], "1e400"])
def test_a_float_mode_value_past_the_float_range_names_its_field(value):
    # It ended in an OverflowError whose message named no field.
    doc = dict(ILP_DOC, arithmetic="float", c=[1, value])
    with pytest.raises(ProblemFileError, match=r"^c\[1\]: not a valid number: "):
        parse_problem(doc)


@pytest.mark.parametrize("arithmetic", ["rational", "float"])
@pytest.mark.parametrize("text", ["inf", "-Infinity", "NaN"])
def test_a_non_finite_string_is_refused_as_not_finite(arithmetic, text):
    # No Fraction reads these, so the error quoted the Fraction parser.
    doc = dict(ILP_DOC, arithmetic=arithmetic, c=[1, text])
    with pytest.raises(ProblemFileError, match=r"^c\[1\]: must be finite, got "):
        parse_problem(doc)


def test_float_mode_accepts_floats():
    doc = dict(ILP_DOC, arithmetic="float", c=[0.5, -1.25], **{"lambda": 2.0})
    problem = parse_problem(doc)
    assert problem.c == (0.5, -1.25)
    assert isinstance(problem.radius, float)


def test_parse_zero_weight_names_field():
    doc = dict(ILP_DOC, weights=["1", "0"])
    with pytest.raises(ProblemFileError) as err:
        parse_problem(doc)
    assert "weights[1]" in str(err.value)


def test_parse_shape_errors_name_field():
    doc = dict(ILP_DOC, A=[["1"]])
    with pytest.raises(ProblemFileError) as err:
        parse_problem(doc)
    assert "A[0]" in str(err.value)


def test_parse_unknown_kind():
    with pytest.raises(ProblemFileError) as err:
        parse_problem(dict(ILP_DOC, kind="sat"))
    assert "kind" in str(err.value)


def test_parse_negative_radius():
    with pytest.raises(ProblemFileError) as err:
        parse_problem(dict(ILP_DOC, **{"lambda": "-1"}))
    assert "lambda" in str(err.value)


def test_parse_iqcqp():
    doc = {
        "kind": "iqcqp",
        "n": 2,
        "m": 1,
        "arithmetic": "rational",
        "lambda": "1",
        "Q": [["1", "0"], ["0", "-1"]],
        "c": ["0", "0"],
        "constraints": [
            {"A": [["1", "0"], ["0", "1"]], "b": ["0", "0"], "c": "-2"}
        ],
    }
    problem = parse_problem(doc)
    instance = problem.instance()
    assert instance.objective((1, 1)) == 0
    assert instance.constraints((1, 1)) == (0,)


def test_parse_iqp_linear_constraints():
    doc = {
        "kind": "iqp",
        "n": 2,
        "m": 1,
        "arithmetic": "rational",
        "lambda": "1",
        "Q": [["1", "0"], ["0", "1"]],
        "c": ["0", "0"],
        "A": [["1", "1"]],
        "b": ["1"],
    }
    instance = parse_problem(doc).instance()
    assert instance.objective((1, -1)) == 2
    assert instance.constraints((1, 1)) == (1,)


def test_parse_mixed():
    doc = {
        "kind": "mixed",
        "n": 2,
        "p": 1,
        "m": 1,
        "arithmetic": "rational",
        "lambda": "1",
        "c_x": ["1", "1"],
        "c_y": ["1"],
        "A_x": [["0", "0"]],
        "A_y": [["-1"]],
        "b": ["0"],
    }
    problem = parse_problem(doc)
    assert problem.n_cont == 1
    assert problem.c_cont == (Fraction(1),)


def problem_to_json(p: ParsedProblem) -> dict:
    """Inverse of :func:`parse_problem` up to canonical scalar spelling; the
    round-trip test's writer, which the package itself never needs."""
    doc = {
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


def _fmt_vec(vec):
    return [format_value(v) for v in vec]


def _fmt_mat(mat):
    return [[format_value(v) for v in row] for row in mat]


def test_roundtrip_is_identity():
    docs = [
        ILP_DOC,
        dict(ILP_DOC, weights=["1", "10"]),
        {
            "kind": "lipschitz-linear",
            "n": 2,
            "m": 1,
            "arithmetic": "float",
            "lambda": 1.0,
            "epsilon": 0.25,
            "c": [1.0, 0.0],
            "A": [[0.0, 0.0]],
            "b": [1.0],
        },
        {
            "kind": "iqp",
            "n": 2,
            "m": 1,
            "arithmetic": "rational",
            "lambda": "3/2",
            "Q": [["1", "1/2"], ["0", "-1"]],
            "c": ["0", "2"],
            "A": [["1", "-1"]],
            "b": ["2"],
        },
    ]
    for doc in docs:
        first = parse_problem(doc)
        serialized = problem_to_json(first)
        json.dumps(serialized)  # must be valid JSON content
        second = parse_problem(serialized)
        assert first == second


def test_format_value():
    assert format_value(Fraction(-1)) == "-1"
    assert format_value(Fraction(3, 4)) == "3/4"
    assert format_value(0.5) == 0.5
    assert Fraction(format_value(Fraction(22, 7))) == Fraction(22, 7)

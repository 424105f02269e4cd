import dataclasses
import json
import math
import pathlib
import re
import subprocess
import sys

import pytest

import l1opt
from l1opt import cli

ILP = {
    "kind": "ilp",
    "n": 2,
    "m": 1,
    "arithmetic": "rational",
    "lambda": "2",
    "c": ["-1", "-1"],
    "A": [["1", "1"]],
    "b": ["1"],
}

LIPSCHITZ = {
    "kind": "lipschitz-linear",
    "n": 2,
    "m": 1,
    "arithmetic": "float",
    "lambda": 1.0,
    "epsilon": 0.25,
    "c": [1.0, 0.0],
    "A": [[0.0, 0.0]],
    "b": [1.0],
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "l1opt", *map(str, args)],
        capture_output=True,
        text=True,
    )


def write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_solve_ilp(tmp_path):
    result = run_cli("solve", write(tmp_path, ILP))
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["status"] == "optimal"
    assert doc["objective"] == "-1"
    assert doc["oracle_calls"] == doc["points_enumerated"] == 13
    assert "version" in doc and "wall_time_ms" in doc


def test_solve_weighted_flag(tmp_path):
    unconstrained = dict(ILP, A=[["0", "0"]], b=["0"])
    result = run_cli("solve", write(tmp_path, unconstrained), "--weights", "1,10")
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["objective"] == "-2"
    assert doc["x"] == [2, 0]


def test_solve_iqcqp(tmp_path):
    # Maximize x.x inside the disc x.x <= 2: the corners (+-1, +-1) are
    # optimal and the canonical order reaches (1, 1) first.
    doc = {
        "kind": "iqcqp",
        "n": 2,
        "m": 1,
        "arithmetic": "rational",
        "lambda": "2",
        "Q": [["-1", "0"], ["0", "-1"]],
        "c": ["0", "0"],
        "constraints": [{"A": [["1", "0"], ["0", "1"]], "b": ["0", "0"], "c": "-2"}],
    }
    result = run_cli("solve", write(tmp_path, doc))
    out = json.loads(result.stdout)
    assert out["objective"] == "-2"
    assert out["x"] == [1, 1]


def test_solve_lambda_override(tmp_path):
    result = run_cli("solve", write(tmp_path, ILP), "--lambda", "0")
    doc = json.loads(result.stdout)
    assert doc["points_enumerated"] == 1
    assert doc["x"] == [0, 0]


def test_solve_infeasible_exit_code(tmp_path):
    doc = dict(ILP, A=[["0", "0"]], b=["-1"])  # 0 <= -1 never holds
    result = run_cli("solve", write(tmp_path, doc))
    assert result.returncode == 2
    assert json.loads(result.stdout)["status"] == "infeasible"


def test_solve_malformed_weights_exits_1(tmp_path):
    path = write(tmp_path, dict(ILP, weights=["1", "0"]))
    result = run_cli("solve", path)
    assert result.returncode == 1
    assert result.stdout == ""
    assert "weights[1]" in result.stderr


def test_diagnostics_stay_off_stdout(tmp_path):
    path = write(tmp_path, {"kind": "ilp"})
    result = run_cli("solve", path)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error:")


def test_count_l1():
    result = run_cli("count", 3, 2)
    doc = json.loads(result.stdout)
    assert result.returncode == 0
    assert doc["count"] == 25


def test_count_linf():
    doc = json.loads(run_cli("count", 2, 1, "--norm", "linf").stdout)
    assert doc["count"] == 9


def test_count_bounds():
    doc = json.loads(run_cli("count", 2, 1, "--bounds").stdout)
    assert doc["bounds"]["lower"] == 4
    assert doc["bounds"]["upper"]["exact"] == 16


def test_count_bounds_past_the_digit_cap():
    # n^(4 rho^2) = 40^14400 has 23,070 digits: only its log10 is written.
    result = run_cli("count", 40, 60, "--bounds")
    assert result.returncode == 0, result.stderr
    upper = json.loads(result.stdout)["bounds"]["upper"]
    assert upper["exact"] is None
    assert upper["log10"] == pytest.approx(14400 * math.log10(40))


def test_count_writes_a_huge_count_in_full():
    radius = 10**2200
    result = run_cli("count", 2, radius)
    assert result.returncode == 0, result.stderr
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(result.stdout)
    finally:
        sys.set_int_max_str_digits(limit)
    assert doc["count"] == 2 * radius * radius + 2 * radius + 1  # 4,401 digits


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int digit limit"
)
def test_radius_past_the_int_digit_limit_exit_1():
    # Past the limit the radius was reported as "not a number", and the
    # message echoed every digit.
    limit = sys.get_int_max_str_digits()
    for command in (("count", 2), ("enumerate", 1)):
        result = run_cli(*command, "1" + "0" * limit)
        assert result.returncode == 1
        assert result.stdout == ""
        message = f"error: lambda: too many digits ({limit + 1}, at most {limit}): '1000"
        assert result.stderr.startswith(message)
        assert len(result.stderr) < 200
    result = run_cli("enumerate", 1, "9" * limit, "--limit", 3)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[0]\n[1]\n[-1]\n"


def test_count_bound_beyond_the_float_range_exit_1():
    result = run_cli("count", 2, 10**200, "--bounds")
    assert result.returncode == 1
    assert result.stderr.startswith("error: numeric overflow")
    assert "Traceback" not in result.stderr


def test_count_bounds_dimension_one_fails():
    result = run_cli("count", 1, 2, "--bounds")
    assert result.returncode == 1
    assert "dimension" in result.stderr


def test_count_width_estimator_deterministic():
    a = run_cli("count", 4, 1, "--width-samples", 2000, "--seed", 5).stdout
    b = run_cli("count", 4, 1, "--width-samples", 2000, "--seed", 5).stdout
    doc = json.loads(a)
    assert doc["gaussian_width"]["mean"] < doc["gaussian_width"]["bound"]
    assert json.loads(a)["gaussian_width"] == json.loads(b)["gaussian_width"]


def test_bound_unit_box(tmp_path):
    doc = {
        "kind": "ilp",
        "n": 2,
        "m": 4,
        "arithmetic": "rational",
        "lambda": "1",
        "c": ["0", "0"],
        "A": [["-1", "0"], ["0", "-1"], ["1", "0"], ["0", "1"]],
        "b": ["0", "0", "1", "1"],
    }
    result = run_cli("bound", write(tmp_path, doc), "--verify")
    assert result.returncode == 0
    out = json.loads(result.stdout)
    report = out["bound_report"]
    assert report["l"] == ["0", "0"]
    assert report["u"] == ["1", "1"]
    assert report["rho"] == 2
    assert report["bnd"]["exact"] == 131072
    assert report["backend_calls"] == 5
    assert out["verify"]["passed"] is True


def test_bound_simplex(tmp_path):
    doc = {
        "kind": "ilp",
        "n": 3,
        "m": 4,
        "arithmetic": "rational",
        "lambda": "1",
        "c": ["0", "0", "0"],
        "A": [["-1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"], ["1", "1", "1"]],
        "b": ["0", "0", "0", "1"],
    }
    report = json.loads(run_cli("bound", write(tmp_path, doc)).stdout)["bound_report"]
    assert report["rho"] == 1
    assert report["bnd"]["exact"] == 243


def test_bound_past_the_digit_cap(tmp_path):
    # The lifted LP of the box |x_i| <= 15 gives rho = 60, so
    # bnd = 2^14401 has 4,336 digits.
    doc = {
        "kind": "ilp",
        "n": 2,
        "m": 4,
        "arithmetic": "rational",
        "lambda": "1",
        "c": ["0", "0"],
        "A": [["-1", "0"], ["0", "-1"], ["1", "0"], ["0", "1"]],
        "b": ["15", "15", "15", "15"],
    }
    result = run_cli("bound", write(tmp_path, doc))
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)["bound_report"]
    assert report["rho"] == 60
    assert report["bnd"]["exact"] is None
    assert report["bnd"]["log10"] == pytest.approx(14401 * math.log10(2))


def test_bound_unbounded_exit_3(tmp_path):
    # Only the halfspace x1 >= 0 is constrained, so the region is open.
    doc = {
        "kind": "ilp",
        "n": 2,
        "m": 1,
        "arithmetic": "rational",
        "lambda": "1",
        "c": ["0", "0"],
        "A": [["-1", "0"]],
        "b": ["0"],
    }
    result = run_cli("bound", write(tmp_path, doc))
    assert result.returncode == 3
    assert result.stdout == ""


def test_bound_stdout_of_a_12_by_48_region():
    # Pinned from the exact Bland simplex: the certified solves that now
    # answer the bound must print the same bytes, apart from wall_time_ms.
    data = pathlib.Path(__file__).parent / "data"
    result = run_cli("bound", data / "bound_12x48.json")
    assert result.returncode == 0, result.stderr
    head, tail = result.stdout.rsplit(', "version"', 1)
    assert head + "\n" == (data / "bound_12x48.stdout").read_text()
    assert re.fullmatch(r': "%s", "wall_time_ms": \d+\}\n' % re.escape(l1opt.__version__), tail)


def test_bound_stdout_of_a_region_without_the_origin():
    # -3 <= x_i <= -1 and rows with negative rhs: every guide starts with
    # phase 1.  Pinned before the coordinate LPs shared one stacked guide.
    data = pathlib.Path(__file__).parent / "data"
    result = run_cli("bound", data / "bound_phase1.json")
    assert result.returncode == 0, result.stderr
    head, tail = result.stdout.rsplit(', "version"', 1)
    assert head + "\n" == (data / "bound_phase1.stdout").read_text()
    assert re.fullmatch(r': "%s", "wall_time_ms": \d+\}\n' % re.escape(l1opt.__version__), tail)


def test_ptas_linear(tmp_path):
    result = run_cli("ptas", write(tmp_path, LIPSCHITZ))
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["status"] == "optimal"
    assert doc["objective"] == -1.0
    assert doc["kappa"] == 1.0
    assert doc["grid_radius"] == 4


def test_ptas_float_file_takes_the_block_path(tmp_path, capsys, evaluators_run):
    # Every feasible grid point ties at an all-zero objective, so the
    # smallest ordinal wins.  The built-in oracle returns int 0 there;
    # stdout writes every ptas objective as a float.
    doc = dict(LIPSCHITZ, c=[0.0, 0.0], A=[[-1.0, 0.0]], b=[-0.5])
    path = write(tmp_path, doc)
    assert cli.main(["ptas", path]) == 0
    assert evaluators_run == ["_float_evaluator"]
    out = capsys.readouterr().out
    head, wall_time = out.rsplit(", ", 1)
    assert head == (
        '{"status": "optimal", "objective": 0.0, "x": [0.25, 0.0], "oracle_calls": 41, '
        '"points_enumerated": 41, "epsilon": 0.25, "kappa": 1.0, "grid_radius": 4, '
        f'"step": 0.25, "version": "{l1opt.__version__}"'
    )
    assert wall_time.startswith('"wall_time_ms": ') and wall_time.endswith("}\n")


def test_ptas_rational_row_without_coefficients_is_compared_exactly(tmp_path):
    # The row 0.x <= b has the residual -b at every grid point.  For
    # b = -(1/4 + 10**-30) that is just past epsilon = 0.25, although its
    # float is 0.25 itself: no grid point passes the relaxed test.
    doc = dict(LIPSCHITZ, arithmetic="rational", c=["1", "0"], A=[["0", "0"]])
    doc["lambda"] = "1"
    past = "-%d/%d" % (10**30 + 4, 4 * 10**30)
    result = run_cli("ptas", write(tmp_path, dict(doc, b=[past])))
    assert result.returncode == 2, result.stderr
    assert json.loads(result.stdout)["status"] == "no_feasible_grid_point"
    result = run_cli("ptas", write(tmp_path, dict(doc, b=["-1/4"])))
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["objective"] == -1.0 and out["x"] == [-1.0, 0.0]


def test_ptas_rational_file_takes_the_block_path(tmp_path, capsys, evaluators_run):
    doc = dict(LIPSCHITZ, arithmetic="rational", c=["1", "-1/3"], A=[["1/2", "1"]], b=["1/3"])
    doc["lambda"] = "1"
    path = write(tmp_path, doc)
    assert cli.main(["ptas", path]) == 0
    assert evaluators_run == ["_float_evaluator"]
    out = json.loads(capsys.readouterr().out)
    assert out["x"] == [-1.0, 0.0] and out["objective"] == -1.0


def test_ptas_no_feasible_point_exit_2(tmp_path):
    doc = dict(LIPSCHITZ, b=[-1.0])  # residual is +1 everywhere
    result = run_cli("ptas", write(tmp_path, doc))
    assert result.returncode == 2
    assert json.loads(result.stdout)["status"] == "no_feasible_grid_point"


@pytest.mark.parametrize(
    "flags, doc",
    [
        (("--kappa", "inf"), LIPSCHITZ),
        (("--epsilon", "inf"), LIPSCHITZ),
        (("--epsilon", "nan"), LIPSCHITZ),
        ((), dict(LIPSCHITZ, epsilon=float("inf"))),
        ((), dict(LIPSCHITZ, kappa=float("nan"))),
    ],
)
def test_ptas_non_finite_parameters_exit_1(tmp_path, flags, doc):
    result = run_cli("ptas", write(tmp_path, doc), *flags)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "finite" in result.stderr
    assert "Traceback" not in result.stderr


def test_ptas_mixed(tmp_path):
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
    result = run_cli("ptas", write(tmp_path, doc))
    assert result.returncode == 0
    out = json.loads(result.stdout)
    assert out["objective"] == "-1"
    assert out["x"] == [0, -1]
    assert out["y"] == ["0"]


@pytest.mark.parametrize("path", ["block", "per-point"])
def test_weighted_solve_stdout_of_an_8_by_5_problem(path, monkeypatch, capsys, evaluators_run):
    # A rational weighted ILP: the weight 3 pins x_7, and the budget
    # rejects 2,144 of the 2,241 points of the radius-4 walk.  Both
    # evaluators must print the pinned bytes, apart from wall_time_ms;
    # wrapped oracles take the per-point one.
    data = pathlib.Path(__file__).parent / "data"
    if path == "per-point":
        solve = cli.solve_weighted_l1_ip

        def wrapped(instance, *args):
            objective, constraints = instance.objective, instance.constraints
            instance = dataclasses.replace(
                instance, objective=lambda x: objective(x), constraints=lambda x: constraints(x)
            )
            return solve(instance, *args)

        monkeypatch.setattr(cli, "solve_weighted_l1_ip", wrapped)
    assert cli.main(["solve", str(data / "weighted_8x5.json")]) == 0
    assert evaluators_run == ["_int_evaluator" if path == "block" else "point_evaluator"]
    head, tail = capsys.readouterr().out.rsplit(', "version"', 1)
    assert head + "\n" == (data / "weighted_8x5.stdout").read_text()
    assert re.fullmatch(r': "%s", "wall_time_ms": \d+\}\n' % re.escape(l1opt.__version__), tail)


@pytest.mark.parametrize("path", ["block", "per-point"])
def test_mixed_stdout_of_a_6_by_3_problem(path, monkeypatch, capsys):
    # Pinned from the per-point path, one exact LP per integer point; the
    # dual forms of the block path must print the same bytes, apart from
    # wall_time_ms.  A wrapped inner solver takes the per-point path.
    data = pathlib.Path(__file__).parent / "data"
    if path == "per-point":
        build = cli.linear_mixed_inner_solver

        def wrapped(*args):
            inner = build(*args)
            return lambda x: inner(x)

        monkeypatch.setattr(cli, "linear_mixed_inner_solver", wrapped)
    assert cli.main(["ptas", str(data / "mixed_6x3.json")]) == 0
    head, tail = capsys.readouterr().out.rsplit(', "version"', 1)
    assert head + "\n" == (data / "mixed_6x3.stdout").read_text()
    assert re.fullmatch(r': "%s", "wall_time_ms": \d+\}\n' % re.escape(l1opt.__version__), tail)


@pytest.mark.parametrize(
    "doc",
    [
        dict(LIPSCHITZ, c=[0.0, 0.0], A=[[0.0, 0.0]], b=[1.0], epsilon=0.5),
        {
            "kind": "lipschitz-quadratic",
            "n": 1,
            "m": 2,
            "arithmetic": "rational",
            "lambda": "1",
            "epsilon": 0.5,
            "Q": [["0"]],
            "c": ["0"],
            "A": [["0"], ["0"]],
            "b": ["1", "0"],
        },
    ],
)
def test_ptas_of_constant_forms_derives_a_positive_kappa(tmp_path, doc):
    # Every form is constant, so any positive constant is valid; the
    # derived one used to be 0.0, which exited 1.
    result = run_cli("ptas", write(tmp_path, doc))
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert (out["status"], out["kappa"], out["objective"]) == ("optimal", 1.0, 0.0)
    assert out["x"] == [0.0] * doc["n"]


def test_enumerate_lines():
    result = run_cli("enumerate", 2, 1)
    lines = result.stdout.splitlines()
    assert len(lines) == 5
    assert lines[0] == "[0,0]"
    assert [json.loads(line) for line in lines] == [
        [0, 0],
        [0, 1],
        [0, -1],
        [1, 0],
        [-1, 0],
    ]


def test_enumerate_limit():
    result = run_cli("enumerate", 2, 1, "--limit", 3)
    assert len(result.stdout.splitlines()) == 3


def test_enumerate_rejects_bad_radius():
    result = run_cli("enumerate", 2, "-1")
    assert result.returncode == 1


def test_tolerance_env_var(tmp_path):
    # The residual at x=1 is 5e-4: feasible under a loose env tolerance,
    # infeasible under the built-in default.
    doc = {
        "kind": "ilp",
        "n": 1,
        "m": 1,
        "arithmetic": "float",
        "lambda": 1.0,
        "c": [-1.0],
        "A": [[1.0]],
        "b": [1.0 - 5e-4],
    }
    path = write(tmp_path, doc)
    import os

    env = dict(os.environ, L1OPT_TOLERANCE="1e-3")
    loose = subprocess.run(
        [sys.executable, "-m", "l1opt", "solve", path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert json.loads(loose.stdout)["x"] == [1]
    strict = run_cli("solve", path)
    assert json.loads(strict.stdout)["x"] == [0]


@pytest.mark.parametrize(
    "flags, env",
    [
        (("--tolerance", "nan"), None),
        (("--tolerance", "inf"), None),
        ((), "nan"),
        ((), "-inf"),
    ],
)
def test_non_finite_tolerance_exit_1(tmp_path, flags, env):
    # Under a NaN tolerance every point failed g <= nan and the solve
    # reported infeasible (exit 2); an infinite one accepted every point.
    import os

    doc = {
        "kind": "ilp",
        "n": 1,
        "m": 1,
        "arithmetic": "float",
        "lambda": 1.0,
        "c": [-1.0],
        "A": [[1.0]],
        "b": [1.0],
    }
    environ = dict(os.environ)
    environ.pop("L1OPT_TOLERANCE", None)
    if env is not None:
        environ["L1OPT_TOLERANCE"] = env
    result = subprocess.run(
        [sys.executable, "-m", "l1opt", "solve", write(tmp_path, doc), *flags],
        capture_output=True,
        text=True,
        env=environ,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "finite" in result.stderr
    assert ("--tolerance" if flags else "L1OPT_TOLERANCE") in result.stderr


def test_negative_enumerate_limit_exit_1():
    result = run_cli("enumerate", 3, 2, "--limit", "-1")
    assert result.returncode == 1
    assert "--limit" in result.stderr and "must be >= 0" in result.stderr
    assert result.stdout == ""
    result = run_cli("enumerate", 3, 2, "--limit", "0")
    assert result.returncode == 0 and result.stdout == ""


@pytest.mark.parametrize("workers", ["0", "-5", "two"])
def test_bad_parallel_exit_1(tmp_path, workers):
    commands = [
        ("solve", write(tmp_path, ILP)),
        ("ptas", write(tmp_path, LIPSCHITZ, "lipschitz.json")),
        ("enumerate", 2, 1),
    ]
    for command in commands:
        result = run_cli(*command, "--parallel", workers)
        assert result.returncode == 1, command
        assert "--parallel" in result.stderr
        assert result.stdout == ""

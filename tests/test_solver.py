import dataclasses
import math
import random
from fractions import Fraction

import pytest

from l1opt.counting import count_l1_lattice
from l1opt.errors import InvalidWeightsError, ShapeMismatchError
from l1opt.lattice import iter_l1_points
from l1opt.ptas import LipschitzProblem, solve_weighted_lipschitz_ptas
from l1opt.solver import (
    FLOAT,
    RATIONAL,
    ProblemInstance,
    QuadraticConstraint,
    SolveOptions,
    WeightedL1Spec,
    make_linear_oracle,
    make_quadratic_oracle,
    solve_l1_ip,
    solve_weighted_l1_ip,
)
from oracles import random_ilp, random_quadratic, solve_ball_brute, solve_weighted_brute


def unconstrained(c, n=None):
    """Linear objective with a constraint oracle that always passes."""
    n = n if n is not None else len(c)
    return ProblemInstance(
        n=n,
        objective=lambda x: sum(Fraction(a) * v for a, v in zip(c, x)),
        constraints=lambda x: (),
    )


def wrap_oracles(problem):
    """The same problem behind generic callables, which take the scalar path."""
    objective, constraints = problem.objective, problem.constraints
    return dataclasses.replace(
        problem, objective=lambda x: objective(x), constraints=lambda x: constraints(x)
    )


def quadratic_instance(rng):
    n, Q, c, rows = random_quadratic(rng)
    constraints = tuple(QuadraticConstraint(A=A, b=tuple(b), c=cc) for A, b, cc in rows)
    return ProblemInstance.quadratic(Q, c, constraints)


def test_linear_oracle_examples():
    objective, constraints = make_linear_oracle((1, -1), ((1, 1),), (1,))
    assert objective((2, 3)) == -1
    assert constraints((1, 1)) == (1,)


def test_quadratic_oracle_examples():
    objective, _ = make_quadratic_oracle(((1, 0), (0, 1)), (0, 0), ())
    assert objective((1, -2)) == 5


def test_oracle_shape_validation():
    with pytest.raises(ShapeMismatchError):
        make_linear_oracle((1,), ((1, 2),), (0,))
    with pytest.raises(ShapeMismatchError):
        make_linear_oracle((1, 2), ((1, 2),), (0, 0))
    with pytest.raises(ShapeMismatchError):
        make_quadratic_oracle(((1,),), (1, 2), ())


def test_solve_tiebreak_smallest_ordinal():
    # Three optima of value -1 exist; the canonical order puts (0,0,-1)
    # first (trailing coordinates vary fastest in the gap encoding).
    problem = unconstrained((1, 1, 1))
    solution = solve_l1_ip(problem, 1)
    assert solution.status == "optimal"
    assert solution.objective == -1
    assert solution.x == (0, 0, -1)
    optima = [
        p for p in iter_l1_points(3, 1) if sum(p.x) == -1
    ]
    assert solution.x == min(optima, key=lambda p: p.ordinal).x


def test_solve_ilp_example():
    problem = ProblemInstance.linear((-1, -1), ((1, 1),), (1,))
    solution = solve_l1_ip(problem, 2)
    assert solution.objective == -1
    assert solution.status == "optimal"


def test_solve_radius_zero():
    problem = ProblemInstance.linear((5, 5), ((0, 0),), (0,))
    solution = solve_l1_ip(problem, 0)
    assert solution.x == (0, 0)
    assert solution.points_enumerated == 1


def test_oracle_count_matches_ball_size():
    problem = unconstrained((1, -2, 3))
    for lam in (0, 1, 2, 3):
        solution = solve_l1_ip(problem, lam)
        assert solution.oracle_calls == solution.points_enumerated == count_l1_lattice(3, lam)


def test_infeasible_status():
    problem = ProblemInstance(
        n=2,
        objective=lambda x: 0,
        constraints=lambda x: (Fraction(1),),
    )
    solution = solve_l1_ip(problem, 2)
    assert solution.status == "infeasible"
    assert solution.x is None
    assert solution.objective is None


def test_early_stop_option():
    problem = unconstrained((1, 1))
    full = solve_l1_ip(problem, 3)
    stopped = solve_l1_ip(problem, 3, SolveOptions(stop_below=-3))
    assert stopped.objective == full.objective == -3
    assert stopped.oracle_calls < full.oracle_calls


@pytest.mark.parametrize("built_in", [False, True])
def test_early_stop_does_not_depend_on_parallel(built_in):
    # Serially the walk stops at (0, 0, -1), the third point, although
    # (-3, 0, 0) in a later first-entry slice reaches the threshold too.
    if built_in:
        problem = ProblemInstance.linear((1, 1, 1), (), ())
    else:
        problem = unconstrained((1, 1, 1))
    options = SolveOptions(stop_below=-1)
    serial = solve_l1_ip(problem, 3, options)
    assert serial.x == (0, 0, -1)
    assert serial.oracle_calls == serial.points_enumerated == 3
    for workers in (2, 3, 8):
        assert solve_l1_ip(problem, 3, SolveOptions(stop_below=-1, parallel=workers)) == serial


def test_nan_objective_is_never_optimal():
    # The origin comes first in canonical order and is feasible; its NaN
    # value must not become an incumbent that no later value can beat.
    problem = ProblemInstance(
        n=2,
        objective=lambda x: math.nan if x == (0, 0) else float(sum(x)),
        constraints=lambda x: (),
        arithmetic=FLOAT,
    )
    for solution in (
        solve_l1_ip(problem, 2),
        solve_l1_ip(problem, 2, SolveOptions(parallel=2)),
        solve_weighted_l1_ip(problem, WeightedL1Spec((1.0, 1.0), 2.0)),
    ):
        assert solution.status == "optimal"
        assert solution.objective == -2.0
        assert solution.x == (0, -2)
    only_nan = dataclasses.replace(problem, objective=lambda x: math.nan)
    assert solve_l1_ip(only_nan, 2).status == "infeasible"
    assert solve_weighted_l1_ip(only_nan, WeightedL1Spec((5.0, 5.0), 2.0)).status == "infeasible"


def test_float_weighted_budget_holds_with_an_infinite_weight():
    # The pinned coordinate's term inf * 0 is NaN; it must not switch
    # off the budget test for the other coordinates.
    problem = ProblemInstance.linear((0.0, -1.0, -2.0), (), (), arithmetic=FLOAT)
    solution = solve_weighted_l1_ip(problem, WeightedL1Spec((math.inf, 1.0, 1.5), 2.0))
    assert solution.objective == -2.0
    assert abs(solution.x[1]) + 1.5 * abs(solution.x[2]) <= 2.0


def test_rational_weighted_budget_pins_an_infinite_weight():
    # An infinite weight has no Fraction; it pins its coordinate in
    # rational mode as in float mode, and with every weight infinite only
    # the origin is walked.
    for mode in (RATIONAL, FLOAT):
        problem = ProblemInstance.linear((-1, -1), ((0, 0),), (0,), arithmetic=mode)
        for instance in (problem, wrap_oracles(problem)):
            solution = solve_weighted_l1_ip(instance, WeightedL1Spec((math.inf, 1), 2))
            assert solution.x == (0, 2) and solution.objective == -2
        spec = WeightedL1Spec((math.inf, math.inf), 2)
        solution = solve_weighted_l1_ip(problem, spec)
        assert solution.x == (0, 0)
        assert solution.oracle_calls == solution.points_enumerated == 1
    assert solve_weighted_l1_ip(problem, spec) == solve_weighted_l1_ip(wrap_oracles(problem), spec)


def test_parallel_matches_serial():
    rng = random.Random(5)
    for _ in range(10):
        n, c, A, b = random_ilp(rng)
        problem = ProblemInstance.linear(c, A, b)
        serial = solve_l1_ip(problem, 2)
        for workers in (2, 8):
            parallel = solve_l1_ip(problem, 2, SolveOptions(parallel=workers))
            assert parallel == serial


def test_weighted_parallel_matches_serial():
    rng = random.Random(41)
    for _ in range(5):
        n, c, A, b = random_ilp(rng, max_n=3)
        problem = ProblemInstance.linear(c, A, b)
        spec = WeightedL1Spec(
            tuple(Fraction(rng.randint(1, 3)) for _ in range(n)), Fraction(2)
        )
        serial = solve_weighted_l1_ip(problem, spec)
        for workers in (2, 8):
            assert solve_weighted_l1_ip(problem, spec, SolveOptions(parallel=workers)) == serial


def test_agreement_with_box_brute_force_linear():
    rng = random.Random(17)
    for trial in range(25):
        n, c, A, b = random_ilp(rng)
        lam = rng.choice([1, 2, 3])
        problem = ProblemInstance.linear(c, A, b)
        mine = solve_l1_ip(problem, lam)
        reference = solve_ball_brute(problem, lam)
        assert (mine.status, mine.objective, mine.x) == reference, f"trial {trial}"


def test_agreement_with_independent_scan_quadratic():
    rng = random.Random(23)
    for trial in range(10):
        problem = quadratic_instance(rng)
        lam = rng.choice([1, 2])
        mine = solve_l1_ip(problem, lam)
        status, value, x = solve_ball_brute(problem, lam)
        assert (mine.status, mine.objective, mine.x) == (status, value, x), f"trial {trial}"


def test_rational_exactness_integer_data():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 3)
        c = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        A = [[Fraction(rng.randint(-5, 5)) for _ in range(n)]]
        b = [Fraction(rng.randint(-2, 5))]
        problem = ProblemInstance.linear(c, A, b)
        solution = solve_l1_ip(problem, 2)
        if solution.status == "optimal":
            assert solution.objective.denominator == 1


def test_weighted_rejects_nonpositive_weights():
    with pytest.raises(InvalidWeightsError):
        WeightedL1Spec((Fraction(1), Fraction(0)), 2)
    with pytest.raises(InvalidWeightsError):
        WeightedL1Spec((Fraction(-1),), 2)


def test_weighted_example_pins_heavy_coordinate():
    problem = unconstrained((-1, -1))
    solution = solve_weighted_l1_ip(problem, WeightedL1Spec((Fraction(1), Fraction(10)), Fraction(2)))
    assert solution.status == "optimal"
    assert solution.objective == -2
    assert solution.x == (2, 0)


def test_weighted_all_heavy_leaves_origin():
    # Every weight (times the grid step, for the approximation scheme) is
    # above the radius: every coordinate is pinned and the walk is the
    # origin alone, with built-in oracles and with wrapped ones.
    problem = ProblemInstance.linear((1, 1), ((0, 0),), (0,))
    spec = WeightedL1Spec((Fraction(3), Fraction(3)), Fraction(2))
    for instance in (problem, wrap_oracles(problem)):
        solution = solve_weighted_l1_ip(instance, spec)
        assert solution.status == "optimal"
        assert solution.x == (0, 0)
        assert solution.oracle_calls == solution.points_enumerated == 1
    floats = ProblemInstance.linear((1.0, 1.0), ((0.0, 0.0),), (0.0,), arithmetic=FLOAT)
    for instance in (floats, wrap_oracles(floats)):
        lipschitz = LipschitzProblem(
            n=2,
            objective=instance.objective,
            constraints=instance.constraints,
            lipschitz=2.0,
            radius=1.0,
        )
        # The step is 0.5 / 2 = 0.25, and 5 * 0.25 > 1.
        for weights in ((5.0, 8.0), (math.inf, math.inf)):
            solution = solve_weighted_lipschitz_ptas(lipschitz, weights, 0.5)
            assert solution.status == "optimal"
            assert solution.x == (0.0, 0.0)
            assert solution.oracle_calls == solution.points_enumerated == 1


@pytest.mark.parametrize("radius", [-1, Fraction(-1, 2), math.nan, math.inf, -math.inf])
def test_weighted_rejects_negative_or_non_finite_radius(radius):
    with pytest.raises(ValueError, match="radius must be finite and nonnegative"):
        WeightedL1Spec((1.0, 1.0), radius)


@pytest.mark.parametrize("weights", [(math.nan, 1.0), (1.0, math.nan)])
def test_weighted_rejects_nan_weight(weights):
    with pytest.raises(InvalidWeightsError, match="not positive"):
        WeightedL1Spec(weights, 2.0)


def test_weighted_unit_weights_reduce_to_plain():
    rng = random.Random(29)
    for _ in range(8):
        n, c, A, b = random_ilp(rng)
        lam = rng.choice([1, 2, 3])
        problem = ProblemInstance.linear(c, A, b)
        plain = solve_l1_ip(problem, lam)
        weighted = solve_weighted_l1_ip(
            problem, WeightedL1Spec((Fraction(1),) * n, Fraction(lam))
        )
        assert (weighted.status, weighted.objective, weighted.x) == (
            plain.status,
            plain.objective,
            plain.x,
        )


def test_weighted_matches_brute_force():
    rng = random.Random(31)
    for trial in range(10):
        n, c, A, b = random_ilp(rng, max_n=3)
        lam = Fraction(rng.randint(1, 3))
        weights = tuple(Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(n))
        problem = ProblemInstance.linear(c, A, b)
        mine = solve_weighted_l1_ip(problem, WeightedL1Spec(weights, lam))
        status, value, x = solve_weighted_brute(problem, weights, lam)
        assert (mine.status, mine.objective, mine.x) == (status, value, x), f"trial {trial}"


def test_weighted_solution_respects_budget_exactly():
    rng = random.Random(37)
    for _ in range(10):
        n, c, A, b = random_ilp(rng, max_n=3)
        lam = Fraction(rng.randint(1, 3))
        weights = tuple(Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(n))
        problem = ProblemInstance.linear(c, A, b)
        solution = solve_weighted_l1_ip(problem, WeightedL1Spec(weights, lam))
        if solution.status == "optimal":
            assert sum(w * abs(v) for w, v in zip(weights, solution.x)) <= lam


def test_float_mode_tolerance():
    # At x = 1 the residual is 5e-10: inside the default 1e-9 tolerance,
    # outside an explicit zero tolerance.
    problem = ProblemInstance(
        n=1,
        objective=lambda x: -float(x[0]),
        constraints=lambda x: (float(x[0]) - 1.0 + 5e-10,),
        arithmetic="float",
    )
    default_tol = solve_l1_ip(problem, 1)
    assert default_tol.x == (1,)
    assert default_tol.objective == -1.0
    strict = solve_l1_ip(problem, 1, SolveOptions(tolerance=0.0))
    assert strict.x == (0,)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf])
def test_non_finite_tolerance_is_rejected(tolerance):
    with pytest.raises(ValueError, match="finite"):
        SolveOptions(tolerance=tolerance)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_coefficients_are_rejected(bad):
    # inf * 0 is NaN in a dense sum and skipped by a block sum, so the
    # built-in oracles refuse such data instead of picking one answer.
    for mode in (FLOAT, "rational"):
        with pytest.raises(ValueError, match="finite"):
            ProblemInstance.linear((bad, 1.0), ((1.0, 1.0),), (1.0,), arithmetic=mode)
        with pytest.raises(ValueError, match="finite"):
            ProblemInstance.linear((1.0, 1.0), ((1.0, 1.0),), (bad,), arithmetic=mode)
        with pytest.raises(ValueError, match="finite"):
            ProblemInstance.quadratic(
                ((0.0, bad), (0.0, 0.0)), (1.0, 1.0), (), arithmetic=mode
            )
        row = QuadraticConstraint(A=((1.0, 0.0), (0.0, bad)), b=(0.0, 0.0), c=-1.0)
        with pytest.raises(ValueError, match="finite"):
            ProblemInstance.quadratic(((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0), (row,), arithmetic=mode)
    with pytest.raises(ValueError, match="finite"):
        make_linear_oracle((1.0,), ((bad,),), (0.0,))
    with pytest.raises(ValueError, match="finite"):
        make_quadratic_oracle(((1.0,),), (0.0,), (QuadraticConstraint(A=None, b=(1.0,), c=bad),))


@pytest.mark.parametrize("parallel", [0, -3])
def test_nonpositive_parallel_is_rejected(parallel):
    with pytest.raises(ValueError, match="parallel"):
        SolveOptions(parallel=parallel)

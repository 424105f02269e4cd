import itertools
import math
import random
from fractions import Fraction

import pytest

from l1opt.counting import count_l1_lattice
from l1opt.errors import InnerSolverError
from l1opt.lattice import iter_l1_points
from l1opt.ptas import (
    InnerSolution,
    LipschitzProblem,
    MixedProblem,
    grid_radius,
    linear_lipschitz_constant,
    linear_mixed_inner_solver,
    quadratic_lipschitz_constant,
    solve_lipschitz_ptas,
    solve_mixed_integer,
    solve_weighted_lipschitz_ptas,
)
from l1opt.solver import ProblemInstance, QuadraticConstraint
from oracles import GridTooLargeError, check_lipschitz, fine_grid_reference


def feasible_everywhere(x):
    return (-1.0,)


def test_norm_objective_keeps_origin():
    problem = LipschitzProblem(
        n=2,
        objective=lambda x: abs(x[0]) + abs(x[1]),
        constraints=feasible_everywhere,
        lipschitz=1.0,
        radius=1.0,
    )
    solution = solve_lipschitz_ptas(problem, 0.5)
    assert solution.status == "optimal"
    assert solution.objective == 0.0
    assert solution.x == (0.0, 0.0)


def test_linear_objective_hits_grid_boundary():
    problem = LipschitzProblem(
        n=2,
        objective=lambda x: x[0],
        constraints=feasible_everywhere,
        lipschitz=1.0,
        radius=1.0,
    )
    solution = solve_lipschitz_ptas(problem, 0.25)
    assert solution.grid_radius == 4
    assert solution.step == 0.25
    assert solution.objective == -1.0
    assert solution.x == (-1.0, 0.0)


def test_oracle_count_matches_grid_size():
    problem = LipschitzProblem(
        n=3,
        objective=lambda x: x[0] + x[1],
        constraints=feasible_everywhere,
        lipschitz=2.0,
        radius=1.0,
    )
    solution = solve_lipschitz_ptas(problem, 0.5)
    assert solution.oracle_calls == solution.points_enumerated
    assert solution.points_enumerated == count_l1_lattice(3, 1.0 * 2.0 / 0.5)


def test_radius_safety_and_relaxed_feasibility():
    problem = LipschitzProblem(
        n=2,
        objective=lambda x: -x[0] - 0.3 * x[1],
        constraints=lambda x: (x[0] + x[1] - 0.7,),
        lipschitz=1.3,
        radius=1.0,
    )
    epsilon = 0.25
    solution = solve_lipschitz_ptas(problem, epsilon)
    assert solution.status == "optimal"
    assert sum(abs(v) for v in solution.x) <= problem.radius + 1e-12
    assert max(problem.constraints(solution.x)) <= epsilon + 1e-12


def test_no_feasible_grid_point_status():
    problem = LipschitzProblem(
        n=2,
        objective=lambda x: x[0],
        constraints=lambda x: (1.0,),
        lipschitz=1.0,
        radius=1.0,
    )
    solution = solve_lipschitz_ptas(problem, 0.5)
    assert solution.status == "no_feasible_grid_point"
    assert solution.x is None


def test_grid_radius_is_exact_on_awkward_floats():
    assert grid_radius(1.0, 1.0, 0.25) == 4
    assert grid_radius(1.0, 3.0, 0.5) == 6
    # The exact quotient of the binary values behind 0.3 and 0.1 lies a
    # hair below 3; flooring it keeps the scaled points inside the ball,
    # which the guarantee needs, at the price of one grid shell.
    assert grid_radius(1.0, 0.3, 0.1) == 2


def test_grid_covering_random_targets():
    rng = random.Random(41)
    for n, lam, kappa, eps in [(2, 1.0, 1.0, 0.25), (3, 1.0, 2.0, 0.5), (5, 1.0, 1.0, 0.5)]:
        radius = grid_radius(lam, kappa, eps)
        step = eps / kappa
        grid = [tuple(step * v for v in p.x) for p in iter_l1_points(n, radius)]
        for _ in range(1000):
            raw = [rng.gauss(0, 1) for _ in range(n)]
            norm = sum(abs(v) for v in raw)
            scale = lam * rng.random() / norm if norm else 0.0
            y = [v * scale for v in raw]
            closest = min(max(abs(a - b) for a, b in zip(y, x)) for x in grid)
            assert closest <= eps / kappa + 1e-12


def test_matches_fine_grid_reference_on_random_instances():
    rng = random.Random(43)
    for trial in range(6):
        c = [rng.uniform(-2, 2) for _ in range(2)]
        a = [rng.uniform(-2, 2) for _ in range(2)]
        beta = rng.uniform(0.1, 1.0)
        kappa = linear_lipschitz_constant(c, [a])
        problem = LipschitzProblem(
            n=2,
            objective=lambda x, c=c: c[0] * x[0] + c[1] * x[1],
            constraints=lambda x, a=a, beta=beta: (a[0] * x[0] + a[1] * x[1] - beta,),
            lipschitz=kappa,
            radius=1.0,
        )
        epsilon = 0.5
        solution = solve_lipschitz_ptas(problem, epsilon)
        reference = fine_grid_reference(problem, epsilon / (10 * kappa))
        assert solution.status == "optimal"
        assert reference.status == "optimal"
        gap = solution.objective - reference.objective
        assert gap <= epsilon + 1e-9, f"trial {trial}: gap {gap}"


def test_fine_grid_reference_examples():
    problem = LipschitzProblem(
        n=1,
        objective=lambda x: x[0],
        constraints=feasible_everywhere,
        lipschitz=1.0,
        radius=1.0,
    )
    assert fine_grid_reference(problem, 0.1).objective == -1.0
    infeasible = LipschitzProblem(
        n=1,
        objective=lambda x: x[0],
        constraints=lambda x: (1.0,),
        lipschitz=1.0,
        radius=1.0,
    )
    assert fine_grid_reference(infeasible, 0.1).status == "no_feasible_grid_point"


def test_fine_grid_reference_guards_size():
    problem = LipschitzProblem(
        n=4,
        objective=lambda x: x[0],
        constraints=feasible_everywhere,
        lipschitz=1.0,
        radius=1.0,
    )
    with pytest.raises(GridTooLargeError):
        fine_grid_reference(problem, 1e-4, max_points=10_000)


def test_parallel_matches_serial():
    problem = LipschitzProblem(
        n=2,
        objective=lambda x: x[0] - 0.5 * x[1],
        constraints=lambda x: (x[0] + x[1] - 0.4,),
        lipschitz=1.5,
        radius=1.0,
    )
    serial = solve_lipschitz_ptas(problem, 0.25)
    for workers in (2, 8):
        assert solve_lipschitz_ptas(problem, 0.25, parallel=workers) == serial


def test_weighted_ptas_matches_grid_scan():
    rng = random.Random(47)
    for trial in range(5):
        n = rng.randint(1, 3)
        c = [rng.uniform(-2, 2) for _ in range(n)]
        kappa = max(1.0, sum(abs(v) for v in c))
        weights = tuple(rng.choice([0.5, 1.0, 2.0]) for _ in range(n))
        problem = LipschitzProblem(
            n=n,
            objective=lambda x, c=c: sum(a * v for a, v in zip(c, x)),
            constraints=feasible_everywhere,
            lipschitz=kappa,
            radius=1.0,
        )
        epsilon = 0.5
        mine = solve_weighted_lipschitz_ptas(problem, weights, epsilon)
        # Independent scan of the same scaled grid under the weighted
        # budget; a coordinate with weight w reaches radius / (w * step).
        step = epsilon / kappa
        caps = [int(math.floor(problem.radius / (w * step) + 1e-9)) for w in weights]
        best = None
        for z in itertools.product(*(range(-c, c + 1) for c in caps)):
            x = tuple(step * v for v in z)
            if sum(w * abs(v) for w, v in zip(weights, x)) > problem.radius + 1e-12:
                continue
            value = problem.objective(x)
            if best is None or value < best:
                best = value
        assert mine.status == "optimal"
        assert mine.objective == pytest.approx(best, abs=1e-12), f"trial {trial}"


def test_mixed_quadratic_inner_solver():
    # min (y - x1)^2 with |y| <= 2: the inner optimum is exact, so the
    # overall minimum 0 appears at the first enumerated block.
    def inner(x):
        y = min(max(x[0], -2.0), 2.0)
        return InnerSolution("optimal", (y,), (y - x[0]) ** 2)

    mixed = MixedProblem(n_int=2, n_cont=1, inner_solver=inner)
    solution = solve_mixed_integer(mixed, 1)
    assert solution.status == "optimal"
    assert solution.objective == 0.0
    assert solution.x == (0, 0)
    assert solution.inner_calls == 5


def test_mixed_linear_example():
    inner = linear_mixed_inner_solver(
        c_int=[1, 1], c_cont=[1], A_int=[[0, 0]], A_cont=[[-1]], b=[0]
    )
    mixed = MixedProblem(n_int=2, n_cont=1, inner_solver=inner)
    solution = solve_mixed_integer(mixed, 1)
    assert solution.status == "optimal"
    assert solution.objective == -1
    # Two blocks reach -1; the earlier one in canonical order wins.
    assert solution.x == (0, -1)
    assert solution.y == (Fraction(0),)


def test_mixed_radius_zero_is_single_inner_solve():
    inner = linear_mixed_inner_solver(
        c_int=[1], c_cont=[2], A_int=[[0]], A_cont=[[-1]], b=[0]
    )
    mixed = MixedProblem(n_int=1, n_cont=1, inner_solver=inner)
    solution = solve_mixed_integer(mixed, 0)
    assert solution.inner_calls == 1
    assert solution.objective == 0
    assert solution.x == (0,)


def test_mixed_infeasible_and_unbounded():
    infeasible_inner = linear_mixed_inner_solver(
        c_int=[0], c_cont=[1], A_int=[[0], [0]], A_cont=[[1], [-1]], b=[-2, 1]
    )
    mixed = MixedProblem(n_int=1, n_cont=1, inner_solver=infeasible_inner)
    assert solve_mixed_integer(mixed, 1).status == "infeasible"

    unbounded_inner = linear_mixed_inner_solver(
        c_int=[0], c_cont=[-1], A_int=[[0]], A_cont=[[-1]], b=[0]
    )
    mixed = MixedProblem(n_int=1, n_cont=1, inner_solver=unbounded_inner)
    with pytest.raises(InnerSolverError):
        solve_mixed_integer(mixed, 1)


def test_nan_values_are_never_optimal():
    # The origin is the first grid point and block; a NaN there must not
    # become an incumbent that no later value can beat.
    problem = LipschitzProblem(
        n=2,
        objective=lambda x: math.nan if x == (0.0, 0.0) else x[0] + x[1],
        constraints=feasible_everywhere,
        lipschitz=1.0,
        radius=1.0,
    )
    for solution in (
        solve_lipschitz_ptas(problem, 0.5),
        solve_weighted_lipschitz_ptas(problem, (1.0, 1.0), 0.5),
    ):
        assert solution.status == "optimal"
        assert solution.objective == -1.0

    def inner(x):
        return InnerSolution("optimal", (0.0,), math.nan if x == (0, 0) else float(sum(x)))

    mixed = solve_mixed_integer(MixedProblem(n_int=2, n_cont=1, inner_solver=inner), 1)
    assert mixed.status == "optimal"
    assert mixed.objective == -1.0


@pytest.mark.parametrize("weights", [(math.nan, 1.0), (1.0, math.nan)])
def test_weighted_ptas_rejects_nan_weight(weights):
    problem = LipschitzProblem(
        n=2,
        objective=lambda x: x[0] + x[1],
        constraints=feasible_everywhere,
        lipschitz=1.0,
        radius=1.0,
    )
    with pytest.raises(ValueError, match="not positive"):
        solve_weighted_lipschitz_ptas(problem, weights, 0.5)


def test_weighted_budget_holds_with_an_infinite_weight():
    problem = LipschitzProblem(
        n=3,
        objective=lambda x: -x[1] - 2 * x[2],
        constraints=feasible_everywhere,
        lipschitz=2.0,
        radius=1.0,
    )
    solution = solve_weighted_lipschitz_ptas(problem, (math.inf, 1.0, 1.5), 1.0)
    assert solution == solve_weighted_lipschitz_ptas(problem, (100.0, 1.0, 1.5), 1.0)
    assert solution.x == (0.0, 0.0, 0.5)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_parameters_are_rejected(value):
    with pytest.raises(ValueError):
        LipschitzProblem(n=1, objective=abs, constraints=feasible_everywhere, lipschitz=value, radius=1.0)
    with pytest.raises(ValueError):
        LipschitzProblem(n=1, objective=abs, constraints=feasible_everywhere, lipschitz=1.0, radius=value)
    for args in ((value, 1.0, 0.5), (1.0, value, 0.5), (1.0, 1.0, value)):
        with pytest.raises(ValueError, match="finite"):
            grid_radius(*args)


def test_lipschitz_constant_helpers():
    assert linear_lipschitz_constant([1, -2], [[3, 0.5]]) == 3.5
    constant = quadratic_lipschitz_constant([[1, 0], [0, -2]], [1, 1], (), radius=2.0)
    # Row and column sums of |Q| both peak at 2, so the quadratic part
    # contributes 2 * (2 + 2) on the radius-2 ball, plus ||c||_1 = 2.
    assert constant == 2.0 * 4 + 2


def test_quadratic_lipschitz_constant_takes_the_largest_row():
    Q = [[1, 0], [0, 0]]
    # |A| has row sums 3 and 7 and column sums 4 and 6: 2 * (7 + 6) + 2.
    with_matrix = QuadraticConstraint(((1, 2), (3, -4)), (1, -1), 5)
    # A row without a matrix contributes its ||b||_1 alone.
    linear = QuadraticConstraint(None, (5, -6), 0)
    # The objective alone: 2 * (1 + 1) + 0.
    assert quadratic_lipschitz_constant(Q, [0, 0], (), radius=2) == 4.0
    assert quadratic_lipschitz_constant(Q, [0, 0], (linear,), radius=2) == 11.0
    assert quadratic_lipschitz_constant(Q, [0, 0], (linear, with_matrix), radius=2) == 28.0
    assert quadratic_lipschitz_constant(Q, [0, 0], (with_matrix,), radius=Fraction(1, 2)) == 8.5


def test_check_lipschitz_warns_on_underestimate():
    honest = LipschitzProblem(
        n=2,
        objective=lambda x: 3 * x[0],
        constraints=feasible_everywhere,
        lipschitz=3.0,
        radius=1.0,
    )
    check_lipschitz(honest, samples=100, seed=0)
    lying = LipschitzProblem(
        n=2,
        objective=lambda x: 3 * x[0],
        constraints=feasible_everywhere,
        lipschitz=0.5,
        radius=1.0,
    )
    with pytest.warns(UserWarning):
        check_lipschitz(lying, samples=100, seed=0)


@pytest.mark.parametrize("parallel", [0, -3])
def test_nonpositive_parallel_is_rejected(parallel):
    problem = LipschitzProblem(
        n=1, objective=lambda x: abs(x[0]), constraints=feasible_everywhere, lipschitz=1.0, radius=1.0
    )
    mixed = MixedProblem(
        n_int=1, n_cont=1, inner_solver=lambda x: InnerSolution("optimal", (0,), 0)
    )
    with pytest.raises(ValueError, match="parallel"):
        solve_lipschitz_ptas(problem, 0.5, parallel=parallel)
    with pytest.raises(ValueError, match="parallel"):
        solve_weighted_lipschitz_ptas(problem, (1.0,), 0.5, parallel=parallel)
    with pytest.raises(ValueError, match="parallel"):
        solve_mixed_integer(mixed, 1, parallel=parallel)


def test_weighted_ptas_at_a_fraction_step_keeps_every_entry_a_fraction():
    # The step 1/2 is a Fraction, so every grid point is a Fraction, its
    # zero entries included (step * 0), as in the unweighted scheme.  A
    # float 0.0 in x would turn the objective -1 into the float -1.0.
    rational = ProblemInstance.linear((1, 1), (), ())
    problem = LipschitzProblem(
        n=2, objective=rational.objective, constraints=rational.constraints, lipschitz=1, radius=1
    )
    weighted = solve_weighted_lipschitz_ptas(problem, [1.0, 2.0], Fraction(1, 2))
    assert repr(weighted) == (
        "ApproxSolution(status='optimal', x=(Fraction(-1, 1), Fraction(0, 1)), "
        "objective=Fraction(-1, 1), oracle_calls=7, points_enumerated=13, grid_radius=2, "
        "step=Fraction(1, 2))"
    )
    plain = solve_lipschitz_ptas(problem, Fraction(1, 2))
    assert all(type(v) is Fraction for v in (*plain.x, plain.objective))

"""The exact integer block path against the per-point oracle path.

Rational problems built by ``ProblemInstance.linear`` and
``ProblemInstance.quadratic`` run on the block path in int64; wrapping
their oracles with ``dataclasses.replace`` forces the oracle path on the
same data.  Both must return equal solutions, counts included.
"""

import dataclasses
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from l1opt.blocks import block_evaluator
from l1opt.solver import (
    FLOAT,
    ProblemInstance,
    QuadraticConstraint,
    SolveOptions,
    WeightedL1Spec,
    solve_l1_ip,
    solve_weighted_l1_ip,
)

fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
weights_values = st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)
thresholds = st.one_of(
    st.none(),
    fractions,
    st.integers(-6, 6),
    st.floats(-6, 6, allow_nan=False),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)


def vectors(n):
    return st.lists(fractions, min_size=n, max_size=n)


def matrices(rows, cols):
    return st.lists(vectors(cols), min_size=rows, max_size=rows)


@st.composite
def problems(draw):
    """A random fractional ILP, IQP or IQCQP built by its constructor."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["ilp", "iqp", "iqcqp"]))
    c = draw(vectors(n))
    if kind == "ilp":
        return ProblemInstance.linear(c, draw(matrices(m, n)), draw(vectors(m)))
    Q = draw(matrices(n, n))
    rows = []
    for _ in range(m):
        quadratic = kind == "iqcqp" and draw(st.booleans())
        A = draw(matrices(n, n)) if quadratic else None
        rows.append(QuadraticConstraint(A=A, b=tuple(draw(vectors(n))), c=draw(fractions)))
    return ProblemInstance.quadratic(Q, c, rows)


def on_block_path(problem, radius=3, tolerance=0):
    return block_evaluator(problem, radius, tolerance, None, None) is not None


def with_wrapped_oracles(problem):
    objective, constraints = problem.objective, problem.constraints
    return dataclasses.replace(
        problem,
        objective=lambda x: objective(x),
        constraints=lambda x: constraints(x),
    )


@settings(max_examples=150, deadline=None)
@given(
    problem=problems(),
    radius=st.integers(0, 3),
    stop_below=thresholds,
    parallel=st.sampled_from([1, 2]),
)
def test_kernel_matches_oracle_path(problem, radius, stop_below, parallel):
    wrapped = with_wrapped_oracles(problem)
    assert on_block_path(problem)
    assert not on_block_path(wrapped)
    options = SolveOptions(parallel=parallel, stop_below=stop_below)
    assert solve_l1_ip(problem, radius, options) == solve_l1_ip(wrapped, radius, options)


@settings(max_examples=150, deadline=None)
@given(
    problem=problems(),
    data=st.data(),
    radius=st.fractions(min_value=0, max_value=3, max_denominator=4),
    stop_below=thresholds,
    parallel=st.sampled_from([1, 2]),
)
def test_weighted_kernel_matches_oracle_path(problem, data, radius, stop_below, parallel):
    weights = data.draw(st.lists(weights_values, min_size=problem.n, max_size=problem.n))
    spec = WeightedL1Spec(tuple(weights), radius)
    options = SolveOptions(parallel=parallel, stop_below=stop_below)
    fast = solve_weighted_l1_ip(problem, spec, options)
    assert fast == solve_weighted_l1_ip(with_wrapped_oracles(problem), spec, options)


def test_kernel_returns_exact_objective():
    problem = ProblemInstance.linear(
        (Fraction(-1, 3), Fraction(1, 2)), ((Fraction(1, 4), Fraction(1, 6)),), (Fraction(1, 2),)
    )
    solution = solve_l1_ip(problem, 3)
    assert solution == solve_l1_ip(with_wrapped_oracles(problem), 3)
    assert solution.objective == Fraction(-3, 2) and solution.x == (0, -3)
    assert isinstance(solution.objective, Fraction)


def test_oracle_path_keeps_custom_and_wrapped_problems():
    custom = ProblemInstance(n=2, objective=sum, constraints=lambda x: ())
    assert not on_block_path(custom)
    rational = ProblemInstance.linear((1, -1), ((1, 1),), (1,))
    assert not on_block_path(with_wrapped_oracles(rational))
    # Float data and a float tolerance on rational data run on the block
    # path too; only the oracles decide.
    float_problem = ProblemInstance.linear((1.0, -1.0), ((1.0, 1.0),), (1.0,), arithmetic=FLOAT)
    assert on_block_path(float_problem, tolerance=1e-9)
    assert on_block_path(dataclasses.replace(rational, arithmetic=FLOAT), tolerance=1e-9)

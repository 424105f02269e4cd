"""The built-in oracles against the dense reference sums.

``make_linear_oracle`` and ``make_quadratic_oracle`` are the dense
left-to-right sums over the nonzero coefficients.  Their values must be
those of the sums in ``oracles.py`` bit for bit, at any point: same
type, same sign of zero, so the ``repr`` of every value matches.  Whole
solves over the two kinds of oracles must return equal solutions and
counts.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from l1opt.ptas import LipschitzProblem, solve_lipschitz_ptas
from l1opt.solver import (
    FLOAT,
    RATIONAL,
    ProblemInstance,
    QuadraticConstraint,
    SolveOptions,
    WeightedL1Spec,
    solve_l1_ip,
    solve_weighted_l1_ip,
)
from oracles import (
    dense_linear_oracle,
    dense_quadratic_oracle,
    make_linear_oracle,
    make_quadratic_oracle,
)

# Zeros are drawn often, so rows with zero entries come up; the float
# values reach subnormals, where products underflow to signed zeros, and
# huge magnitudes, where products and sums overflow.
COEFFICIENTS = {
    RATIONAL: st.one_of(
        st.just(Fraction(0)), st.fractions(min_value=-5, max_value=5, max_denominator=6)
    ),
    FLOAT: st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-5, 5),
    ),
}
# Forms whose nonzero coefficients mix int, float and Fraction; a mode's
# own zeros still come up through the all-zero vectors.
MIXED = st.one_of(st.integers(-5, 5), COEFFICIENTS[RATIONAL], COEFFICIENTS[FLOAT])
MIXED_COEFFICIENTS = {RATIONAL: MIXED, FLOAT: MIXED}
SMALL_COEFFICIENTS = {
    RATIONAL: COEFFICIENTS[RATIONAL],
    FLOAT: st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-5, 5)),
}


@st.composite
def problem_data(draw, values=COEFFICIENTS, max_n=5):
    """``(n, mode, kind, data)``: linear ``(c, A, b)`` or quadratic ``(Q, c, rows)``
    data in one coefficient type, with all-zero rows and ``A=None`` rows."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, 3))
    mode = draw(st.sampled_from([RATIONAL, FLOAT]))
    kind = draw(st.sampled_from(["linear", "quadratic"]))
    value = values[mode]

    def vector(size):
        if draw(st.integers(0, 4)) == 0:
            zero = draw(st.sampled_from([Fraction(0)] if mode == RATIONAL else [0.0, -0.0]))
            return (zero,) * size
        return tuple(draw(st.lists(value, min_size=size, max_size=size)))

    def matrix():
        return tuple(vector(n) for _ in range(n))

    if kind == "linear":
        data = (vector(n), tuple(vector(n) for _ in range(m)), vector(m))
    else:
        rows = tuple(
            QuadraticConstraint(
                A=matrix() if draw(st.booleans()) else None, b=vector(n), c=draw(value)
            )
            for _ in range(m)
        )
        data = (matrix(), vector(n), rows)
    return n, mode, kind, data


def oracle_pair(kind, data):
    """(built-in, reference) oracles over the same data."""
    if kind == "linear":
        return make_linear_oracle(*data), dense_linear_oracle(*data)
    return make_quadratic_oracle(*data), dense_quadratic_oracle(*data)


def points(n):
    """Lattice points (ints) or grid points (floats, signed zeros included)."""
    ints = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    floats = st.lists(
        st.one_of(
            st.sampled_from([0.0, -0.0]),
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(-3, 3),
        ),
        min_size=n,
        max_size=n,
    )
    return st.one_of(ints, floats).map(tuple)


@settings(max_examples=300, deadline=None)
@given(problem=st.one_of(problem_data(), problem_data(MIXED_COEFFICIENTS)), data=st.data())
def test_sparse_oracles_match_dense_sums(problem, data):
    n, _, kind, coefficients = problem
    (objective, constraints), (dense_objective, dense_constraints) = oracle_pair(kind, coefficients)
    for x in data.draw(st.lists(points(n), min_size=1, max_size=4)):
        assert repr(objective(x)) == repr(dense_objective(x))
        assert repr(constraints(x)) == repr(dense_constraints(x))


def test_sparse_sum_keeps_type_and_sign_of_zero():
    # A zero coordinate under the first nonzero coefficient still fixes
    # the result's type; an all-zero form stays int 0.
    objective, constraints = make_linear_oracle((0.0, -2.0, 3.0), ((0, 0, 0),), (0,))
    assert repr(objective((5, 0, 0))) == "0.0"
    assert repr(objective((0, 0, 0))) == "0.0"
    assert repr(objective((0.0, -0.0, 1.0))) == "3.0"
    assert repr(constraints((1, 2, 3))) == "(0,)"
    objective, _ = make_linear_oracle((Fraction(1, 2), 0), (), ())
    assert repr(objective((0, 7))) == "Fraction(0, 1)"


def test_mixed_type_form_is_summed_like_the_dense_sum():
    # The term 0.5 * 0 = 0.0 makes the dense total a float.
    objective, constraints = make_linear_oracle((1, 0.5), ((Fraction(1, 3), 1.5),), (0,))
    assert repr(objective((1, 0))) == "1.0"
    assert repr(constraints((3, 0))) == "(1.0,)"
    objective, _ = make_linear_oracle((2, Fraction(1, 2)), (), ())
    assert repr(objective((1, 0))) == "Fraction(2, 1)"


def test_zero_coordinate_of_another_type_still_counts():
    # The dense sum adds 2 * 0.0, which makes the total a float.
    objective, _ = make_linear_oracle((1, 2), (), ())
    assert repr(objective((1, 0.0))) == "1.0"
    objective, _ = make_quadratic_oracle(((1, 1), (0, 1)), (0, 0), ())
    assert repr(objective((1, 0.0))) == "1.0"


def instances(n, mode, kind, data):
    """(built-in, reference) instances of the same data."""
    (objective, constraints), (dense_objective, dense_constraints) = oracle_pair(kind, data)
    return (
        ProblemInstance(n=n, objective=objective, constraints=constraints, arithmetic=mode),
        ProblemInstance(n=n, objective=dense_objective, constraints=dense_constraints, arithmetic=mode),
    )


@settings(max_examples=100, deadline=None)
@given(
    problem=problem_data(SMALL_COEFFICIENTS, max_n=4),
    radius=st.integers(0, 3),
    parallel=st.sampled_from([1, 2]),
)
def test_solves_match_over_sparse_and_dense_oracles(problem, radius, parallel):
    builtin, dense = instances(*problem)
    options = SolveOptions(parallel=parallel)
    assert repr(solve_l1_ip(builtin, radius, options)) == repr(solve_l1_ip(dense, radius, options))


@settings(max_examples=100, deadline=None)
@given(
    problem=problem_data(SMALL_COEFFICIENTS, max_n=4),
    data=st.data(),
    radius=st.fractions(min_value=0, max_value=3, max_denominator=4),
    parallel=st.sampled_from([1, 2]),
)
def test_weighted_solves_match_over_sparse_and_dense_oracles(problem, data, radius, parallel):
    n, mode = problem[:2]
    weights = data.draw(
        st.lists(
            st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4),
            min_size=n,
            max_size=n,
        )
    )
    conv = Fraction if mode == RATIONAL else float
    spec = WeightedL1Spec(tuple(map(conv, weights)), conv(radius))
    builtin, dense = instances(*problem)
    options = SolveOptions(parallel=parallel)
    assert repr(solve_weighted_l1_ip(builtin, spec, options)) == repr(
        solve_weighted_l1_ip(dense, spec, options)
    )


@settings(max_examples=100, deadline=None)
@given(
    problem=problem_data(SMALL_COEFFICIENTS, max_n=3),
    epsilon=st.sampled_from([0.25, 0.5, 1.0]),
    parallel=st.sampled_from([1, 2]),
)
def test_ptas_matches_over_sparse_and_dense_oracles(problem, epsilon, parallel):
    # kappa only sets the grid here, and two is small enough for a quick walk.
    n, _, kind, data = problem
    results = []
    for objective, constraints in oracle_pair(kind, data):
        lipschitz = LipschitzProblem(
            n=n, objective=objective, constraints=constraints, lipschitz=2.0, radius=1.0
        )
        results.append(repr(solve_lipschitz_ptas(lipschitz, epsilon, parallel=parallel)))
    assert results[0] == results[1]

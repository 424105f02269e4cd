import math
import sys
from fractions import Fraction

import pytest

from l1opt.counting import (
    BigBound,
    count_l1_lattice,
    count_linf_lattice,
    estimate_gaussian_width,
    exact_digit_cap,
    gaussian_width_bound,
    l1_count_lower_bound,
    l1_count_upper_bound,
    oracle_complexity_bound,
)
from l1opt.errors import InvalidDimensionError
from oracles import (
    ball_points_brute,
    count_l2_lattice_brute,
    covering_bound_l1,
    covering_bounds_linf,
    l2_count_bounds,
    linf_count_brute,
)


def test_count_l1_examples():
    assert count_l1_lattice(2, 1) == 5
    assert count_l1_lattice(3, 2) == 25
    assert count_l1_lattice(1, 3) == 7


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("lam", [0, 0.5, 1, 2, 3])
def test_count_l1_matches_brute_force(n, lam):
    assert count_l1_lattice(n, lam) == len(ball_points_brute(n, lam))


def test_count_l1_quadratic_law():
    for n in range(1, 51):
        assert count_l1_lattice(n, 2) == 2 * n * n + 2 * n + 1


def test_count_l1_monotone():
    for n in range(1, 8):
        for lam in range(0, 5):
            assert count_l1_lattice(n, lam) <= count_l1_lattice(n + 1, lam)
            assert count_l1_lattice(n, lam) <= count_l1_lattice(n, lam + 1)


def test_count_linf_examples():
    assert count_linf_lattice(2, 1) == 9
    assert count_linf_lattice(3, 0.5) == 1
    assert count_linf_lattice(4, 2) == 625


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("lam", [0, 1, 2, 3])
def test_count_linf_matches_brute_force(n, lam):
    assert count_linf_lattice(n, lam) == linf_count_brute(n, lam)


def test_upper_lower_bound_examples():
    assert l1_count_upper_bound(2, 1).exact == 16
    assert l1_count_lower_bound(2) == 4
    assert 4 <= count_l1_lattice(2, 1) <= 16
    assert l1_count_upper_bound(3, 1).exact == 81
    assert l1_count_lower_bound(3) == 6
    assert count_l1_lattice(3, 1) == 7
    assert l1_count_upper_bound(10, 0, slack=0.5).exact == 1


def test_simplified_sandwich():
    for n in range(2, 7):
        for lam in range(1, 5):
            count = count_l1_lattice(n, lam)
            assert 2 * n <= count <= n ** (4 * lam * lam)


def test_slack_form_is_a_formula_not_a_count_bound():
    # With a small slack the formula can dip below the true count; that
    # is expected and why the simplified form backs the invariants.
    value = l1_count_upper_bound(2, 1, slack=0.01, simplified=False)
    assert 10 ** value.log10 < count_l1_lattice(2, 1)


def test_bounds_reject_dimension_one():
    with pytest.raises(InvalidDimensionError):
        l1_count_upper_bound(1, 2)
    with pytest.raises(InvalidDimensionError):
        oracle_complexity_bound(1, 2)
    with pytest.raises(InvalidDimensionError):
        covering_bound_l1(1, 2, 1)


def test_covering_bound_l1_examples():
    b = covering_bound_l1(4, 1, 1)
    assert b.exact == 2
    assert abs(b.log10 - math.log10(2)) < 1e-12
    assert covering_bound_l1(2, 0, 1).exact == 1
    assert covering_bound_l1(9, 3, 3 / math.sqrt(2)).exact == 9


def test_covering_bounds_linf_examples():
    lower, upper = covering_bounds_linf(2, 2, 1)
    assert (lower.exact, upper.exact) == (4, 16)
    lower, upper = covering_bounds_linf(3, 1, 1)
    assert (lower.exact, upper.exact) == (1, 27)
    lower, upper = covering_bounds_linf(1, 0, 1)
    assert (lower.exact, upper.exact) == (0, 2)


def test_covering_bounds_linf_fractional_ratio():
    lower, upper = covering_bounds_linf(3, Fraction(3, 2), Fraction(1, 2))
    assert lower.exact == 27
    assert upper.exact == 125


def test_oracle_complexity_examples():
    assert oracle_complexity_bound(2, 2).exact == 131072
    assert oracle_complexity_bound(3, 1).exact == 243
    assert oracle_complexity_bound(5, 0, slack=0.3).exact == 5


def test_oracle_complexity_slack_form():
    bound = oracle_complexity_bound(3, 2, slack=Fraction(83, 100), simplified=False)
    exponent = (Fraction(283, 100) * 2) ** 2 / 2 + 1
    assert abs(bound.log10 - float(exponent) * math.log10(3)) < 1e-12


def test_bigbound_log_consistency():
    samples = [
        l1_count_upper_bound(5, 3),
        oracle_complexity_bound(7, 2),
        covering_bounds_linf(4, 3, 1)[1],
        BigBound.from_power(6, Fraction(7, 2)),
    ]
    for bound in samples:
        if bound.exact is not None and bound.exact > 0:
            assert abs(math.log10(bound.exact) - bound.log10) <= 1e-9 * max(1.0, abs(bound.log10))


def test_bigbound_fractional_power_fallback():
    bound = BigBound.from_power(3, Fraction(1, 2))
    assert bound.exact is None
    assert abs(bound.log10 - 0.5 * math.log10(3)) < 1e-12


def test_bigbound_exact_values_stop_at_the_digit_cap():
    # One cap for every exact path; past it only log10 is reported.
    assert exact_digit_cap() <= (sys.get_int_max_str_digits() or exact_digit_cap())
    assert BigBound.from_power(10, 4298).exact == 10**4298
    assert BigBound.from_power(10, 4300).exact is None
    assert BigBound.from_int(10**5000).exact is None
    assert BigBound.from_int(10**5000).log10 == pytest.approx(5000)
    assert BigBound.from_power(4, Fraction(7, 2)).exact == 128
    assert BigBound.from_power(4, Fraction(20001, 2)).exact is None
    assert covering_bounds_linf(10_000, 3, 1)[0].exact is None


def test_huge_radius_bound_is_never_built():
    # 2^(4 * 10^12) would need half a terabyte; its log10 comes at once.
    bound = l1_count_upper_bound(2, 10**6)
    assert bound.exact is None
    assert bound.log10 == pytest.approx(4e12 * math.log10(2))
    assert oracle_complexity_bound(40, 60).exact is None


def test_l2_bounds_and_brute():
    lower, upper = l2_count_bounds(2, 1.5)
    assert lower == 4
    assert upper == 9
    # x^2 + y^2 <= 2.25 admits the 3x3 grid around the origin.
    assert count_l2_lattice_brute(2, 1.5) == 9
    for n in (2, 3):
        for lam in (1, 2):
            exact = count_l2_lattice_brute(n, lam)
            lo, hi = l2_count_bounds(n, lam)
            assert lo <= exact <= hi


def test_gaussian_width_examples():
    mean, stderr = estimate_gaussian_width(2, 1, samples=100_000, seed=7)
    assert abs(mean - 1.128) < 0.02
    assert mean < gaussian_width_bound(2, 1) == pytest.approx(math.sqrt(2 * math.log(2)))
    mean3, _ = estimate_gaussian_width(3, 2, samples=100_000, seed=7)
    assert abs(mean3 - 2.66) < 0.05
    assert mean3 < gaussian_width_bound(3, 2)


def test_gaussian_width_zero_radius():
    mean, stderr = estimate_gaussian_width(4, 0, samples=1000, seed=1)
    assert mean == 0.0
    assert stderr == 0.0


def test_gaussian_width_deterministic_per_seed():
    a = estimate_gaussian_width(5, 1, samples=2000, seed=42)
    b = estimate_gaussian_width(5, 1, samples=2000, seed=42)
    c = estimate_gaussian_width(5, 1, samples=2000, seed=43)
    assert a == b
    assert a != c


def test_gaussian_width_bound_holds_with_margin():
    for n in (2, 4, 8):
        for lam in (1, 2):
            mean, stderr = estimate_gaussian_width(n, lam, samples=20_000, seed=3)
            assert mean + 3 * stderr <= gaussian_width_bound(n, lam)

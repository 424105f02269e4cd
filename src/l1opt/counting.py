"""Exact lattice-point counts for scaled norm balls and closed-form bounds.

Counts are exact big integers.  The bound formulas routinely produce
numbers like n^(4*rho^2+1) that overflow any fixed-width type, so they
are returned as :class:`BigBound` values carrying an exact integer when
one exists alongside a base-10 logarithm that always exists.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import InvalidDimensionError

Real = Union[int, float, Fraction]

# Chosen so that ((2 + slack)^2)/2 is within 0.005 of 4, the exponent of
# the simplified bound n^(4*rho^2).
DEFAULT_SLACK = 0.83

# Most decimal digits of an exact bound where CPython sets no limit on
# int-to-str conversion; see :func:`exact_digit_cap`.
_DEFAULT_DIGIT_CAP = 4300


def floor_radius(radius: Real) -> int:
    """Largest integer <= radius.  Exact for int and Fraction inputs."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius!r}")
    if isinstance(radius, Fraction):
        return radius.numerator // radius.denominator
    return int(math.floor(radius))


def _integer_root(value: int, degree: int) -> int:
    """Floor of the degree-th root of a nonnegative integer."""
    if value < 0 or degree < 1:
        raise ValueError("need value >= 0 and degree >= 1")
    if value < 2:
        return value
    hi = 1
    while hi**degree <= value:
        hi <<= 1
    lo = hi >> 1
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**degree <= value:
            lo = mid
        else:
            hi = mid
    return lo


def exact_digit_cap() -> int:
    """Most decimal digits an exact bound value may have.

    CPython's limit on int-to-str conversion (4,300 digits by default),
    so every exact value can be printed; 4,300 where the limit is off.
    Larger bounds carry only their ``log10``, and are never built.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return min(limit, _DEFAULT_DIGIT_CAP) if limit else _DEFAULT_DIGIT_CAP


def _within_cap(log10: float) -> bool:
    """Whether a value with this (float) log10 has at most
    :func:`exact_digit_cap` digits, with a margin for rounding."""
    return log10 < exact_digit_cap() - 1


@dataclass(frozen=True)
class BigBound:
    """A possibly astronomically large bound value.

    ``exact`` is present when the value is an integer of at most
    :func:`exact_digit_cap` digits; ``log10`` is always present
    (``-inf`` for a zero bound).  The size of a power is read from its
    logarithm before any exact power is built.
    """

    exact: int | None
    log10: float

    @classmethod
    def from_int(cls, value: int) -> "BigBound":
        if value < 0:
            raise ValueError("bounds are nonnegative")
        log10 = float("-inf") if value == 0 else math.log10(value)
        return cls(exact=value if _within_cap(log10) else None, log10=log10)

    @classmethod
    def from_power(cls, base: int, exponent: Real) -> "BigBound":
        """base**exponent with integrality detection for rational exponents."""
        if base < 1:
            raise ValueError("base must be >= 1")
        if exponent < 0:
            raise ValueError("exponent must be nonnegative")
        if isinstance(exponent, float):
            nearest = round(exponent)
            if abs(exponent - nearest) < 1e-9:
                exponent = int(nearest)
        log10 = float(exponent) * math.log10(base)
        if isinstance(exponent, int):
            return cls.from_int(base**exponent) if _within_cap(log10) else cls(None, log10)
        exact = None
        if isinstance(exponent, Fraction):
            # In lowest terms, base**(p/q) is an integer exactly when base
            # is a perfect q-th power r**q, and then it is r**p.
            p, q = exponent.numerator, exponent.denominator
            root = _integer_root(base, q)
            if root**q == base and _within_cap(p * math.log10(root)):
                exact = root**p
        elif log10 < 15.0:
            value = float(base) ** float(exponent)
            nearest = round(value)
            if abs(value - nearest) <= 1e-9 * max(1.0, abs(value)):
                exact = int(nearest)
        return cls(exact=exact, log10=log10)


def count_l1_lattice(n: int, radius: Real) -> int:
    """Exact number of integer points x with sum_i |x_i| <= radius in Z^n.

    Sums over support sizes: choose j nonzero coordinates, a sign for
    each, and j positive magnitudes with total at most floor(radius),
    of which there are C(floor(radius), j) by stars and bars.
    """
    if n < 1:
        raise InvalidDimensionError("dimension must be >= 1")
    rho = floor_radius(radius)
    return sum(
        math.comb(n, j) * (1 << j) * math.comb(rho, j)
        for j in range(min(n, rho) + 1)
    )


def count_linf_lattice(n: int, radius: Real) -> int:
    """Exact number of integer points of the linf ball: (1 + 2*floor(radius))^n."""
    if n < 1:
        raise InvalidDimensionError("dimension must be >= 1")
    return (1 + 2 * floor_radius(radius)) ** n


def l1_count_upper_bound(
    n: int,
    radius: Real,
    slack: Real = DEFAULT_SLACK,
    simplified: bool = True,
) -> BigBound:
    """Upper bound on the l1 lattice count.

    Simplified mode returns n^(4*rho^2) with rho = floor(radius), which
    dominates the exact count for every n >= 2.  Non-simplified mode
    evaluates the slack-parameterized formula n^(((2+slack)*rho)^2/2);
    for very small n this expression can dip below the true count
    (e.g. n=2, radius=1, slack near 0 gives 4 < 5), so treat it as a
    formula evaluator rather than a certified count bound.
    """
    _require_bound_dimension(n)
    _require_slack(slack)
    rho = floor_radius(radius)
    if simplified:
        return BigBound.from_power(n, 4 * rho * rho)
    return BigBound.from_power(n, _slack_exponent(rho, slack))


def l1_count_lower_bound(n: int) -> int:
    """Lower bound 2n on the l1 lattice count; valid whenever radius >= 1."""
    _require_bound_dimension(n)
    return 2 * n


def oracle_complexity_bound(
    n: int,
    radius: Real,
    slack: Real = DEFAULT_SLACK,
    simplified: bool = True,
) -> BigBound:
    """Bound on oracle steps for exhaustive solving over the l1 ball.

    One more power of n than the point-count bound, covering the
    per-point generation work: n^(4*rho^2 + 1) simplified, or
    n^(((2+slack)*rho)^2/2 + 1) with the slack parameter.
    """
    _require_bound_dimension(n)
    _require_slack(slack)
    rho = floor_radius(radius)
    if simplified:
        return BigBound.from_power(n, 4 * rho * rho + 1)
    return BigBound.from_power(n, _slack_exponent(rho, slack) + 1)


def gaussian_width_bound(n: int, radius: Real) -> float:
    """Closed-form bound radius*sqrt(2*ln(n)) on the Gaussian mean width of the l1 ball."""
    _require_bound_dimension(n)
    return float(radius) * math.sqrt(2.0 * math.log(n))


def estimate_gaussian_width(
    n: int,
    radius: Real,
    samples: int = 100_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo estimate of E(max over the l1 ball of <g, x>).

    The maximum of a linear functional over the l1 ball of the given
    radius is the radius times the largest absolute coefficient, so we
    average radius * max_j |g_j| over iid standard normal draws.
    Returns (mean, standard error).  Draws come from numpy's PCG64
    generator, so results are bit-identical for a fixed
    (seed, samples) pair across platforms.
    """
    _require_bound_dimension(n)
    if samples < 100:
        raise ValueError("need at least 100 samples")
    rng = np.random.default_rng(seed)
    peaks = np.empty(samples, dtype=np.float64)
    chunk = max(1, min(samples, 2_000_000 // n))
    done = 0
    while done < samples:
        take = min(chunk, samples - done)
        draws = rng.standard_normal((take, n))
        peaks[done : done + take] = np.abs(draws).max(axis=1)
        done += take
    peaks *= float(radius)
    mean = float(peaks.mean())
    stderr = float(peaks.std(ddof=1) / math.sqrt(samples))
    return mean, stderr


def _slack_exponent(rho: int, slack: Real) -> Real:
    if isinstance(slack, (int, Fraction)):
        return ((2 + Fraction(slack)) * rho) ** 2 / 2
    return ((2.0 + float(slack)) * rho) ** 2 / 2.0


def _require_bound_dimension(n: int) -> None:
    # The sqrt(2*log n) step behind the bound formulas degenerates at
    # n=1, so the formula surface rejects it outright.
    if n < 2:
        raise InvalidDimensionError("bound formulas require dimension >= 2")


def _require_slack(slack: Real) -> None:
    if not 0 < slack < 1:
        raise ValueError(f"slack must lie in (0, 1), got {slack!r}")

"""Streaming, exactly-once enumeration of the integer points of scaled l1 balls.

The walk visits the nondecreasing integer vectors over a bounded
alphabet ("multisets") in lexicographic order.  Each multiset is turned
into a nonnegative magnitude vector by its gap encoding (first entry
minus one, then successive differences), whose entries sum to at most
the ball radius; expanding the nonzero entries over all sign choices
then produces every integer point of the ball exactly once.

The resulting total order is pinned: lexicographic multisets on the
outside, a binary sign counter on the inside (+ before -, least
significant bit at the smallest support index).  Every emitted point
carries its position in this order as an ``ordinal``, which callers use
for deterministic tie-breaking.

Iterator state is O(n); the point set is never materialized.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .counting import Real, count_l1_lattice, floor_radius
from .errors import InvalidDimensionError, OutOfBallError


class LatticePoint(NamedTuple):
    """Integer point with its l1 norm and enumeration-order position.

    A named tuple, so it compares equal to the plain ``(x, l1, ordinal)``
    tuple; the walk builds one per point, and a tuple is the cheapest
    record to build.
    """

    x: tuple[int, ...]
    l1: int
    ordinal: int


def _ball_count(n: int, rho: int) -> int:
    """Point count of the rho-ball in dimension n, extended to n = 0 and rho < 0."""
    if rho < 0:
        return 0
    if n == 0:
        return 1
    return count_l1_lattice(n, rho)


def iter_l1_points(n: int, radius: Real) -> Iterator[LatticePoint]:
    """Every integer point of the radius-scaled l1 ball, exactly once.

    Integer points of the ball only depend on floor(radius), so a radius
    below 1 yields just the origin.
    """
    if n < 1:
        raise InvalidDimensionError("dimension must be >= 1")
    rho = floor_radius(radius)
    bound = rho + 1
    ordinal = 0
    u = [1] * n
    gaps = [0] * n
    new_point = tuple.__new__
    while True:
        gaps[0] = u[0] - 1
        for i in range(1, n):
            gaps[i] = u[i] - u[i - 1]
        support = [i for i in range(n) if gaps[i]]
        norm = u[-1] - 1
        for code in range(1 << len(support)):
            x = gaps[:]
            for j, pos in enumerate(support):
                if (code >> j) & 1:
                    x[pos] = -gaps[pos]
            yield new_point(LatticePoint, (tuple(x), norm, ordinal))
            ordinal += 1
        j = n - 1
        while j >= 0 and u[j] == bound:
            j -= 1
        if j < 0:
            return
        u[j] += 1
        for i in range(j + 1, n):
            u[i] = u[j]


def canonical_ordinal(x: Sequence[int], radius: Real) -> int:
    """Position of an integer point in the enumeration order, in closed form.

    Ranks the magnitude vector among all magnitude vectors that precede
    it lexicographically (weighting each by its number of sign
    expansions, a small ball count), then adds the index of the point's
    sign pattern within its own expansion.
    """
    n = len(x)
    if n < 1:
        raise InvalidDimensionError("dimension must be >= 1")
    rho = floor_radius(radius)
    mags = [abs(int(v)) for v in x]
    if sum(mags) > rho:
        raise OutOfBallError(f"point has l1 norm {sum(mags)} > {rho}")
    rank = 0
    budget = rho
    nonzero_seen = 0
    for i, mag in enumerate(mags):
        remaining = n - i - 1
        for d in range(mag):
            weight = 1 << (nonzero_seen + (1 if d else 0))
            rank += weight * _ball_count(remaining, budget - d)
        budget -= mag
        if mag:
            nonzero_seen += 1
    support = [i for i, mag in enumerate(mags) if mag]
    sign_index = sum(1 << j for j, pos in enumerate(support) if x[pos] < 0)
    return rank + sign_index

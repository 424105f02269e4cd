"""Streaming, exactly-once enumeration of the integer points of scaled l1 balls.

The walk visits the nonnegative "magnitude" vectors whose entries sum
to at most the ball radius, in the lexicographic order of their prefix
sums (the order of the nondecreasing multisets whose gap encoding they
are: first entry minus one, then successive differences), and expands
the nonzero entries of each over all sign choices.  This produces every
integer point of the ball exactly once.

The resulting total order is pinned: lexicographic multisets on the
outside, a binary sign counter on the inside (+ before -, least
significant bit at the smallest support index).  Every emitted point
carries its position in this order as an ``ordinal``, which callers use
for deterministic tie-breaking.

Iterator state is O(n); the point set is never materialized.

:func:`point_blocks` walks the same order a block of points at a time,
for the solvers' numpy evaluator: the magnitude vectors are walked in
Python, and each block's sign expansion is done in numpy.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

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
    ordinal = 0
    new_point = tuple.__new__
    zero = [0] * n
    for support, mags in _magnitudes(n, rho):
        base = zero[:]
        for pos, mag in zip(support, mags):
            base[pos] = mag
        norm = sum(mags)
        for code in range(1 << len(support)):
            x = base[:]
            for j, pos in enumerate(support):
                if (code >> j) & 1:
                    x[pos] = -x[pos]
            yield new_point(LatticePoint, (tuple(x), norm, ordinal))
            ordinal += 1


# Cells (points times columns) per block of :func:`point_blocks`: 32 KB
# per int64 array of a block.  Peak RSS, not speed, sets it: 8,192 cells
# cost about 0.4 MB more on n = 40 solves and ran no faster.
BLOCK_CELLS = 4096


def point_blocks(n: int, rho: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The points of the rho-ball in canonical order, one block at a time.

    Each block is a pair ``(pos, val)`` of arrays of shape
    points x min(n, rho).  Row r holds the support of one point in
    ascending index order in ``pos`` (intp) and the point's signed
    entries there in ``val`` (int64), padded with index n and value 0.
    The row of a point is its ordinal minus the number of points in the
    blocks before it.  Blocks hold at most ``BLOCK_CELLS // min(n, rho)``
    points (at least one), so memory does not grow with n: a dense
    points x n block at n = 40 would be 13 times larger at radius 3.
    """
    if n < 1:
        raise InvalidDimensionError("dimension must be >= 1")
    width = min(n, rho)
    cap = max(1, BLOCK_CELLS // max(width, 1))
    pad_pos = [[n] * (width - k) for k in range(width + 1)]
    pad_val = [[0] * (width - k) for k in range(width + 1)]
    rows_pos, rows_val, firsts, counts = [], [], [], []
    total = 0
    for support, mags in _magnitudes(n, rho):
        k = len(support)
        size = 1 << k
        first = 0
        while size:
            take = min(size, cap - total)
            rows_pos.append(support + pad_pos[k])
            rows_val.append(mags + pad_val[k])
            firsts.append(first)
            counts.append(take)
            total += take
            first += take
            size -= take
            if total == cap:
                yield _expand_signs(rows_pos, rows_val, firsts, counts, width)
                rows_pos, rows_val, firsts, counts = [], [], [], []
                total = 0
    if total:
        yield _expand_signs(rows_pos, rows_val, firsts, counts, width)


def _magnitudes(n: int, rho: int):
    """``(support, mags)`` of every magnitude vector of the rho-ball, in order.

    The order is the lexicographic order of the multisets, which is that
    of the vectors' prefix sums.  The successor of a vector of norm
    below rho adds one to its last entry; otherwise its last nonzero
    entry, at index p, drops to zero and the entry at p - 1 grows by one.
    Each step costs O(1).  The two lists are updated in place.
    """
    support: list[int] = []
    mags: list[int] = []
    norm = 0
    last = n - 1
    while True:
        yield support, mags
        if norm < rho:
            norm += 1
            j = last
        elif support and support[-1] > 0:
            j = support.pop() - 1
            norm -= mags.pop() - 1
        else:
            return
        if support and support[-1] == j:
            mags[-1] += 1
        else:
            support.append(j)
            mags.append(1)


def _expand_signs(rows_pos, rows_val, firsts, counts, width):
    """Block arrays for magnitude rows, each taking ``count`` consecutive
    sign codes from ``first`` on: bit j of a code negates column j."""
    shape = (len(counts), width)
    counts = np.array(counts)
    pos = np.repeat(np.array(rows_pos, dtype=np.intp).reshape(shape), counts, axis=0)
    val = np.repeat(np.array(rows_val, dtype=np.int64).reshape(shape), counts, axis=0)
    starts = np.cumsum(counts) - counts
    codes = np.arange(len(pos)) - np.repeat(starts - np.array(firsts), counts)
    negative = ((codes[:, None] >> np.arange(width)) & 1).astype(bool)
    np.negative(val, out=val, where=negative)
    return pos, val


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

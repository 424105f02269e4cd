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

There is one walk, :func:`point_blocks`: the magnitude vectors are
walked in Python, a block of them at a time, and each block's sign
expansion is done in numpy.  The solvers' numpy evaluator reads its
blocks directly.  There is one way from a block to points,
:func:`block_tuples`, built in C (``struct`` unpacks the rows of a
dense slice of the block into tuples of Python ints):
:func:`iter_l1_points` turns its tuples into one :class:`LatticePoint`
per point, each built by one C call (``map`` of ``tuple.__new__`` over
the record class and the zipped fields), and the solvers' per-point
work, the winner of a scan included, reads its points through it.  The
point set is never materialized: a walk holds one block, at most
``BLOCK_CELLS // min(n, rho)`` points as support-indexed ``(pos, val)``
arrays, and, where its points are read, a dense points x (n + 1) int64
array of at most ``DENSE_CELLS`` cells (or one row, when n + 1 is
larger).

A walk may take a budget on the magnitude vectors, a nonnegative cost
per coordinate and a limit, and then visits only the vectors within it:
the walk is the one place that tests a budget.  A vector over it is
skipped together with the run of vectors after it that keep its entries
before its last nonzero one and that one at least as large, since none
of them costs less.  The points of such a walk are those of the ball
that pass the budget, in canonical order.

The plain walk depends on n and rho alone, so the last ball of at most
``KEPT_CELLS`` cells (1 MB) that a walk drained is kept, as one array
per field, and serves later walks of it in blocks of ``BLOCK_CELLS``
points; blocks are read-only and column-major, kept or not.  A budgeted
walk is always walked afresh, at any size: it is never kept, never
served kept, and leaves the kept ball as it was.
"""

from __future__ import annotations

import operator
import struct
from itertools import chain, count, repeat
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


def iter_l1_points(n: int, radius: Real) -> Iterator[LatticePoint]:
    """Every integer point of the radius-scaled l1 ball, exactly once.

    Integer points of the ball only depend on floor(radius), so a radius
    below 1 yields just the origin.  The points are those of
    :func:`point_blocks`, turned into records a block at a time, in C,
    from the tuples of :func:`block_tuples`.
    """
    n = operator.index(n)
    if n < 1:
        raise InvalidDimensionError("dimension must be >= 1")
    # zip stops at a block's last point before it draws an ordinal, so
    # one count runs on from block to block.
    ordinals = count()
    return chain.from_iterable(
        map(
            tuple.__new__,
            repeat(LatticePoint),
            zip(block_tuples(n, pos, val), np.abs(val).sum(axis=1).tolist(), ordinals),
        )
        for pos, val in point_blocks(n, floor_radius(radius))
    )


# Cells of the dense points x (n + 1) array that :func:`block_tuples`
# scatters a block into, a slice of it at a time (512 KB).  At n = 40 a
# whole block fits; at n = 10,000 and radius 1, a whole block of 4,096
# points would take 328 MB.
DENSE_CELLS = 1 << 16


def block_tuples(n: int, pos: np.ndarray, val: np.ndarray, step=None) -> Iterator[tuple]:
    """The points of a block of :func:`point_blocks` as tuples of length
    n, in the block's order, each entry times ``step`` when there is one
    (``tuple(map(step.__mul__, y))``, so a zero is ``step * 0``).

    Lazy: each slice of at most ``DENSE_CELLS`` cells is scattered into a
    dense int64 array with a padding column n, which ``struct`` unpacks
    row by row into tuples of Python ints, skipping the padding, only
    when the points before it are used up.  For a float step the slice is
    float64, scaled in place, and ``struct`` unpacks doubles: each entry
    is below 2^53, so it converts exactly, and each is one IEEE product,
    the float that ``step.__mul__`` gives.  The tuples are built in C, and
    Python code runs once per slice, which is one point only when n + 1
    exceeds ``DENSE_CELLS``; another step is applied by ``map``.
    """
    floats = type(step) is float
    unpack = struct.Struct(f"{n}{'d' if floats else 'q'}8x").iter_unpack
    size = max(1, DENSE_CELLS // (n + 1))

    def slices():
        for start in range(0, len(pos), size):
            rows = pos[start : start + size]
            dense = np.zeros((len(rows), n + 1), dtype=np.float64 if floats else np.int64)
            dense[np.arange(len(rows))[:, None], rows] = val[start : start + size]
            if floats:
                with np.errstate(all="ignore"):  # inf and nan, as step.__mul__ gives them
                    dense *= step
            yield unpack(dense)
            del dense  # before the next slice is built

    points = chain.from_iterable(slices())
    return points if step is None or floats else map(tuple, map(map, repeat(step.__mul__), points))


# Cells (points times columns) per block of :func:`point_blocks`: 32 KB
# per int64 array of a block.  Peak RSS, not speed, sets it: 8,192 cells
# cost about 0.4 MB more on n = 40 solves and ran no faster.
BLOCK_CELLS = 4096

# Cells of the largest ball that is kept (1 MB at 16 bytes per cell).  A
# ball at n = 12, radius 3 is 7,875 cells; one at n = 40, radius 3 is
# 265,923 and is walked afresh.
KEPT_CELLS = 1 << 16
# ((n, rho, BLOCK_CELLS), blocks) of the last small ball a walk drained.
# One tuple, replaced whole, so threads need no lock.
_kept: tuple = (None, [])


def point_blocks(n: int, rho: int, budget=None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The points of the rho-ball in canonical order, one block at a time.

    Each block is a pair ``(pos, val)`` of read-only, column-major
    arrays of shape points x min(n, rho), kept or not, so that a column
    is a contiguous row of ``pos.T`` and ``val.T``.  Row r holds the
    support of one point in ascending index order in ``pos`` (intp) and
    the point's signed entries there in ``val`` (int64), padded with
    index n and value 0.
    The row of a point is its ordinal minus the number of points in the
    blocks before it.  Blocks hold at most ``BLOCK_CELLS // min(n, rho)``
    points (at least one), so memory does not grow with n: a dense
    points x n block at n = 40 would be 13 times larger at radius 3.
    No entry leaves int64 in a walk that can run: an entry of
    magnitude m first shows up after at least m points.

    A plain walk that drains a ball of at most ``KEPT_CELLS`` cells keeps
    it, in place of the ball kept before, for later walks of it in blocks
    of ``BLOCK_CELLS`` points (a fresh block's most, at width 1); one
    that stops early keeps nothing.

    A ``budget``, the ``(costs, step, limit)`` of :func:`_magnitudes`,
    makes the walk a fresh one that holds only the points whose
    magnitude vectors are within it, in canonical order, so a row is no
    longer its ordinal; it is never kept and never served kept.
    """
    n = operator.index(n)
    if n < 1:
        raise InvalidDimensionError("dimension must be >= 1")
    width = min(n, rho)
    # A ball holds the origin and 2 * n * rho points on the axes, so this
    # bound turns a huge ball away before its count is computed.
    if budget is None and 0 < (1 + 2 * n * rho) * width <= KEPT_CELLS:
        key = (n, rho, BLOCK_CELLS)
        kept_key, blocks = _kept
        if kept_key == key:
            return iter(blocks)
        points = count_l1_lattice(n, rho)
        if points * width <= KEPT_CELLS:
            return _keep(key, (points, width), _walk(n, rho))
    return _walk(n, rho, budget)


def _keep(key, shape, walk):
    """The blocks of ``walk``, a ball of ``shape[0]`` points, kept under
    ``key`` once the walk ends, copied into one array per field."""
    global _kept
    pos, val = np.empty(shape, np.intp, order="F"), np.empty(shape, np.int64, order="F")
    start = 0
    for block in walk:
        end = start + len(block[0])
        pos[start:end], val[start:end] = block
        start = end
        yield block
    pos.flags.writeable = val.flags.writeable = False
    size = BLOCK_CELLS
    _kept = (key, [(pos[s : s + size], val[s : s + size]) for s in range(0, shape[0], size)])


def _walk(n: int, rho: int, budget=None):
    """The blocks of :func:`point_blocks`, built afresh."""
    width = min(n, rho)
    cap = max(1, BLOCK_CELLS // max(width, 1))
    pad_pos = [[n] * (width - k) for k in range(width + 1)]
    pad_val = [[0] * (width - k) for k in range(width + 1)]
    # The rows of a block, flat; each row but the first starts at sign
    # code 0, and the first starts at ``first``.
    flat_pos, flat_val, counts = [], [], []
    total = first = 0
    for support, mags in _magnitudes(n, rho, budget):
        k = len(support)
        flat_pos += support
        flat_pos += pad_pos[k]
        flat_val += mags
        flat_val += pad_val[k]
        counts.append(1 << k)
        total += 1 << k
        while total >= cap:
            # The last row fills the block; the rest of its codes, if
            # any, open the next one.
            rest = total - cap
            counts[-1] -= rest
            yield _expand_signs(flat_pos, flat_val, first, counts, width)
            first = counts[-1] + (first if len(counts) == 1 else 0)
            if rest:
                flat_pos, flat_val, counts = support + pad_pos[k], mags + pad_val[k], [rest]
            else:
                flat_pos, flat_val, counts, first = [], [], [], 0
            total = rest
    if total:
        yield _expand_signs(flat_pos, flat_val, first, counts, width)


def _magnitudes(n: int, rho: int, budget=None):
    """``(support, mags)`` of every magnitude vector of the rho-ball, in order.

    The order is the lexicographic order of the multisets, which is that
    of the vectors' prefix sums.  The successor of a vector of norm
    below rho adds one to its last entry; otherwise its last nonzero
    entry, at index p, drops to zero and the entry at p - 1 grows by one.
    Each step costs O(1).  The two lists are updated in place.

    A ``budget`` ``(costs, step, limit)`` admits only the vectors m whose
    cost, the sum of ``costs[j] * (step * m_j)`` from zero over the
    support in ascending order, is at most ``limit``.  A vector over it
    is not yielded, and the walk goes on as from a vector of norm rho:
    its last nonzero entry, at p, drops to zero and the entry at p - 1
    grows.  Every vector skipped that way keeps the entries before p and
    an m_p at least as large, so with costs of at least zero none costs
    less, in exact sums and in float sums in a fixed order alike.  The
    costs are kept as prefix sums, so each step still costs O(1).
    """
    support: list[int] = []
    mags: list[int] = []
    norm = 0
    last = n - 1
    costs, step, limit = budget or ((), 1, 0)
    sums = [0]  # the cost of the first k entries of the support, at k
    over = budget is not None and 0 > limit
    while True:
        if not over:
            yield support, mags
        if norm < rho and not over:
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
        if budget:
            del sums[len(support) :]
            sums.append(sums[-1] + costs[j] * (step * mags[-1]))
            over = sums[-1] > limit


def _expand_signs(flat_pos, flat_val, first, counts, width):
    """Block arrays for magnitude rows, given row after row in the flat
    lists, each taking ``count`` consecutive sign codes, from ``first``
    on for the first row and from 0 on for the others: bit j of a code
    negates column j.  The arrays are column-major and read-only."""
    shape = (len(counts), width)
    counts = np.array(counts)
    pos = np.repeat(np.array(flat_pos, dtype=np.intp).reshape(shape), counts, axis=0)
    val = np.repeat(np.array(flat_val, dtype=np.int64).reshape(shape), counts, axis=0)
    codes = np.arange(len(pos)) - np.repeat(np.cumsum(counts) - counts, counts)
    codes[: counts[0]] += first
    val *= 1 - 2 * ((codes[:, None] >> np.arange(width)) & 1)
    pos, val = np.asfortranarray(pos), np.asfortranarray(val)
    pos.flags.writeable = val.flags.writeable = False
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
    mags = [abs(_integer(v, i)) for i, v in enumerate(x)]
    if sum(mags) > rho:
        raise OutOfBallError(f"point has l1 norm {sum(mags)} > {rho}")
    rank = 0
    budget = rho
    nonzero_seen = 0
    for i, mag in enumerate(mags):
        remaining = n - i - 1
        for d in range(mag):
            weight = 1 << (nonzero_seen + (1 if d else 0))
            rank += weight * (count_l1_lattice(remaining, budget - d) if remaining else 1)
        budget -= mag
        if mag:
            nonzero_seen += 1
    support = [i for i, mag in enumerate(mags) if mag]
    sign_index = sum(1 << j for j, pos in enumerate(support) if x[pos] < 0)
    return rank + sign_index


def _integer(v, i: int) -> int:
    """``int(v)``, for an entry ``x[i]`` of integer value."""
    try:
        if int(v) == v:
            return int(v)
    except (ValueError, OverflowError):  # NaN, infinities
        pass
    raise ValueError(f"x[{i}] is not an integer: {v!r}")

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
for deterministic tie-breaking, and the multiset space can be split on
its first entry into independently iterable slices whose ordinal ranges
are contiguous, which is what the parallel solvers build on.

Iterator state is O(n); the point set is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

from .counting import Real, count_l1_lattice, floor_radius
from .errors import InvalidDimensionError, OutOfBallError


@dataclass(frozen=True)
class MultisetVector:
    """Nondecreasing integer vector with entries in [1, bound]."""

    values: tuple[int, ...]
    bound: int

    def __post_init__(self) -> None:
        if len(self.values) == 0 or self.bound < 1:
            raise InvalidDimensionError("multisets need length >= 1 and bound >= 1")
        prev = 1
        for v in self.values:
            if not prev <= v <= self.bound:
                raise ValueError(f"not a nondecreasing vector over [1, {self.bound}]: {self.values}")
            prev = v

    @property
    def length(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SignPattern:
    """Sign assignment over a fixed support: entries in {-1, 0, +1}."""

    signs: tuple[int, ...]
    support: tuple[int, ...]


class LatticePoint(NamedTuple):
    """Integer point with its l1 norm and enumeration-order position.

    A named tuple, so it compares equal to the plain ``(x, l1, ordinal)``
    tuple; the walk builds one per point, and a tuple is the cheapest
    record to build.
    """

    x: tuple[int, ...]
    l1: int
    ordinal: int


@dataclass(frozen=True)
class EnumerationPartition:
    """Slice of the enumeration holding every multiset with a fixed first entry.

    Slices are contiguous in the canonical order: the one with first
    entry p covers ordinals [start_ordinal, start_ordinal + num_points).
    """

    first_entry: int
    start_ordinal: int
    num_points: int


def first_multiset(length: int, bound: int) -> MultisetVector:
    """Lexicographically smallest multiset: the all-ones vector."""
    if length < 1 or bound < 1:
        raise InvalidDimensionError("multisets need length >= 1 and bound >= 1")
    return MultisetVector(values=(1,) * length, bound=bound)


def next_multiset(m: MultisetVector) -> Optional[MultisetVector]:
    """Lexicographic successor among nondecreasing vectors, or None at the end.

    This functional wrapper copies the vector and is O(length); the
    streaming iterators advance in place with amortized constant work.
    """
    u = list(m.values)
    if not _advance(u, m.bound):
        return None
    return MultisetVector(values=tuple(u), bound=m.bound)


def _advance(u: list[int], bound: int) -> bool:
    """In-place lexicographic successor; False when u was the last multiset."""
    j = len(u) - 1
    while j >= 0 and u[j] == bound:
        j -= 1
    if j < 0:
        return False
    u[j] += 1
    for i in range(j + 1, len(u)):
        u[i] = u[j]
    return True


def iter_multisets(length: int, bound: int) -> Iterator[tuple[int, ...]]:
    """All nondecreasing vectors over [1, bound] in lexicographic order."""
    if length < 1 or bound < 1:
        raise InvalidDimensionError("multisets need length >= 1 and bound >= 1")
    u = [1] * length
    while True:
        yield tuple(u)
        if not _advance(u, bound):
            return


def multiset_gaps(m: MultisetVector) -> tuple[int, ...]:
    """Gap encoding: first entry minus one, then successive differences.

    The image is a nonnegative vector whose entries sum to the last
    multiset entry minus one, hence at most bound - 1; the map is a
    bijection onto the nonnegative integer points of the (bound-1) l1
    ball, inverted by :func:`gaps_to_multiset`.
    """
    u = m.values
    return (u[0] - 1,) + tuple(u[i] - u[i - 1] for i in range(1, len(u)))


def gaps_to_multiset(gaps: Sequence[int], bound: int) -> MultisetVector:
    """Inverse of the gap encoding: shifted prefix sums."""
    if any(g < 0 for g in gaps):
        raise ValueError("gap entries must be nonnegative")
    if sum(gaps) > bound - 1:
        raise OutOfBallError(f"gap sum {sum(gaps)} exceeds bound - 1 = {bound - 1}")
    values = []
    total = 1
    for g in gaps:
        total += g
        values.append(total)
    return MultisetVector(values=tuple(values), bound=bound)


def sign_patterns(mask: Sequence[int]) -> Iterator[SignPattern]:
    """All sign assignments over the nonzero positions of a 0/1 mask.

    Order is a binary counter over the support positions in ascending
    index order: bit value 0 encodes +1 and bit value 1 encodes -1, with
    the least significant bit at the smallest support index, so the
    first pattern is all +1 and the last all -1.
    """
    support = tuple(i for i, b in enumerate(mask) if b)
    base = [0] * len(mask)
    for code in range(1 << len(support)):
        signs = base[:]
        for j, pos in enumerate(support):
            signs[pos] = -1 if (code >> j) & 1 else 1
        yield SignPattern(signs=tuple(signs), support=support)


def _ball_count(n: int, rho: int) -> int:
    """Point count of the rho-ball in dimension n, extended to n = 0 and rho < 0."""
    if rho < 0:
        return 0
    if n == 0:
        return 1
    return count_l1_lattice(n, rho)


def enumeration_partitions(n: int, radius: Real) -> list[EnumerationPartition]:
    """First-entry slices of the enumeration with their ordinal ranges.

    There is one slice per first entry p in [1, floor(radius) + 1]; its
    size is counted in closed form, so partitioning costs no enumeration.
    """
    if n < 1:
        raise InvalidDimensionError("dimension must be >= 1")
    rho = floor_radius(radius)
    bound = rho + 1
    partitions = []
    start = 0
    for p in range(1, bound + 1):
        # Slices with first entry p hold the magnitude vectors whose
        # leading entry is p - 1; the sign of that entry doubles the
        # count whenever p > 1.
        size = (2 if p > 1 else 1) * _ball_count(n - 1, bound - p)
        partitions.append(EnumerationPartition(first_entry=p, start_ordinal=start, num_points=size))
        start += size
    return partitions


def iter_l1_points(
    n: int,
    radius: Real,
    partition: Optional[EnumerationPartition] = None,
) -> Iterator[LatticePoint]:
    """Every integer point of the radius-scaled l1 ball, exactly once.

    Integer points of the ball only depend on floor(radius), so a radius
    below 1 yields just the origin.  With a ``partition`` argument only
    that first-entry slice is walked, and ordinals stay globally valid.
    """
    if n < 1:
        raise InvalidDimensionError("dimension must be >= 1")
    rho = floor_radius(radius)
    bound = rho + 1
    if partition is None:
        first = 1
        ordinal = 0
    else:
        first = partition.first_entry
        ordinal = partition.start_ordinal
    u = [first] * n
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
        if j < 0 or (partition is not None and j == 0):
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

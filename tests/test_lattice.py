import math
import tracemalloc
from fractions import Fraction
from itertools import islice, zip_longest
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1opt import lattice
from l1opt.errors import InvalidDimensionError, OutOfBallError
from l1opt.lattice import LatticePoint, canonical_ordinal, iter_l1_points
from oracles import ball_points_brute, nonneg_ball_count_brute, reference_l1_points


def test_iter_points_small_examples():
    assert [p.x for p in iter_l1_points(2, 0.9)] == [(0, 0)]
    points = [p.x for p in iter_l1_points(2, 1)]
    assert points == [(0, 0), (0, 1), (0, -1), (1, 0), (-1, 0)]
    assert len(list(iter_l1_points(3, 2))) == 25


def test_points_are_named_tuples():
    points = list(iter_l1_points(2, 1))
    assert all(isinstance(p, LatticePoint) for p in points)
    assert points[2] == ((0, -1), 1, 2)
    assert points[2] == LatticePoint(x=(0, -1), l1=1, ordinal=2)
    assert [tuple(p) for p in points] == [(p.x, p.l1, p.ordinal) for p in points]


def test_iter_points_rejects_dimension_zero():
    with pytest.raises(InvalidDimensionError):
        list(iter_l1_points(0, 1))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("lam", [0, 0.5, 1, 2, 3])
def test_exactly_once_against_box_scan(n, lam):
    points = [p.x for p in iter_l1_points(n, lam)]
    assert len(points) == len(set(points))
    assert set(points) == ball_points_brute(n, lam)


@pytest.mark.parametrize("n,lam", [(2, 3), (3, 2), (4, 2), (5, 1)])
def test_point_invariants(n, lam):
    rho = int(math.floor(lam))
    for i, p in enumerate(iter_l1_points(n, lam)):
        assert p.l1 == sum(abs(v) for v in p.x)
        assert p.l1 <= rho
        assert p.ordinal == i
    # Nonnegative points (one per multiset) match the stars-and-bars count.
    nonneg = [p.x for p in iter_l1_points(n, lam) if all(v >= 0 for v in p.x)]
    assert len(nonneg) == math.comb(n + rho, rho)
    assert len(nonneg) == nonneg_ball_count_brute(n, rho)


def test_determinism_two_runs():
    first = list(iter_l1_points(4, 3))
    second = list(iter_l1_points(4, 3))
    assert first == second


def test_canonical_ordinal_examples():
    for n, lam in [(1, 0), (2, 1), (3, 2), (5, 3)]:
        assert canonical_ordinal((0,) * n, lam) == 0
    ordinals = [canonical_ordinal(p.x, 1) for p in iter_l1_points(2, 1)]
    assert ordinals == [0, 1, 2, 3, 4]


def test_canonical_ordinal_replays_stream():
    for p in iter_l1_points(3, 3):
        assert canonical_ordinal(p.x, 3) == p.ordinal


def test_canonical_ordinal_out_of_ball():
    with pytest.raises(OutOfBallError):
        canonical_ordinal((2, 0), 1)


def test_non_integer_radius_floors():
    assert [p.x for p in iter_l1_points(2, 1.99)] == [p.x for p in iter_l1_points(2, 1)]
    assert len(list(iter_l1_points(3, 0))) == 1


def assert_same_walk(walk, reference):
    """Element for element, with the exact record and field types."""
    count = 0
    for got, want in zip_longest(walk, reference):
        assert got == want
        assert type(got) is LatticePoint and type(got.x) is tuple
        assert all(type(v) is int for v in got.x)
        assert type(got.l1) is int and type(got.ordinal) is int
        count += 1
    return count


def walk_settings(block_cells, dense_cells):
    return mock.patch.multiple(lattice, BLOCK_CELLS=block_cells, DENSE_CELLS=dense_cells)


RADII = st.one_of(
    st.integers(0, 6),
    st.fractions(min_value=0, max_value=Fraction(48, 7), max_denominator=7),
    st.floats(min_value=0, max_value=6.99),
)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 12),
    radius=RADII,
    block_cells=st.sampled_from([1, 2, 3, 7, 40, lattice.BLOCK_CELLS]),
    dense_cells=st.sampled_from([1, 5, 64, lattice.DENSE_CELLS]),
)
def test_walk_matches_the_reference_walk(n, radius, block_cells, dense_cells):
    # Small blocks split a walk, and a sign expansion, at many places;
    # the prefix bound keeps those walks short.  Small balls are
    # compared whole, so the last, partial block is covered too.
    limit = min(50 * block_cells, 30_000)
    with walk_settings(block_cells, dense_cells):
        assert_same_walk(
            islice(iter_l1_points(n, radius), limit),
            islice(reference_l1_points(n, radius), limit),
        )


@pytest.mark.parametrize("block_cells", [7, lattice.BLOCK_CELLS])
@pytest.mark.parametrize(
    "n, radius",
    [(100, 10**30), (1, 10**40), (3, Fraction(10**30, 7)), (70, 70), (64, 200), (64, 64.5)],
)
def test_walk_prefixes_of_huge_balls_match_the_reference(n, radius, block_cells):
    with walk_settings(block_cells, lattice.DENSE_CELLS):
        count = assert_same_walk(
            islice(iter_l1_points(n, radius), 3000),
            islice(reference_l1_points(n, radius), 3000),
        )
    assert count == 3000


def test_walk_is_lazy():
    # The ball holds about 10^2400 points: the first one must come from
    # the first block, not from a walk over the rest.
    drawn = 0
    magnitudes = lattice._magnitudes

    def counted(n, rho):
        nonlocal drawn
        for vector in magnitudes(n, rho):
            drawn += 1
            yield vector

    with mock.patch.object(lattice, "_magnitudes", counted):
        walk = iter_l1_points(100, 10**30)
        assert next(walk) == ((0,) * 100, 0, 0)
    assert drawn <= lattice.BLOCK_CELLS


def test_walk_memory_does_not_grow_with_the_block():
    # At n = 2,000 and radius 1 a whole block of 4,096 points as a dense
    # int64 array would take 65 MB; the walk scatters slices of
    # DENSE_CELLS cells (512 KB) instead.
    tracemalloc.start()
    try:
        assert next(iter_l1_points(2000, 1)).x == (0,) * 2000
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * lattice.DENSE_CELLS

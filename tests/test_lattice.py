import math
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import islice, zip_longest
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l1opt import lattice
from l1opt.errors import InvalidDimensionError, OutOfBallError
from l1opt.lattice import LatticePoint, canonical_ordinal, iter_l1_points
from l1opt.solver import ProblemInstance, solve_l1_ip
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


GRID_STEPS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.1, -0.3, 1e300, 5e-324, -0.0]),
    st.fractions(max_denominator=7),
    st.floats(min_value=-2, max_value=2).map(np.float64),
    st.integers(-3, 3),
)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(1, 9),
    rho=st.integers(0, 5),
    step=GRID_STEPS,
    dense_cells=st.sampled_from([1, 2, 5, 64, lattice.DENSE_CELLS]),
)
def test_grid_points_are_the_map_of_the_step(n, rho, step, dense_cells):
    # A float step scales the dense slice in numpy and unpacks doubles;
    # every other step multiplies entry by entry.  Both must print as
    # tuple(map(step.__mul__, y)) does: the same floats, signed zeros,
    # infinities and NaNs, and the same types.  DENSE_CELLS below n + 1
    # gives slices of one point.
    with walk_settings(lattice.BLOCK_CELLS, dense_cells):
        for pos, val in lattice.point_blocks(n, rho):
            got = list(lattice.block_tuples(n, pos, val, step))
            expected = [tuple(map(step.__mul__, y)) for y in lattice.block_tuples(n, pos, val)]
            assert repr(got) == repr(expected)


def test_walk_is_lazy():
    # The ball holds about 10^2400 points: the first one must come from
    # the first block, not from a walk over the rest.
    lattice._kept = (None, [])
    drawn = 0
    magnitudes = lattice._magnitudes

    def counted(*args):
        nonlocal drawn
        for vector in magnitudes(*args):
            drawn += 1
            yield vector

    with mock.patch.object(lattice, "_magnitudes", counted):
        walk = iter_l1_points(100, 10**30)
        assert next(walk) == ((0,) * 100, 0, 0)
    assert drawn <= lattice.BLOCK_CELLS


def test_walk_memory_does_not_grow_with_the_block():
    # At n = 2,000 and radius 1 a whole block of 4,096 points as a dense
    # int64 array would take 65 MB; the walk scatters slices of
    # DENSE_CELLS cells (512 KB) instead, and so does a scan that calls
    # a wrapped objective once per point.
    problem = ProblemInstance(2000, lambda x: x[0], lambda x: ())
    for walk in (
        lambda: next(iter_l1_points(2000, 1)).x == (0,) * 2000,
        lambda: solve_l1_ip(problem, 1).x == (-1,) + (0,) * 1999,
    ):
        tracemalloc.start()
        try:
            assert walk()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * lattice.DENSE_CELLS


def test_a_dimension_is_read_as_an_integer():
    for walk in (iter_l1_points, lattice.point_blocks):
        for n in (2.0, 2.5):
            with pytest.raises(TypeError):
                walk(n, 1)
    lattice._kept = (None, [])
    assert [p.x for p in iter_l1_points(True, 1)] == [(0,), (1,), (-1,)]
    assert len(list(lattice.point_blocks(True, 1))) == 1
    assert lattice._kept[0] == (1, 1, lattice.BLOCK_CELLS)
    assert type(lattice._kept[0][0]) is int


def test_canonical_ordinal_of_integral_values():
    for two in (2, 2.0, np.int64(2), Fraction(2)):
        assert canonical_ordinal((two, 0), 2) == canonical_ordinal((2, 0), 2)
        assert canonical_ordinal((0, -two), 2) == canonical_ordinal((0, -2), 2)


@pytest.mark.parametrize("entry", [1.7, -0.5, math.nan, math.inf, -math.inf, Fraction(1, 2)])
def test_canonical_ordinal_rejects_non_integral_entries(entry):
    with pytest.raises(ValueError, match=r"x\[1\]"):
        canonical_ordinal((0, entry), 2)


def same_points(got, want):
    """The blocks ``got`` hold the points of ``want`` in the same order:
    their concatenations agree in dtype, shape and values."""
    for field in (0, 1):
        a = np.concatenate([block[field] for block in got])
        b = np.concatenate([block[field] for block in want])
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)


def assert_block_bounds(blocks, n, rho, kept):
    """A fresh walk's blocks hold ``BLOCK_CELLS // min(n, rho)`` points
    (at least one), all but the last exactly; a kept ball's hold
    ``BLOCK_CELLS`` points, all but the last exactly."""
    cap = lattice.BLOCK_CELLS if kept else max(1, lattice.BLOCK_CELLS // max(min(n, rho), 1))
    sizes = [len(pos) for pos, _ in blocks]
    assert all(size == cap for size in sizes[:-1]) and 0 < sizes[-1] <= cap


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    radius=st.integers(0, 5),
    block_cells=st.sampled_from([1, 3, 7, 40, lattice.BLOCK_CELLS]),
)
def test_kept_walks_match_the_reference_walk(n, radius, block_cells):
    with walk_settings(block_cells, lattice.DENSE_CELLS):
        lattice._kept = (None, [])
        for _ in ("cold", "hot"):
            assert_same_walk(iter_l1_points(n, radius), reference_l1_points(n, radius))
        lattice._kept = (None, [])
        cold = list(lattice.point_blocks(n, radius))
        kept = lattice._kept[0] is not None
        hot = list(lattice.point_blocks(n, radius))
        fresh = list(lattice._walk(n, radius))
        same_points(cold, fresh)
        same_points(hot, fresh)
        assert_block_bounds(cold, n, radius, kept=False)
        assert_block_bounds(hot, n, radius, kept=kept)


def test_blocks_are_read_only():
    lattice._kept = (None, [])
    for _ in ("cold", "hot"):
        for pos, val in lattice.point_blocks(3, 2):
            with pytest.raises(ValueError):
                val[0, 0] = 5
            with pytest.raises(ValueError):
                pos[0, 0] = 0
    assert lattice._kept[0] == (3, 2, lattice.BLOCK_CELLS)


@pytest.mark.parametrize(
    "n, radius, kept", [(3, 0, False), (3, 2, True), (4, 3, True), (12, 3, True), (40, 3, False)]
)
def test_blocks_are_column_major_and_read_only(n, radius, kept):
    # The block kernel reads each support column as a contiguous row of
    # pos.T and val.T.  The second walk of a small ball is served from its
    # kept blocks, as one block when the ball holds at most BLOCK_CELLS
    # points, such as the (12, 3) ball of 2,625 points, two blocks when
    # walked afresh.  The origin alone (width 0) and the ball at (40, 3)
    # are not kept and are walked afresh both times.
    lattice._kept = (None, [])
    counts = []
    for _ in ("fresh", "kept"):
        walk = list(lattice.point_blocks(n, radius))
        counts.append(len(walk))
        for pos, val in walk:
            for array in (pos, val):
                assert array.flags.f_contiguous and not array.flags.writeable
                assert array.shape[1] == min(n, radius)
    fresh = len(list(lattice._walk(n, radius)))
    assert counts == [fresh, 1 if kept else fresh]
    assert lattice._kept[0] == ((n, radius, lattice.BLOCK_CELLS) if kept else None)


def test_a_kept_ball_of_many_blocks_is_cut_from_one_array():
    # The (2, 100) ball holds 20,201 points of 2 cells: 10 fresh blocks of
    # 2,048 points, and 5 kept ones of BLOCK_CELLS points, row ranges of
    # one read-only array per field, so each column is still contiguous.
    lattice._kept = (None, [])
    fresh = list(lattice.point_blocks(2, 100))
    kept = list(lattice.point_blocks(2, 100))
    assert_block_bounds(fresh, 2, 100, kept=False)
    assert_block_bounds(kept, 2, 100, kept=True)
    assert (len(fresh), len(kept)) == (10, 5)
    same_points(kept, fresh)
    for field in (0, 1):
        whole = kept[0][field].base
        assert whole.shape == (20_201, 2) and whole.flags.f_contiguous
        assert not whole.flags.writeable
        for block in kept:
            array = block[field]
            assert array.base is whole and not array.flags.writeable
            assert array.strides[0] == array.itemsize


def test_a_walk_that_stops_early_keeps_nothing():
    lattice._kept = (None, [])
    assert len(list(islice(iter_l1_points(4, 3), 128))) == 128
    walk = lattice.point_blocks(4, 3)
    next(walk)
    walk.close()
    for _ in lattice.point_blocks(4, 3):
        break
    assert lattice._kept[0] is None
    assert len(list(iter_l1_points(4, 3))) == 129
    assert lattice._kept[0] == (4, 3, lattice.BLOCK_CELLS)


def test_a_large_ball_is_never_kept():
    # The bound of 1 + 2 * n * rho points admits (40, 3); its count,
    # 88,641 points of 3 cells, turns it away before a block is held.
    lattice._kept = (None, [])
    refuse = mock.Mock(side_effect=AssertionError("a large ball is held"))
    with mock.patch.object(lattice, "_keep", refuse):
        assert sum(len(pos) for pos, _ in lattice.point_blocks(40, 3)) == 88_641
    assert lattice._kept[0] is None


def test_admission_computes_no_point_count():
    refuse = mock.Mock(side_effect=AssertionError("no count, no wrapper"))
    with mock.patch.multiple(lattice, count_l1_lattice=refuse, _keep=refuse):
        pos, val = next(lattice.point_blocks(10**4, 10**4))
    assert pos.shape == (1, 10**4) and not val.any()


def kept_cells():
    return sum(pos.size for pos, _ in lattice._kept[1])


def test_the_last_small_ball_drained_is_kept():
    lattice._kept = (None, [])
    for n in range(1, 9):
        for rho in range(1, 6):
            list(lattice.point_blocks(n, rho))
            assert lattice._kept[0] == (n, rho, lattice.BLOCK_CELLS)
            assert kept_cells() <= lattice.KEPT_CELLS
    list(lattice.point_blocks(12, 3))
    assert lattice._kept[0] == (12, 3, lattice.BLOCK_CELLS)
    assert kept_cells() == 7875
    # Neither a ball too large to keep nor a walk that stops early
    # replaces the kept ball.
    list(lattice.point_blocks(40, 3))
    next(lattice.point_blocks(6, 3))
    assert lattice._kept[0] == (12, 3, lattice.BLOCK_CELLS)


def test_threads_that_replace_the_kept_ball_walk_balls_whole():
    # With no lock, a thread may find its ball kept, replaced or being
    # stored by another thread.
    balls = [(12, 3), (8, 4), (6, 5), (9, 4), (7, 4), (10, 3)]
    want = {ball: list(lattice._walk(*ball)) for ball in balls}
    errors = []

    def walk(offset):
        try:
            for i in range(24):
                ball = balls[(i + offset) % len(balls)]
                same_points(list(lattice.point_blocks(*ball)), want[ball])
        except Exception as exc:
            errors.append(exc)

    lattice._kept = (None, [])
    threads = [threading.Thread(target=walk, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    key, blocks = lattice._kept
    assert kept_cells() <= lattice.KEPT_CELLS
    same_points(blocks, want[key[:2]])
    assert_block_bounds(blocks, *key[:2], kept=True)

import math

import pytest

from l1opt.counting import count_l1_lattice
from l1opt.errors import InvalidDimensionError, OutOfBallError
from l1opt.lattice import (
    LatticePoint,
    MultisetVector,
    canonical_ordinal,
    enumeration_partitions,
    first_multiset,
    gaps_to_multiset,
    iter_l1_points,
    iter_multisets,
    multiset_gaps,
    next_multiset,
    sign_patterns,
)
from oracles import ball_points_brute, nonneg_ball_count_brute


def test_first_multiset():
    assert first_multiset(3, 2).values == (1, 1, 1)
    assert first_multiset(1, 5).values == (1,)
    assert first_multiset(2, 3).values == (1, 1)


def test_first_multiset_rejects_empty():
    with pytest.raises(InvalidDimensionError):
        first_multiset(0, 3)
    with pytest.raises(InvalidDimensionError):
        first_multiset(3, 0)


def test_next_multiset_examples():
    assert next_multiset(MultisetVector((1, 1), 3)).values == (1, 2)
    assert next_multiset(MultisetVector((3, 3), 3)) is None
    assert list(iter_multisets(2, 2)) == [(1, 1), (1, 2), (2, 2)]


@pytest.mark.parametrize("k,bound", [(1, 1), (2, 3), (3, 2), (4, 4), (5, 3)])
def test_multiset_count_matches_binomial(k, bound):
    generated = list(iter_multisets(k, bound))
    assert len(generated) == math.comb(bound + k - 1, k)
    assert len(set(generated)) == len(generated)
    assert generated == sorted(generated)


def test_gaps_examples():
    assert multiset_gaps(MultisetVector((1, 1, 1), 2)) == (0, 0, 0)
    gaps = multiset_gaps(MultisetVector((2, 2, 4), 4))
    assert gaps == (1, 0, 2)
    assert sum(gaps) == 4 - 1
    assert multiset_gaps(MultisetVector((3, 3), 3)) == (2, 0)


def test_gaps_inverse_examples():
    assert gaps_to_multiset((0, 0, 0), 2).values == (1, 1, 1)
    assert gaps_to_multiset((1, 0, 2), 4).values == (2, 2, 4)
    with pytest.raises(OutOfBallError):
        gaps_to_multiset((2, 2), 3)


def test_gaps_roundtrip_all_small_multisets():
    for k in range(1, 6):
        for bound in range(1, 6):
            for values in iter_multisets(k, bound):
                m = MultisetVector(values, bound)
                gaps = multiset_gaps(m)
                assert all(g >= 0 for g in gaps)
                assert sum(gaps) <= bound - 1
                assert gaps_to_multiset(gaps, bound) == m


def test_gaps_inverse_roundtrip_over_ball():
    # Every nonnegative vector of the 3-ball in dimension 4 (35 of them)
    # round-trips through the multiset encoding.
    import itertools

    vectors = [
        v
        for v in itertools.product(range(4), repeat=4)
        if sum(v) <= 3
    ]
    assert len(vectors) == 35
    for v in vectors:
        assert multiset_gaps(gaps_to_multiset(v, 4)) == v


def test_sign_patterns_order():
    assert [p.signs for p in sign_patterns((0, 0))] == [(0, 0)]
    assert [p.signs for p in sign_patterns((1, 0))] == [(1, 0), (-1, 0)]
    assert [p.signs for p in sign_patterns((1, 1))] == [
        (1, 1),
        (-1, 1),
        (1, -1),
        (-1, -1),
    ]


def test_sign_patterns_support_and_count():
    patterns = list(sign_patterns((1, 0, 1, 1)))
    assert len(patterns) == 8
    for p in patterns:
        assert p.support == (0, 2, 3)
        assert all((s != 0) == (i in p.support) for i, s in enumerate(p.signs))


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


@pytest.mark.parametrize("n,lam", [(1, 2), (2, 2), (3, 3), (4, 1)])
def test_partitions_are_contiguous_and_complete(n, lam):
    full = list(iter_l1_points(n, lam))
    partitions = enumeration_partitions(n, lam)
    assert partitions[0].start_ordinal == 0
    merged = []
    for part in partitions:
        chunk = list(iter_l1_points(n, lam, part))
        assert len(chunk) == part.num_points
        assert [p.ordinal for p in chunk] == list(
            range(part.start_ordinal, part.start_ordinal + part.num_points)
        )
        merged.extend(chunk)
    assert merged == full
    assert sum(part.num_points for part in partitions) == count_l1_lattice(n, lam)


def test_non_integer_radius_floors():
    assert [p.x for p in iter_l1_points(2, 1.99)] == [p.x for p in iter_l1_points(2, 1)]
    assert len(list(iter_l1_points(3, 0))) == 1

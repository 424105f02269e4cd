import math

import pytest

from l1opt.errors import InvalidDimensionError, OutOfBallError
from l1opt.lattice import LatticePoint, canonical_ordinal, iter_l1_points
from oracles import ball_points_brute, nonneg_ball_count_brute


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

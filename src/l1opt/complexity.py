"""A-priori oracle-complexity bounds for integer programs over convex regions.

Given a bounded convex relaxation C = {x : g(x) <= 0} that a backend
can optimize linear objectives over, the estimator computes nonnegative
per-coordinate ranges [-l, u] enclosing C, then one lifted solve over
split variables (s, t) with x = s - t that yields an l1 radius rho such
that every integer point of C lies in the rho-ball.  The exhaustive
ball solver therefore needs at most n^(((2+slack)*rho)^2/2 + 1) oracle
steps (n^(4*rho^2 + 1) simplified), which is the returned bound.

Exactly 2n + 1 backend solves are issued per estimate: the 2n
coordinate directions in one ``maximize_all`` call, which a backend may
answer together (``LinearRegionBackend`` guides their LPs as one float
stack), then the lifted solve.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .counting import BigBound, DEFAULT_SLACK, Real, oracle_complexity_bound
from .errors import InvalidDimensionError, RegionInfeasibleError, RegionUnboundedError
from .lp import INFEASIBLE, UNBOUNDED, _leq_rows, _optima, exact_rationals, lp_optimum

# Guards against a float backend reporting 1.9999999996 for an exactly
# integral maximum; exact backends are floored without it.
FLOAT_FLOOR_GUARD = 1e-9


class ConvexOptBackend(ABC):
    """Linear optimization over a convex region and its lifted split form.

    ``maximize(direction)`` optimizes over C itself (direction has n
    entries).  ``maximize(direction, lifted_bounds=(s_upper, t_upper))``
    optimizes over {g(s - t) <= 0, 0 <= s <= s_upper, 0 <= t <= t_upper}
    with direction over the 2n entries (s, t).  ``maximize_all(directions)``
    is ``maximize`` over C for each direction, in order; by default it
    calls ``maximize`` once per direction.  Implementations raise
    :class:`RegionInfeasibleError` when C is empty and
    :class:`RegionUnboundedError` when the objective is unbounded.
    """

    @abstractmethod
    def maximize(
        self,
        direction: Sequence,
        lifted_bounds: Optional[tuple[Sequence, Sequence]] = None,
    ) -> tuple[Real, tuple]:
        """Return (optimal value, maximizer)."""

    def maximize_all(self, directions: Sequence[Sequence]) -> list[tuple[Real, tuple]]:
        """``[self.maximize(d) for d in directions]``, over C itself.  A
        backend may override it to solve the directions together."""
        return [self.maximize(direction) for direction in directions]


class LinearRegionBackend(ConvexOptBackend):
    """Built-in backend for linear regions {x : A x <= b}, exact arithmetic.

    Each solve has the result of :func:`l1opt.lp.lp_optimum`: the optimal
    value is exact and the maximizer is an exact optimal point, which at
    a tie need not be the vertex ``lp_solve`` would pick.  The first solve
    over C builds the constraint part of its integer ≤-form, and later
    ones swap only the cost.  ``maximize_all`` prices one form per
    direction and runs their float guides as one stack (``lp._optima``);
    it returns ``[maximize(d) for d in directions]`` and raises the same
    error after the same ``lp_calls``, but it reads every direction
    first, so a non-finite one raises before any solve.  The lifted solve
    runs once per estimate and builds its own form.  ``lp_calls`` counts
    the solves, ``certified_solves`` those answered by a certified guide
    basis and ``fallback_pivots`` the exact simplex pivots of the others.
    Infinite or NaN entries of A or b raise ``ValueError``.
    """

    def __init__(self, A: Sequence[Sequence], b: Sequence):
        self.A = [exact_rationals(row, f"LinearRegionBackend: A[{i}]") for i, row in enumerate(A)]
        self.b = exact_rationals(b, "LinearRegionBackend: b")
        self.n = len(self.A[0]) if self.A else 0
        self._rows = None  # the constraint part of the ≤-form, built on the first call
        self.lp_calls = 0
        self.certified_solves = 0
        self.fallback_pivots = 0

    def maximize(self, direction, lifted_bounds=None):
        if lifted_bounds is None:
            return self.maximize_all([direction])[0]
        s_upper, t_upper = lifted_bounds
        n = self.n
        rows = [list(row) + [-v for v in row] for row in self.A]
        return self._answer(
            lp_optimum(
                direction,
                rows,
                self.b,
                sense="max",
                lower=[0] * (2 * n),
                upper=list(s_upper) + list(t_upper),
            )
        )

    def maximize_all(self, directions):
        forms = []
        # Named as lp_optimum names its input, so errors read the same.
        for cost in [exact_rationals(direction, "lp_optimum: c") for direction in directions]:
            if self._rows is None or len(self._rows.subs) != len(cost):
                self._rows = _leq_rows("lp_optimum", self.A, self.b, len(cost), None, None)
            forms.append(self._rows.priced(cost, maximize=True))
        return [self._answer(result) for result in _optima(forms)]

    def _answer(self, result):
        self.lp_calls += 1
        self.certified_solves += result.certified
        self.fallback_pivots += result.pivots
        if result.status == INFEASIBLE:
            raise RegionInfeasibleError("the region {x : Ax <= b} is empty")
        if result.status == UNBOUNDED:
            raise RegionUnboundedError("the region {x : Ax <= b} is unbounded")
        return result.value, result.x


@dataclass(frozen=True)
class BoundReport:
    """Coordinate ranges, covering radius, and the resulting complexity bound.

    ``certified_solves`` and ``fallback_pivots`` count what the estimate's
    solves did on a :class:`LinearRegionBackend` (solves answered by a
    certified guide basis, and exact simplex pivots of the others); they
    are None for any other backend.
    """

    l: tuple
    u: tuple
    rho: int
    bound: BigBound
    slack: float
    simplified: bool
    backend_calls: int
    certified_solves: Optional[int] = None
    fallback_pivots: Optional[int] = None


@dataclass(frozen=True)
class CoverCheck:
    passed: bool
    counterexample: Optional[tuple[int, ...]]
    points_checked: int
    exhaustive: bool
    note: str


def estimate_bound(
    backend: ConvexOptBackend,
    n: int,
    slack: Real = DEFAULT_SLACK,
    simplified: bool = True,
) -> BoundReport:
    """Compute the covering radius and oracle-complexity bound for a region.

    Issues 2n coordinate solves (max and min of each x_i over C, both
    clamped toward zero so the ranges always contain the origin's side)
    as one ``maximize_all`` call, in the order e_1, -e_1, e_2, ..., then
    one lifted solve whose floor is the radius rho.

    Dimension 1 is rejected: n^exponent collapses to 1 there and would
    understate the true enumeration cost, matching the bound-formula
    precondition in :mod:`l1opt.counting`.
    """
    if n < 2:
        raise InvalidDimensionError("bound estimation requires dimension >= 2")
    linear = isinstance(backend, LinearRegionBackend)
    if linear:
        certified, pivots = backend.certified_solves, backend.fallback_pivots
    directions = []
    for i in range(n):
        for sign in (1, -1):
            direction = [0] * n
            direction[i] = sign
            directions.append(direction)
    values = [value for value, _ in backend.maximize_all(directions)]
    l = []
    u = []
    for high, neg_low in zip(values[::2], values[1::2]):
        low = -neg_low
        l.append(max(-low, _zero_like(low)))
        u.append(max(high, _zero_like(high)))
    value, _ = backend.maximize([1] * (2 * n), lifted_bounds=(u, l))
    rho = _floor_backend_value(value)
    bound = oracle_complexity_bound(n, rho, slack, simplified)
    return BoundReport(
        l=tuple(l),
        u=tuple(u),
        rho=rho,
        bound=bound,
        slack=float(slack),
        simplified=simplified,
        backend_calls=len(directions) + 1,
        certified_solves=backend.certified_solves - certified if linear else None,
        fallback_pivots=backend.fallback_pivots - pivots if linear else None,
    )


def verify_cover(
    report: BoundReport,
    feasible: Callable[[tuple[int, ...]], bool],
    budget: int = 200_000,
    seed: int = 0,
) -> CoverCheck:
    """Check that every feasible integer point of [-l, u] lies in the rho-ball.

    Enumerates the box exhaustively when it fits in the budget;
    otherwise samples uniformly and reports the weaker guarantee in the
    note.  Returns the first counterexample found, if any.
    """
    ranges = [
        range(-_floor_backend_value(li), _floor_backend_value(ui) + 1)
        for li, ui in zip(report.l, report.u)
    ]
    total = 1
    for r in ranges:
        total *= len(r)
    checked = 0
    if total <= budget:
        for x in itertools.product(*ranges):
            checked += 1
            if feasible(x) and sum(abs(v) for v in x) > report.rho:
                return CoverCheck(False, x, checked, True, "exhaustive")
        return CoverCheck(True, None, checked, True, "exhaustive")
    rng = np.random.default_rng(seed)
    for _ in range(budget):
        x = tuple(int(rng.integers(r.start, r.stop)) for r in ranges)
        checked += 1
        if feasible(x) and sum(abs(v) for v in x) > report.rho:
            return CoverCheck(False, x, checked, False, "sampled")
    return CoverCheck(
        True,
        None,
        checked,
        False,
        f"sampled {budget} of {total} box points; pass is probabilistic",
    )


def _floor_backend_value(value: Real) -> int:
    if isinstance(value, Fraction):
        return value.numerator // value.denominator
    if isinstance(value, int):
        return value
    return int(math.floor(float(value) + FLOAT_FLOOR_GUARD))


def _zero_like(value: Real):
    return Fraction(0) if isinstance(value, Fraction) else 0

"""Solvers, counts, and complexity bounds for optimization under an L1 constraint.

The toolkit is organized around one primitive: a streaming, exactly-once
enumeration of the integer points of a scaled l1 ball in a pinned
canonical order (:mod:`l1opt.lattice`).  On top of it sit exact counts
and covering-style bound formulas (:mod:`l1opt.counting`), an
exhaustive exact solver for l1-constrained integer programs with
optional positive weights (:mod:`l1opt.solver`), an a-priori
oracle-complexity estimator for integer programs over bounded convex
regions (:mod:`l1opt.complexity`), and an additive approximation scheme
for Lipschitz problems plus a mixed integer/continuous decomposition
(:mod:`l1opt.ptas`).
"""

from .complexity import (
    BoundReport,
    ConvexOptBackend,
    CoverCheck,
    LinearRegionBackend,
    estimate_bound,
    verify_cover,
)
from .counting import (
    BigBound,
    count_l1_lattice,
    count_linf_lattice,
    estimate_gaussian_width,
    gaussian_width_bound,
    l1_count_lower_bound,
    l1_count_upper_bound,
    oracle_complexity_bound,
)
from .errors import (
    InnerSolverError,
    InvalidDimensionError,
    InvalidWeightsError,
    OutOfBallError,
    ProblemFileError,
    RegionInfeasibleError,
    RegionUnboundedError,
    ShapeMismatchError,
)
from .lattice import LatticePoint, canonical_ordinal, iter_l1_points
from .lp import LPResult, lp_optimum, lp_solve
from .ptas import (
    ApproxSolution,
    InnerSolution,
    LipschitzProblem,
    MixedProblem,
    MixedSolution,
    grid_radius,
    linear_lipschitz_constant,
    linear_mixed_inner_solver,
    quadratic_lipschitz_constant,
    solve_lipschitz_ptas,
    solve_mixed_integer,
    solve_weighted_lipschitz_ptas,
)
from .solver import (
    ProblemInstance,
    QuadraticConstraint,
    Solution,
    SolveOptions,
    WeightedL1Spec,
    make_linear_oracle,
    make_quadratic_oracle,
    solve_l1_ip,
    solve_weighted_l1_ip,
)

__version__ = "0.1.0"

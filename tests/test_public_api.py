import types

import l1opt

# Every name a user can import from l1opt.  Reference paths that only the
# tests call (brute-force solvers, l2 counts, covering formulas, the
# fine-grid reference, the Lipschitz sampler) live in tests/oracles.py.
PUBLIC_NAMES = [
    "ApproxSolution",
    "BigBound",
    "BoundReport",
    "ConvexOptBackend",
    "CoverCheck",
    "InnerSolution",
    "InnerSolverError",
    "InvalidDimensionError",
    "InvalidWeightsError",
    "LPResult",
    "LatticePoint",
    "LinearRegionBackend",
    "LipschitzProblem",
    "MixedProblem",
    "MixedSolution",
    "OutOfBallError",
    "ProblemFileError",
    "ProblemInstance",
    "QuadraticConstraint",
    "RegionInfeasibleError",
    "RegionUnboundedError",
    "ShapeMismatchError",
    "Solution",
    "SolveOptions",
    "WeightedL1Spec",
    "canonical_ordinal",
    "count_l1_lattice",
    "count_linf_lattice",
    "estimate_bound",
    "estimate_gaussian_width",
    "gaussian_width_bound",
    "grid_radius",
    "iter_l1_points",
    "l1_count_lower_bound",
    "l1_count_upper_bound",
    "linear_lipschitz_constant",
    "linear_mixed_inner_solver",
    "lp_optimum",
    "lp_solve",
    "make_linear_oracle",
    "make_quadratic_oracle",
    "oracle_complexity_bound",
    "quadratic_lipschitz_constant",
    "solve_l1_ip",
    "solve_lipschitz_ptas",
    "solve_mixed_integer",
    "solve_weighted_l1_ip",
    "solve_weighted_lipschitz_ptas",
    "verify_cover",
]


def test_public_names_are_pinned():
    # Submodules are left out: which of them are attributes of the package
    # depends on what the process imported before.
    names = sorted(
        name
        for name, value in vars(l1opt).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES

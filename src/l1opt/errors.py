"""Exception types shared across the toolkit."""


class InvalidDimensionError(ValueError):
    """A dimension or value bound is too small for the requested operation."""


class OutOfBallError(ValueError):
    """A point lies outside the l1 ball it was claimed to belong to."""


class ShapeMismatchError(ValueError):
    """Coefficient arrays have inconsistent shapes."""


class InvalidWeightsError(ValueError):
    """A weighted-l1 specification contains a weight that is not positive, or NaN."""


class RegionUnboundedError(RuntimeError):
    """The continuous relaxation is unbounded in some direction."""


class RegionInfeasibleError(RuntimeError):
    """The continuous relaxation is empty."""


class InnerSolverError(RuntimeError):
    """The convex inner solver of a mixed problem failed."""


class ProblemFileError(ValueError):
    """A problem file failed to parse or validate.

    Carries the offending field name so command-line diagnostics can
    point at it.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")

"""Exception types shared across the package."""

__all__ = [
    "IsokitError",
    "DegenerateInput",
    "NotFullDimensional",
    "NoConvergence",
    "NoDecomposition",
    "InfeasibleMagnitudes",
    "SingularPoint",
    "PreconditionError",
    "InvariantError",
]


class IsokitError(Exception):
    """Base class for all package-specific errors."""


class DegenerateInput(IsokitError):
    """Input point set is not full-dimensional (or otherwise unusable)."""


class NotFullDimensional(DegenerateInput):
    """Point set spans fewer than 3 dimensions."""


class NoConvergence(IsokitError):
    """Iterative solver hit its iteration cap before reaching tolerance."""


class NoDecomposition(IsokitError):
    """No nonnegative weights reproduce the identity from the given directions."""


class InfeasibleMagnitudes(IsokitError):
    """Requested entry magnitudes violate the feasibility constraints."""


class SingularPoint(IsokitError):
    """Evaluation requested at a point where the formula is undefined."""


class PreconditionError(IsokitError):
    """Caller violated a documented precondition."""


class InvariantError(IsokitError):
    """A constructed object failed its own consistency checks."""

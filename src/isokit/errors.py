"""Exception types shared across the package, and so the CLI's exit codes:
a ``PreconditionError`` (bad input or flags) exits 2, any other
``IsokitError`` (the mathematics failed to verify) exits 3, as an alarm.
"""

__all__ = [
    "IsokitError",
    "PreconditionError",
    "DegenerateInput",
    "NoConvergence",
    "InvariantError",
]


class IsokitError(Exception):
    """Base class for all package-specific errors."""


class PreconditionError(IsokitError):
    """Caller violated a documented precondition."""


class DegenerateInput(PreconditionError):
    """Input point set is not full-dimensional (or otherwise unusable)."""


class NoConvergence(IsokitError):
    """Iterative solver hit its iteration cap before reaching tolerance."""


class InvariantError(IsokitError):
    """A constructed object failed its own consistency checks."""

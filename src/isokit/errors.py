"""Exception types shared across the package."""


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


class NoSignAssignment(IsokitError):
    """No sign pattern makes the requested magnitudes satisfy the relations.

    For feasible magnitudes this should never happen; treat it as a bug signal.
    """


class SingularPoint(IsokitError):
    """Evaluation requested at a point where the formula is undefined."""


class SingularLattice(IsokitError):
    """Lattice basis matrix is singular."""


class PreconditionError(IsokitError):
    """Caller violated a documented precondition."""


class InvariantError(IsokitError):
    """A constructed object failed its own consistency checks."""

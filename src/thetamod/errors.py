"""Exception types shared across the package."""

__all__ = ["ThetamodError", "ValidationError", "DomainError", "TruncationError", "NonConvergenceError",
           "GeometryError", "QuadratureError"]


class ThetamodError(Exception):
    """Base class for every error raised by this library."""


class ValidationError(ThetamodError):
    """Malformed input: a broken invariant or an unusable argument."""


class DomainError(ThetamodError):
    """Input is outside the mathematical domain (pole, branch cut, lattice)."""


class TruncationError(ThetamodError):
    """A certified truncation cannot reach the requested tolerance."""


class NonConvergenceError(ThetamodError):
    """An iteration exceeded its step cap without converging."""


class GeometryError(ThetamodError):
    """A contour or residue circle passes too close to a pole."""


class QuadratureError(ThetamodError):
    """Adaptive quadrature failed to converge at the requested depth."""

"""Jacobi theta / Dedekind eta evaluation, modular multiplier systems, and a
numerical residue-calculus verifier for the theta transformation law.

Each module's __all__ is its public list, and the package re-exports those lists."""

from . import dedekind, errors, modular, theta, transform
from .dedekind import *
from .errors import *
from .modular import *
from .theta import *
from .transform import *

# The residue verifier, and numpy with it, loads on first use of one of these names (PEP 562);
# they are residues.__all__.
_RESIDUE_NAMES = (
    "ClosureReport", "EDGE_LIMITS", "EnclosedResidue", "OriginReport", "OriginResidue", "ResidueReport",
    "ResidueVerification", "VerifierParams", "circle_residue", "closure_residual", "contour_gap", "contour_integral",
    "edge_limit_probe", "enclosed_poles", "eval_kernel", "geometric_log_sum", "log_identity_residual",
    "log_theta1_by_residue_classes", "origin_report", "residue_at_imag_pole", "residue_at_origin",
    "residue_at_real_pole", "simple_pole_report", "verify_residues",
)
__all__ = [*dedekind.__all__, *errors.__all__, *modular.__all__, *theta.__all__, *transform.__all__, *_RESIDUE_NAMES]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _RESIDUE_NAMES:
        from . import residues

        return getattr(residues, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_RESIDUE_NAMES])

"""Jacobi theta / Dedekind eta evaluation, modular multiplier systems, and a
numerical residue-calculus verifier for the theta transformation law."""

from .dedekind import (
    MultiplierValue,
    dedekind_sum_fast,
    dedekind_sum_naive,
    eta_multiplier,
    theta_multiplier,
)
from .errors import (
    DomainError,
    GeometryError,
    NonConvergenceError,
    QuadratureError,
    ThetamodError,
    TruncationError,
    ValidationError,
)
from .modular import (
    IDENTITY,
    S_INVERSION,
    ModularMatrix,
    TransformParams,
    moebius_apply,
    neg_mod_inverse,
    principal_power,
    reduce_to_fundamental_domain,
    transform_params_from_matrix,
)
# The residue verifier, and numpy with it, loads on first use of one of these names (PEP 562).
_RESIDUE_NAMES = (
    "ClosureReport", "EDGE_LIMITS", "EnclosedResidue", "OriginReport", "OriginResidue", "ResidueReport",
    "ResidueVerification", "VerifierParams", "circle_residue", "closure_residual", "contour_gap", "contour_integral",
    "edge_limit_probe", "enclosed_poles", "eval_kernel", "geometric_log_sum", "log_identity_residual",
    "log_theta1_by_residue_classes", "origin_report", "residue_at_imag_pole", "residue_at_origin",
    "residue_at_real_pole", "simple_pole_report", "verify_residues",
)
from .theta import (
    DEFAULT_CONTROL,
    SeriesEval,
    TruncationControl,
    eta,
    eta_info,
    jacobi_triple_product_check,
    lattice_distance,
    log_theta1,
    theta1_product,
    theta1_series,
    theta1_series_info,
)
from .transform import (
    FastEval,
    ReductionTrace,
    SweepCase,
    SweepResult,
    reduce_theta_arguments,
    reduce_z,
    theta1_fast,
    theta1_fast_info,
    transform_rhs,
    transform_sweep,
    verify_eta_transformation,
    verify_transformation,
)

# The public names: everything imported above, then the residue names.
__all__ = [
    "MultiplierValue", "dedekind_sum_fast", "dedekind_sum_naive", "eta_multiplier", "theta_multiplier",
    "DomainError", "GeometryError", "NonConvergenceError", "QuadratureError", "ThetamodError", "TruncationError",
    "ValidationError", "IDENTITY", "S_INVERSION", "ModularMatrix", "TransformParams", "moebius_apply",
    "neg_mod_inverse", "principal_power", "reduce_to_fundamental_domain", "transform_params_from_matrix",
    "DEFAULT_CONTROL", "SeriesEval", "TruncationControl", "eta", "eta_info", "jacobi_triple_product_check",
    "lattice_distance", "log_theta1", "theta1_product", "theta1_series", "theta1_series_info", "FastEval",
    "ReductionTrace", "SweepCase", "SweepResult", "reduce_theta_arguments", "reduce_z", "theta1_fast",
    "theta1_fast_info", "transform_rhs", "transform_sweep", "verify_eta_transformation", "verify_transformation",
    *_RESIDUE_NAMES,
]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _RESIDUE_NAMES:
        from . import residues

        return getattr(residues, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_RESIDUE_NAMES])

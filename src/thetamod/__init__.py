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
    T_SHIFT,
    ModularMatrix,
    TransformParams,
    moebius_apply,
    neg_mod_inverse,
    principal_power,
    reduce_to_fundamental_domain,
    transform_params_from_matrix,
)
from .residues import (
    ClosureReport,
    EDGE_LIMITS,
    OriginResidue,
    ResidueReport,
    VerifierParams,
    circle_residue,
    closure_residual,
    contour_gap,
    contour_integral,
    edge_limit_probe,
    enclosed_poles,
    eval_kernel,
    eval_kernel_block,
    log_identity_residual,
    numeric_residue,
    origin_report,
    residue_at_imag_pole,
    residue_at_origin,
    residue_at_real_pole,
    simple_pole_report,
)
from .theta import (
    DEFAULT_CONTROL,
    SeriesEval,
    TruncationControl,
    eta,
    eta_info,
    geometric_log_sum,
    jacobi_triple_product_check,
    lattice_distance,
    log_theta1,
    log_theta1_by_residue_classes,
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

__version__ = "0.1.0"

"""The transformation law as an algorithm.

For a matrix A = (a, b; c, d) with c >= 0 the law reads

    theta1(z/(c tau + d), A tau)
        = eps1(A) * (-i(c tau + d))^{1/2} * exp(pi i c z^2/(c tau + d))
          * theta1(z, tau)

with eps1 the unit multiplier from the dedekind module and the square root on
the principal branch (at c = 0, A = (d, b; 0, d), it is the series identity
theta1(d z, tau + b d) = d e^{i pi b d/4} theta1(z, tau)).  This module
evaluates the right side directly, reduces (z, tau) into the fast-convergence
region (fundamental domain for tau, then |Im z| <= Im tau / 2 via
quasi-periodicity), exposes the fast evaluator built on that reduction, and
measures transformation residuals for verification sweeps.

Quasi-periodicity used by the z-reduction (derivable by reindexing the
series):

    theta1(z + m + n tau, tau)
        = (-1)^{m+n} exp(-i pi n^2 tau - 2 i pi n z) theta1(z, tau).

The reducer carries both prefactors as exponents and exponentiates their
difference once: near the real axis each factor alone can overflow while
their quotient does not.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from statistics import median

from ._record import record
from .dedekind import eta_multiplier, theta_multiplier
from .errors import DomainError, TruncationError, ValidationError
from .modular import ModularMatrix, _affine, moebius_apply, reduce_to_fundamental_domain, require_finite, require_int
from .modular import principal_power, require_upper_half  # principal_power unused: bench/layers.py wraps it here
from .theta import DEFAULT_CONTROL, SeriesEval, TruncationControl, _carry_back, _law_log, eta
from .theta import lattice_distance, theta1_series, theta1_series_info

__all__ = [
    "transform_rhs",
    "reduce_z",
    "ReductionTrace",
    "reduce_theta_arguments",
    "theta1_fast",
    "theta1_fast_info",
    "FastEval",
    "verify_transformation",
    "verify_eta_transformation",
    "SweepCase",
    "SweepResult",
    "transform_sweep",
]

# absolute floor for relative residuals, so exact zeros do not divide by zero
TINY = 1e-300


def _theta_law_log(mat: ModularMatrix, z: complex, den: complex) -> complex:
    """L with theta1(z/den, A tau) = e^L theta1(z, tau), den = c tau + d, c >= 0:
    L = i pi phase(eps1) + 1/2 Log(-i den) + pi i c z^2/den (theta._law_log).  The phase is
    exact, so a huge b costs no precision; c multiplies first, so c = 0 never forms z^2.
    """
    return _law_log(theta_multiplier(mat), den) + 1j * math.pi * mat.c * z * z / den


def transform_rhs(
    mat: ModularMatrix, z: complex, tau: complex, ctl: TruncationControl = DEFAULT_CONTROL
) -> complex:
    """Right side of the law, eps1 (-i(c tau+d))^{1/2} e^{pi i c z^2/(c tau+d)} theta1(z, tau), c >= 0 (_carry_back)."""
    t, zz = require_upper_half(tau), require_finite(z, "z")
    law = _theta_law_log(mat, zz, _affine(mat.c, mat.d, t))
    return _carry_back(theta1_series(zz, t, ctl), 0.0, law, 0.0, lambda: f"transform_rhs at z={zz}, tau={t}", sign=1)[0]


def reduce_z(z: complex, tau: complex) -> tuple[complex, int, int, complex]:
    """Shift z by the lattice into |Re| <= 1/2, |Im| <= Im(tau)/2.

    Returns (z_red, m, n, exponent) with z = z_red + m + n tau and
    theta1(z, tau) = (-1)^{m+n} exp(exponent) theta1(z_red, tau), where
    exponent = -i pi n^2 tau - 2 i pi n z_red, left unexponentiated because
    its real part can leave double range on its own.  A non-finite z or exponent, or a
    shift z - n tau rounded where its real part reaches 2**52 (no digit of z left), raises DomainError.
    """
    t, zz = require_upper_half(tau), require_finite(z, "z")
    try:  # round() of an infinite quotient or shift raises OverflowError
        n = round(zz.imag / t.imag)
        partial = zz - n * t
        z_red = partial - (m := round(partial.real))
        exponent = -1j * math.pi * n * n * t - 2j * math.pi * n * z_red
    except OverflowError:
        exponent = complex(math.inf)
    if not cmath.isfinite(exponent) or (abs(partial.real) >= 2**52  # an exact shift, as at Re tau = 0, keeps z
                                        and partial.real != Fraction(zz.real) - n * Fraction(t.real)):
        raise DomainError(f"the lattice reduction of z={zz} at tau={t} leaves double range or precision")
    return z_red, m, n, exponent


@record
class ReductionTrace:
    """Record of one full (z, tau) reduction:

        theta1(z, tau) = (-1)^{m+n} e^{-prefactor_log} theta1(z_reduced, tau_reduced)

    with (m, n) = lattice_shift, the quasi-periodicity shift applied to z
    after the tau reduction, so the sign stays exact.
    """

    matrix: ModularMatrix
    tau_reduced: complex
    z_reduced: complex
    lattice_shift: tuple[int, int]
    prefactor_log: complex


def reduce_theta_arguments(z: complex, tau: complex) -> ReductionTrace:
    """Reduce tau to the fundamental domain and z by quasi-periodicity.

    Applies the transformation law in the inverse direction for the
    reduction matrix (c >= 0).
    """
    t, zz = require_upper_half(tau), require_finite(z, "z")
    mat, tau_red, den = reduce_to_fundamental_domain(t)
    try:  # reduce_z names the image z/(c tau + d), a point the caller never passed
        z_red, m_shift, n_shift, quasi_log = reduce_z(zz / den, tau_red)
    except DomainError as exc:
        raise DomainError(f"z/(c tau + d) or its lattice shift leaves double precision at z={zz}, tau={t}") from exc
    # theta1(z/(c t+d), tau_red) = e^{law_log} theta1(z, tau)
    #                            = (-1)^{m+n} e^{quasi_log} theta1(z_red, tau_red)
    return ReductionTrace(
        matrix=mat,
        tau_reduced=tau_red,
        z_reduced=z_red,
        lattice_shift=(m_shift, n_shift),
        prefactor_log=_theta_law_log(mat, zz, den) - quasi_log,
    )


@record
class FastEval(SeriesEval):
    """theta1_fast result: the reduced series' terms, the carried-back bound, and the trace."""

    trace: ReductionTrace


def theta1_fast_info(
    z: complex, tau: complex, ctl: TruncationControl = DEFAULT_CONTROL
) -> FastEval:
    """theta1 via argument reduction, reporting the reduced-point term count.

    The error bound is the reduced-series bound times the prefactor plus the
    series' running-error rule for the prefactor's exponent, of size E: the
    sum of pi (either phase), 1/2 |log D|, pi c |z|^2/D with D = |c tau+d| =
    (Im tau/Im tau_red)^{1/2}, pi n^2 |tau_red| + 2 pi |n| |z_red| and |m|
    (theta._carry_back).  A value or bound outside double range raises DomainError.
    """
    trace = reduce_theta_arguments(z, tau)
    try:
        info = theta1_series_info(trace.z_reduced, trace.tau_reduced, ctl)
    except TruncationError as exc:
        raise TruncationError(
            f"theta1_fast at z={z}, tau={tau}: the reduced series at "
            f"z={trace.z_reduced}, tau={trace.tau_reduced} overflows double precision"
        ) from exc
    m, n = trace.lattice_shift
    den = math.sqrt(complex(tau).imag) / math.sqrt(trace.tau_reduced.imag)  # D, 1 for a translation
    # |z| capped so |z|^2 stays finite: past the cap c |z|^2/D is 0 for c = 0 and overflows for c > 0 (D <= 1)
    law = math.pi * (1.0 + trace.matrix.c * min(abs(complex(z)), 1e154) ** 2 / den) + 0.5 * abs(math.log(den))
    quasi = math.pi * abs(n) * (abs(n) * abs(trace.tau_reduced) + 2.0 * abs(trace.z_reduced))
    value, err = _carry_back(info.value, info.error_bound, -trace.prefactor_log, law + quasi + abs(m),
                             lambda: f"theta1_fast at z={z}, tau={tau}", sign=(-1) ** (m + n))
    return FastEval(value, info.terms, err, trace)


def theta1_fast(z: complex, tau: complex, ctl: TruncationControl = DEFAULT_CONTROL) -> complex:
    """theta1(z, tau) evaluated after argument reduction.

    Matches theta1_series wherever the latter converges, and keeps working
    arbitrarily close to the real tau axis, where the direct series needs
    unboundedly many terms.
    """
    return theta1_fast_info(z, tau, ctl).value


def verify_transformation(mat: ModularMatrix, z: complex, tau: complex) -> float:
    """Relative residual of the law at (A, z, tau).

    The left side theta1(z/(c tau+d), A tau) is evaluated by the direct
    series (after a plain quasi-periodicity shift of its argument, which is a
    series identity independent of the law being tested); the right side by
    transform_rhs.  Returns |lhs - rhs| / max(|lhs|, TINY); a side outside double range raises DomainError.
    """
    rhs = transform_rhs(mat, z, tau)  # rejects c < 0 and tau off the upper half-plane
    tau_image = moebius_apply(mat, tau)
    z_red, m, n, quasi_log = reduce_z(complex(z) / _affine(mat.c, mat.d, complex(tau)), tau_image)
    lhs, _ = _carry_back(theta1_series(z_red, tau_image), 0.0, quasi_log, 0.0,
                         lambda: f"verify_transformation at z={z}, tau={tau}: the left side", sign=(-1) ** (m + n))
    return abs(lhs - rhs) / max(abs(lhs), TINY)


def verify_eta_transformation(mat: ModularMatrix, tau: complex) -> float:
    """Relative residual of eta(A tau) = eps(A) (-i(c tau+d))^{1/2} eta(tau), the right side carried by the
    evaluator's law factor (theta._law_log, _carry_back).  eta reduces tau first, so this tests the multipliers'
    consistency eps(M A) ~ eps(M) eps(A); c < 0 raises before any series."""
    t = require_upper_half(tau)
    law = _law_log(eta_multiplier(mat), _affine(mat.c, mat.d, t))  # rejects c < 0 before any series
    rhs = _carry_back(eta(t), 0.0, law, 0.0, lambda: f"verify_eta_transformation at tau={tau}", sign=1)[0]
    lhs = eta(moebius_apply(mat, t))
    return abs(lhs - rhs) / max(abs(lhs), TINY)


def random_modular_matrix(rng: random.Random) -> ModularMatrix:
    """Uniform-ish determinant-one matrix with 1 <= c <= 20, |a|,|b|,|d| <= 50."""
    entry_bound = 50
    while True:
        c = rng.randint(1, 20)
        d = rng.randint(-entry_bound, entry_bound)
        if math.gcd(c, d) != 1:
            continue
        a0 = pow(d % c, -1, c) if c > 1 else 0
        lo = math.ceil((-entry_bound - a0) / c)
        hi = math.floor((entry_bound - a0) / c)
        if lo > hi:
            continue
        a = a0 + c * rng.randint(lo, hi)
        b = (a * d - 1) // c
        if abs(b) > entry_bound:
            continue
        return ModularMatrix(a, b, c, d)


def random_tau(rng: random.Random) -> complex:
    """tau with |Re| <= 1 and 0.3 <= Im <= 3."""
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 3.0))


def random_z(rng: random.Random, tau: complex) -> complex:
    """z in the unit disc, at least 0.05 from the zero lattice."""
    while True:
        zz = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if abs(zz) <= 1.0 and lattice_distance(zz, tau) >= 0.05:
            return zz


@record
class SweepCase:
    matrix: ModularMatrix
    z: complex
    tau: complex
    residual: float


@record
class SweepResult:
    kind: str
    seed: int
    cases: tuple[SweepCase, ...]

    @property
    def max_residual(self) -> float:
        return max(case.residual for case in self.cases)

    @property
    def median_residual(self) -> float:
        return float(median(case.residual for case in self.cases))


def transform_sweep(count: int, seed: int, kind: str = "theta") -> SweepResult:
    """Seeded random sweep of transformation residuals.

    kind "theta" measures the theta1 law (z drawn off the lattice), kind
    "eta" the eta law (z recorded as 0).  Deterministic for a fixed seed.
    """
    if kind not in ("theta", "eta"):
        raise ValidationError(f"unknown sweep kind {kind!r}")
    require_int(count=count)
    if count < 1:
        raise ValidationError(f"count must be positive, got {count}")
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        mat = random_modular_matrix(rng)
        tau = random_tau(rng)
        if kind == "theta":
            zz = random_z(rng, tau)
            residual = verify_transformation(mat, zz, tau)
        else:
            zz = 0j
            residual = verify_eta_transformation(mat, tau)
        cases.append(SweepCase(mat, zz, tau, residual))
    return SweepResult(kind=kind, seed=seed, cases=tuple(cases))

"""Evaluation of the odd Jacobi theta function and the Dedekind eta function
with certified truncation.

Conventions.  Q = exp(i pi tau) is the half-period nome and w = exp(i pi z),
so the series and product forms are

    theta1(z, tau) = -i * sum_{n in Z} (-1)^n Q^{(n+1/2)^2} w^{2n+1}
                   = 2 * sum_{n >= 0} (-1)^n Q^{(n+1/2)^2} sin((2n+1) pi z)
    theta1(z, tau) = -i w Q^{1/4} * prod_{n >= 1}
                     (1 - Q^{2n}) (1 - w^2 Q^{2n}) (1 - w^{-2} Q^{2n-2})

with zeros exactly on the lattice z = m + n*tau, and

    eta(tau) = exp(i pi tau / 12) * prod_{n >= 1} (1 - exp(2 pi i n tau)).

Q^{1/4} and Q^2 are always computed directly from tau (exp(i pi tau / 4),
exp(2 i pi tau)) so no spurious branch jump occurs when Re tau crosses a
half-integer.

Every truncation carries an explicit tail bound.  When the bound cannot be
met within max_terms (tau very close to the real axis), TruncationError is
raised; that regime is what the argument-reduction evaluator in the
transform module is for.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationError, ValidationError
from .modular import TransformParams, require_upper_half

__all__ = [
    "TruncationControl",
    "DEFAULT_CONTROL",
    "SeriesEval",
    "theta1_series",
    "theta1_series_info",
    "theta1_product",
    "jacobi_triple_product_check",
    "eta",
    "eta_info",
    "log_theta1",
    "log_theta1_by_residue_classes",
    "geometric_log_sum",
    "lattice_distance",
]

_TWO_PI = 2.0 * math.pi
# theta1_series_info sums with cmath below this many pairs, with numpy from here
# on; each side has a workload: theta1_fast's reduced series needs 2-4 terms
# (loop ~1 us, numpy ~14 us), law sweeps up to ~2200 (numpy ~5x faster at 1100).
_VECTOR_CUTOFF = 256
_SERIES_OVERFLOW = (
    "series terms overflow double precision at this (z, tau); "
    "reduce the argument first (transform.theta1_fast)"
)


@dataclass(frozen=True)
class TruncationControl:
    """Absolute tail tolerance plus a hard cap on summed/multiplied terms."""

    tolerance: float = 1e-12
    max_terms: int = 200_000

    def __post_init__(self) -> None:
        if not (1e-16 <= self.tolerance < 1.0):
            raise ValidationError(f"tolerance must be in [1e-16, 1), got {self.tolerance}")
        if not (0 < self.max_terms <= 10**6):
            raise ValidationError(f"max_terms must be in (0, 10^6], got {self.max_terms}")


DEFAULT_CONTROL = TruncationControl()


@dataclass(frozen=True)
class SeriesEval:
    """A value together with its term count and certified error bound."""

    value: complex
    terms: int
    error_bound: float


def lattice_distance(z: complex, tau: complex) -> float:
    """Distance from z to the nearest zero-lattice point m + n tau."""
    t = require_upper_half(tau)
    zz = complex(z)
    n0 = round(zz.imag / t.imag)
    best = math.inf
    for dn in (-1, 0, 1):
        rem = zz - (n0 + dn) * t
        m0 = round(rem.real)
        for dm in (-1, 0, 1):
            best = min(best, abs(rem - (m0 + dm)))
    return best


_EPS = 2.0 ** -52


def _series_cutoff(tau_im: float, z_im: float, ctl: TruncationControl) -> tuple[int, float]:
    """Pair cutoff N and certified error bound for the sine series.

    Pair n is bounded by 2 t_n with
    log t_n = -pi Im(tau) (n + 1/2)^2 + (2n + 1) pi |Im z|; N is the smallest
    index whose first omitted pair has t_{N+1} < tolerance.  The bound adds
    the truncation tail 2 t_{N+1} / (1 - rho) (rho the tail ratio at N+1)
    and a summation-roundoff allowance proportional to the largest term.
    """
    a = math.pi * tau_im
    b = math.pi * abs(z_im)
    log_tol = math.log(ctl.tolerance)

    def log_bound(n: int) -> float:
        return -a * (n + 1.5) ** 2 + (2 * n + 3) * b

    # peak of log t_n sits at n + 1/2 = b/a; if the peak itself overflows,
    # no double-precision summation is meaningful
    peak = b * b / a
    if peak - log_tol > 690.0:
        raise TruncationError(_SERIES_OVERFLOW)
    disc = b * b - a * log_tol
    n = max(0, math.ceil((b + math.sqrt(disc)) / a - 1.5))
    while log_bound(n) >= log_tol:
        n += 1
    # keep the tail ratio comfortably below 1 so the bound is a true bound
    while -a * (2 * n + 4) + 2 * b > math.log(0.5):
        n += 1
    rho = math.exp(-a * (2 * n + 4) + 2 * b)
    truncation = 2.0 * math.exp(log_bound(n)) / (1.0 - rho)
    # every term is bounded by e^{peak} (the continuous maximum of log t_n),
    # so accumulated roundoff stays below a small multiple of it
    roundoff = 8.0 * _EPS * (2 * n + 2) * math.exp(min(695.0, peak))
    return n, truncation + roundoff


def theta1_series_info(
    z: complex, tau: complex, ctl: TruncationControl = DEFAULT_CONTROL
) -> SeriesEval:
    """theta1 by the sine series, with term count and certified error bound."""
    t = require_upper_half(tau)
    zz = complex(z)
    n_cap, error_bound = _series_cutoff(t.imag, zz.imag, ctl)
    terms = 2 * (n_cap + 1)  # summands of the two-sided series
    if terms > ctl.max_terms:
        raise TruncationError(
            f"theta1 series needs {terms} terms for tolerance {ctl.tolerance} at "
            f"Im tau = {t.imag:.3g} (cap {ctl.max_terms}); reduce the argument "
            "first (transform.theta1_fast)"
        )
    if n_cap < _VECTOR_CUTOFF:
        total = 0j
        sign = 1.0
        try:
            for n in range(n_cap + 1):
                total += sign * cmath.exp(1j * math.pi * t * (n + 0.5) ** 2) * cmath.sin(
                    (2 * n + 1) * math.pi * zz
                )
                sign = -sign
        except OverflowError as exc:
            raise TruncationError(_SERIES_OVERFLOW) from exc
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            idx = np.arange(n_cap + 1)
            signs = 1.0 - 2.0 * (idx % 2)
            vals = np.exp(1j * np.pi * t * (idx + 0.5) ** 2) * np.sin((2 * idx + 1) * np.pi * zz)
            total = complex(np.sum(signs * vals))
    if not cmath.isfinite(total):
        raise TruncationError(_SERIES_OVERFLOW)
    return SeriesEval(2.0 * total, terms, error_bound)


def theta1_series(z: complex, tau: complex, ctl: TruncationControl = DEFAULT_CONTROL) -> complex:
    """theta1(z, tau) summed directly from the defining series."""
    return theta1_series_info(z, tau, ctl).value


def _product_cutoff(deviation_scale: float, ratio: float, ctl: TruncationControl) -> int:
    """Factor count so the remaining log-product tail stays below tolerance.

    Factor deviations are bounded by deviation_scale * ratio^n with ratio < 1;
    the geometric tail past n is deviation_scale * ratio^(n+1) / (1 - ratio).
    """
    if ratio >= 1.0:
        raise DomainError("product does not converge (ratio >= 1)")
    target = ctl.tolerance * (1.0 - ratio) / deviation_scale
    if target >= ratio:
        return 1
    n = math.ceil(math.log(target) / math.log(ratio))
    if n > ctl.max_terms:
        raise TruncationError(
            f"product needs {n} factors for tolerance {ctl.tolerance} "
            f"(cap {ctl.max_terms}); reduce the argument first (transform.theta1_fast)"
        )
    return max(1, n)


def _triple_factors(z: complex, tau: complex, ctl: TruncationControl):
    """Yield (1 - Q^{2n}, 1 - w^2 Q^{2n}, 1 - w^{-2} Q^{2n-2}) for n = 1..n_cap,
    with n_cap the factor count that keeps the log-product tail below tolerance."""
    q2 = cmath.exp(2j * math.pi * tau)  # Q^2
    w2 = cmath.exp(2j * math.pi * z)
    w2i = cmath.exp(-2j * math.pi * z)
    aq = abs(q2)
    scale = (1.0 + abs(w2)) + abs(w2i) / aq
    n_cap = _product_cutoff(scale, aq, ctl)
    q2n = 1.0 + 0j
    for _ in range(n_cap):
        q2prev = q2n  # Q^{2(n-1)}
        q2n *= q2
        yield 1 - q2n, 1 - w2 * q2n, 1 - w2i * q2prev


def theta1_product(z: complex, tau: complex, ctl: TruncationControl = DEFAULT_CONTROL) -> complex:
    """theta1(z, tau) from the triple product.

    The n = 1 third factor is (1 - w^-2), independent of the nome, so the
    product vanishes identically on z = m + n tau as the series does.
    """
    t = require_upper_half(tau)
    zz = complex(z)
    prod = 1.0 + 0j
    for a, b, c in _triple_factors(zz, t, ctl):
        prod *= a * b * c
    return -1j * cmath.exp(1j * math.pi * zz) * cmath.exp(1j * math.pi * t / 4) * prod


def jacobi_triple_product_check(
    w: complex, q: complex, ctl: TruncationControl = DEFAULT_CONTROL
) -> tuple[complex, complex]:
    """Both sides of sum_n w^{2n} q^{n^2} = prod_m (1-q^{2m})(1+w^2 q^{2m-1})(1+w^{-2} q^{2m-1}).

    Returns (lhs, rhs), each truncated to the control's tolerance; callers
    assert closeness.
    """
    ww = complex(w)
    qq = complex(q)
    if ww == 0:
        raise DomainError("w must be nonzero")
    if abs(qq) >= 1:
        raise DomainError(f"|q| must be below 1, got {abs(qq)}")
    if qq == 0:
        return 1 + 0j, 1 + 0j  # only the n = 0 term; every product factor is 1
    w2 = ww * ww
    w2i = 1 / w2
    big = max(abs(w2), abs(w2i), 1.0)
    log_q = math.log(abs(qq))
    log_big = math.log(big)
    log_target = math.log(0.1 * ctl.tolerance)

    lhs = 1 + 0j
    qn2 = 1 + 0j  # q^{n^2}, advanced by q^{2n+1} each step
    qodd = qq
    w2n = 1 + 0j
    w2in = 1 + 0j
    n = 0
    while True:
        n += 1
        qn2 *= qodd
        qodd *= qq * qq
        w2n *= w2
        w2in *= w2i
        lhs += qn2 * (w2n + w2in)
        bound = n * n * log_q + n * log_big
        next_bound = (n + 1) ** 2 * log_q + (n + 1) * log_big
        if bound < log_target and next_bound < bound:
            break
        if 2 * n + 1 > ctl.max_terms:
            raise TruncationError("triple-product series did not reach tolerance within max_terms")

    aq = abs(qq)
    scale = (aq + abs(w2) + abs(w2i)) / aq  # deviations ~ |q|^{2m-1} * (|q| + |w^2| + |w^-2|)
    m_cap = _product_cutoff(scale, aq * aq, ctl)
    rhs = 1 + 0j
    q2m = 1 + 0j
    qodd = 1 / qq
    for m in range(1, m_cap + 1):
        q2m *= qq * qq
        qodd *= qq * qq  # q^{2m-1}
        rhs *= (1 - q2m) * (1 + w2 * qodd) * (1 + w2i * qodd)
    return lhs, rhs


def eta_info(tau: complex, ctl: TruncationControl = DEFAULT_CONTROL) -> SeriesEval:
    """Dedekind eta with factor count and a tail bound on the log-product."""
    t = require_upper_half(tau)
    q2 = cmath.exp(2j * math.pi * t)
    aq = abs(q2)
    n_cap = _product_cutoff(1.0, aq, ctl)
    prod = 1.0 + 0j
    q2n = 1.0 + 0j
    for _ in range(n_cap):
        q2n *= q2
        prod *= 1 - q2n
    value = cmath.exp(1j * math.pi * t / 12) * prod
    tail = aq ** (n_cap + 1) / (1.0 - aq)
    return SeriesEval(value, n_cap, abs(value) * 2.0 * tail + 1e-308)


def eta(tau: complex, ctl: TruncationControl = DEFAULT_CONTROL) -> complex:
    """eta(tau) = exp(i pi tau / 12) prod_{n>=1} (1 - exp(2 pi i n tau))."""
    return eta_info(tau, ctl).value


def log_theta1(z: complex, tau: complex, ctl: TruncationControl = DEFAULT_CONTROL) -> complex:
    """Logarithmic expansion of theta1 with term-by-term principal logs:

        -i pi/2 + i pi z + i pi tau/4 + sum_{n>=1} [ log(1 - Q^{2n})
          + log(1 - w^2 Q^{2n}) + log(1 - w^{-2} Q^{2n-2}) ].

    Each log is principal-branch, so exp(log_theta1) always reproduces
    theta1; the sum itself may differ from the principal log of theta1 by a
    multiple of 2 pi i.  Points within 1e-8 of the zero lattice are rejected.
    """
    t = require_upper_half(tau)
    zz = complex(z)
    if lattice_distance(zz, t) < 1e-8:
        raise DomainError(f"z={zz} is within 1e-8 of the zero lattice m + n tau")
    total = -0.5j * math.pi + 1j * math.pi * zz + 0.25j * math.pi * t
    for a, b, c in _triple_factors(zz, t, ctl):
        total += cmath.log(a) + cmath.log(b) + cmath.log(c)
    return total


def _check_log_sum_domain(a: complex, r: float) -> None:
    if abs(a) * r >= 1.0 - 1e-12:
        raise DomainError(
            f"geometric log sum diverges: |a r| = {abs(a) * r:.6g} is not below 1"
        )
    if abs(1 - a) < 1e-12:
        raise DomainError("geometric log sum hits the lattice: a = 1")
    if a.imag == 0.0 and a.real >= 1.0:
        raise DomainError(
            f"geometric log sum sits on the logarithmic branch cut: a = {a.real:.6g} >= 1"
        )


def geometric_log_sum(a: complex, r: float | complex, cap: int) -> complex:
    """sum_{n=1}^{cap} a^n / (n (1 - r^n)) for a ratio 0 < |r| < 1.

    A real r keeps float arithmetic; a complex r (the ratio e^{-2 pi v} of a
    complex v) is carried exactly.  For |a| <= 3/4 the sum is taken term by
    term.  For larger |a| the head sum_n a^n / n (slowly convergent on
    |a| = 1, formally divergent beyond) is replaced by its closed form
    -log(1 - a) and only the remainder, whose terms shrink like (|a| |r|)^n,
    is summed; that remainder evaluation is the analytic continuation of the
    defining sum and agrees with it wherever both converge.
    """
    aa = complex(a)
    rr = r if isinstance(r, complex) else float(r)
    if not 0.0 < abs(rr) < 1.0:
        raise DomainError(f"|r| must be in (0, 1), got r = {rr}")
    if cap < 1:
        raise ValidationError(f"cap must be at least 1, got {cap}")
    _check_log_sum_domain(aa, abs(rr))
    if abs(aa) <= 0.75:
        total, step = 0j, aa
    else:
        total, step = -cmath.log(1 - aa), aa * rr
    term = 1 + 0j
    rn = 1 + 0j if isinstance(rr, complex) else 1.0
    for n in range(1, cap + 1):
        term *= step
        rn *= rr
        total += term / (n * (1.0 - rn))
        if abs(term) < 1e-320:
            break
    return total


def _log_sum_cap(a: complex, r: float, ctl: TruncationControl) -> int:
    """Term cap so the largest omitted summand falls below the tolerance."""
    ratio = abs(a) if abs(a) <= 0.75 else abs(a) * r
    ratio = min(ratio, 1.0 - 1e-12)
    if ratio <= 0.0:
        return 1
    target = ctl.tolerance * (1.0 - r)
    if target >= ratio:
        return 1
    cap = math.ceil(math.log(target) / math.log(ratio))
    if cap > ctl.max_terms:
        raise TruncationError(
            f"residue-class sum needs {cap} terms for tolerance {ctl.tolerance}"
        )
    return max(1, cap)


def log_theta1_by_residue_classes(
    params: TransformParams, z: complex, ctl: TruncationControl = DEFAULT_CONTROL
) -> complex:
    """log theta1(z, (h + iv)/k) resolved into residue classes mu mod k:

        -i pi/2 + i pi z + i pi (iv + h)/(4k)
        - sum_{mu=1}^{k} S(e^{2 pi i h mu / k - 2 pi v mu / k})
        - sum_{mu=1}^{k} S(e^{2 pi i z} e^{2 pi i h mu / k - 2 pi v mu / k})
        - sum_{mu=1}^{k} S(e^{-2 pi i z} e^{2 pi i h (mu-1)/k - 2 pi v (mu-1)/k})

    where S(a) = sum_{n>=1} a^n / (n (1 - e^{-2 pi v n})).  Equals
    log_theta1(z, (h + iv)/k) modulo 2 pi i.  Requires Re v > 0 and
    |Im z| < Re v so every S converges (after continuation of its geometric
    head); z exactly on a branch cut or the zero lattice raises DomainError.
    """
    v = complex(params.v)
    if not v.real > 0:
        raise DomainError(f"Re v must be positive, got v={v}")
    zz = complex(z)
    if abs(zz.imag) >= v.real:
        raise DomainError(
            f"|Im z| = {abs(zz.imag):.6g} must stay below Re v = {v.real:.6g}"
        )
    h, k = params.h, params.k
    r = math.exp(-_TWO_PI * v.real)
    # complex v keeps a residual phase in the ratio e^{-2 pi v}
    ratio = r * cmath.exp(-_TWO_PI * 1j * v.imag) if v.imag else r

    def class_value(residue_index: int) -> complex:
        return cmath.exp(
            2j * math.pi * h * residue_index / k - _TWO_PI * v * residue_index / k
        )

    e_plus = cmath.exp(2j * math.pi * zz)
    e_minus = cmath.exp(-2j * math.pi * zz)
    total = -0.5j * math.pi + 1j * math.pi * zz + 1j * math.pi * (1j * v + h) / (4 * k)
    for mu in range(1, k + 1):
        a1 = class_value(mu)
        a3 = class_value(mu - 1) * e_minus
        for a in (a1, a1 * e_plus, a3):
            cap = _log_sum_cap(a, r, ctl)
            total -= geometric_log_sum(a, ratio, cap)
    return total


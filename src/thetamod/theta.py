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
met within the term cap (tau very close to the real axis), TruncationError is
raised; that regime is what the argument-reduction evaluator in the
transform module is for.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, TruncationError, ValidationError
from .modular import require_upper_half

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
    "geometric_log_sum",
    "lattice_distance",
]

# _ROOTS24[j] = e^{i pi j/12}: the phases of integer translations of tau
_ROOTS24 = tuple(cmath.exp(1j * math.pi * j / 12) for j in range(24))
_MAX_TERMS = 200_000  # cap on the terms or factors of any certified truncation
_SERIES_OVERFLOW = (
    "series terms overflow double precision at this (z, tau); "
    "reduce the argument first (transform.theta1_fast)"
)


@dataclass(frozen=True)
class TruncationControl:
    """Absolute tail tolerance of every certified truncation."""

    tolerance: float = 1e-12

    def __post_init__(self) -> None:
        if not (1e-16 <= self.tolerance < 1.0):
            raise ValidationError(f"tolerance must be in [1e-16, 1), got {self.tolerance}")


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


def _require_finite_z(z: complex) -> complex:
    zz = complex(z)
    if not cmath.isfinite(zz):
        raise DomainError(f"z must be finite, got {zz}")
    return zz


def _running_error(steps: float, exponent: float, magnitude: float) -> float:
    """Roundoff 8 u (k + E) |value| of a value reached by k = steps roundings from an
    exponent of size E (Higham, Accuracy and Stability of Numerical Algorithms, 3.3)."""
    return 8.0 * _EPS * (steps + exponent) * magnitude


def _series_cutoff(t: complex, z: complex, ctl: TruncationControl) -> tuple[int, float]:
    """Pair cutoff N and certified error bound for the series at (z, t).

    Pair n is bounded by 2 t_n with
    log t_n = -pi Im(t) (n + 1/2)^2 + (2n + 1) pi |Im z|; N is the smallest
    index whose first omitted pair has t_{N+1} < tolerance.  The bound adds
    the truncation tail 2 t_{N+1} / (1 - rho) (rho the tail ratio at N+1)
    and the recurrence's running error, k = 2N + 2 steps from the largest term.
    """
    a = math.pi * t.imag
    b = math.pi * abs(z.imag)
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
    # keep the tail ratio e^{-a (2n + 4) + 2b} at most 1/2 so the bound is a true bound
    n = max(n, math.ceil((2 * b - math.log(0.5)) / (2 * a)) - 2)
    rho = math.exp(-a * (2 * n + 4) + 2 * b)
    truncation = 2.0 * math.exp(log_bound(n)) / (1.0 - rho)
    # every term is bounded by e^{peak} (the continuous maximum of log t_n);
    # the exponent of the largest term, at n_p, sets its relative error
    n_p = max(0.0, b / a - 0.5)
    exponent = math.pi * (abs(t) * (n_p + 0.5) ** 2 + (2 * n_p + 1) * abs(z))
    return n, truncation + _running_error(2 * n + 2, exponent, math.exp(min(695.0, peak)))


def theta1_series_info(
    z: complex, tau: complex, ctl: TruncationControl = DEFAULT_CONTROL
) -> SeriesEval:
    """theta1 by the two-sided series, with term count and certified error bound.

    Term +-n is e^{i pi (t (n+1/2)^2 +- (2n+1) z)} (sign (-1)^n folded into
    the steps); each is the previous one times the step
    -e^{i pi (2 (n+1) t +- 2z)}, and each step the previous one times
    q2 = e^{2 pi i t}.  No factor overflows unless a term does.
    """
    t = require_upper_half(tau)
    b = round(t.real)  # theta1(z, tau) = e^{i pi b/4} theta1(z, tau - b), exact for any b
    t -= b
    zz = _require_finite_z(z)
    n_cap, error_bound = _series_cutoff(t, zz, ctl)
    terms = 2 * (n_cap + 1)  # summands of the two-sided series
    if terms > _MAX_TERMS:
        raise TruncationError(
            f"theta1 series needs {terms} terms for tolerance {ctl.tolerance} at "
            f"Im tau = {t.imag:.3g} (cap {_MAX_TERMS}); reduce the argument "
            "first (transform.theta1_fast)"
        )
    ipi = 1j * math.pi
    up, down = cmath.exp(ipi * (t / 4 + zz)), cmath.exp(ipi * (t / 4 - zz))
    step_up, step_down = -cmath.exp(ipi * (2 * t + 2 * zz)), -cmath.exp(ipi * (2 * t - 2 * zz))
    q2 = cmath.exp(2 * ipi * t)
    total = 0j
    for _ in range(n_cap + 1):
        total += up - down
        up *= step_up
        down *= step_down
        step_up *= q2
        step_down *= q2
    if not cmath.isfinite(total):
        raise TruncationError(_SERIES_OVERFLOW)
    return SeriesEval(-1j * total * _ROOTS24[3 * b % 24], terms, error_bound)


def theta1_series(z: complex, tau: complex, ctl: TruncationControl = DEFAULT_CONTROL) -> complex:
    """theta1(z, tau) summed directly from the defining series."""
    return theta1_series_info(z, tau, ctl).value


def _product_cutoff(deviation_scale: float, ratio: float, ctl: TruncationControl) -> int:
    """Term count n so a geometric tail stays below tolerance.

    Terms (or log-factor deviations) are bounded by deviation_scale * ratio^n
    with ratio < 1; the tail past n is deviation_scale * ratio^(n+1) / (1 - ratio).
    """
    if ratio >= 1.0:
        raise DomainError("geometric tail does not converge")
    target = ctl.tolerance * (1.0 - ratio) / deviation_scale
    if target >= ratio:
        return 1
    n = math.ceil(math.log(target) / math.log(ratio))
    if n > _MAX_TERMS:
        raise TruncationError(
            f"geometric tail needs {n} terms for tolerance {ctl.tolerance} (cap {_MAX_TERMS})"
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
    # the left side is theta1's series at q = e^{i pi tau}, e^{2 pi i z} = -w^2/q
    tau = cmath.log(qq) / (1j * math.pi)
    z = cmath.log(-ww * ww / qq) / (2j * math.pi)
    try:
        lhs = 1j * cmath.exp(-1j * math.pi * (z + tau / 4)) * theta1_series_info(z, tau, ctl).value
    except (DomainError, TruncationError) as exc:  # w^2 overflowing leaves z non-finite
        raise TruncationError(
            f"jacobi_triple_product_check at w={ww}, q={qq}: the series side overflows "
            "double precision or needs more terms than the cap"
        ) from exc
    rhs = math.prod(a * b * c for a, b, c in _triple_factors(z, tau, ctl))
    return lhs, rhs


def eta_info(tau: complex, ctl: TruncationControl = DEFAULT_CONTROL) -> SeriesEval:
    """Dedekind eta with factor count and a tail bound on the log-product."""
    t = require_upper_half(tau)
    b = round(t.real)  # eta(tau) = e^{i pi b/12} eta(tau - b), exact for any b
    t -= b
    q2 = cmath.exp(2j * math.pi * t)
    aq = abs(q2)
    n_cap = _product_cutoff(1.0, aq, ctl)
    prod = 1.0 + 0j
    q2n = 1.0 + 0j
    for _ in range(n_cap):
        q2n *= q2
        prod *= 1 - q2n
    value = cmath.exp(1j * math.pi * t / 12) * prod * _ROOTS24[b % 24]
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

"""Evaluation of the odd Jacobi theta function and the Dedekind eta function
with certified truncation.

Conventions.  Q = exp(i pi tau) is the half-period nome and w = exp(i pi z),
so the series and product forms are

    theta1(z, tau) = -i * sum_{n in Z} (-1)^n Q^{(n+1/2)^2} w^{2n+1}
                   = -i w Q^{1/4} * prod_{n >= 1}
                     (1 - Q^{2n}) (1 - w^2 Q^{2n}) (1 - w^{-2} Q^{2n-2})

with zeros exactly on the lattice z = m + n*tau.  At z = tau with 3 tau in place
of tau the triple product is Euler's pentagonal number theorem, so

    eta(tau) = exp(i pi tau / 12) prod_{n >= 1} (1 - exp(2 pi i n tau))
             = -i exp(i pi tau / 3) theta1(tau, 3 tau),

summed by theta1's series at tau's fundamental-domain image, then carried back.

Every truncation carries an explicit tail bound.  When the bound cannot be
met within the term cap (tau very close to the real axis), TruncationError is
raised; that regime is what the argument-reduction evaluator in the
transform module is for.
"""

from __future__ import annotations

import cmath
import math

from ._record import record
from .dedekind import MultiplierValue, eta_multiplier
from .errors import DomainError, TruncationError, ValidationError
from .modular import reduce_to_fundamental_domain, require_upper_half

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
    "lattice_distance",
]

# _ROOTS8[b % 8] = e^{i pi b/4}, the phase theta1 gains under tau -> tau + b, every part exact or correctly rounded
_R = math.sqrt(0.5)
_ROOTS8 = (1 + 0j, complex(_R, _R), 1j, complex(-_R, _R), -1 + 0j, complex(-_R, -_R), 0 - 1j, complex(_R, -_R))
_MAX_TERMS = 200_000  # cap on the terms or factors of any certified truncation
_SERIES_OVERFLOW = (
    "series terms overflow double precision at this (z, tau); "
    "reduce the argument first (transform.theta1_fast)"
)


@record
class TruncationControl:
    """Absolute tail tolerance of every certified truncation: a product's or geometric sum's omitted tail is
    within tolerance, a theta series' within 4 tolerance (_series_cutoff)."""

    tolerance: float = 1e-12

    def __post_init__(self) -> None:
        if not (1e-16 <= self.tolerance < 1.0):
            raise ValidationError(f"tolerance must be in [1e-16, 1), got {self.tolerance}")


DEFAULT_CONTROL = TruncationControl()


@record
class SeriesEval:
    """A value together with its term count and certified error bound."""

    value: complex
    terms: int
    error_bound: float


def lattice_distance(z: complex, tau: complex) -> float:
    """Distance from z to the nearest zero-lattice point m + n tau."""
    t = require_upper_half(tau)
    zz = complex(z)
    try:  # round() of an infinite or nan quotient raises
        n0 = round(zz.imag / t.imag)
        rems = [zz - (n0 + dn) * t for dn in (-1, 0, 1)]
        return min(abs(rem - (round(rem.real) + dm)) for rem in rems for dm in (-1, 0, 1))
    except (OverflowError, ValueError):
        raise DomainError(f"no lattice point m + n tau within double range of z={zz}, tau={t}") from None


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


def _carry_back(total: complex, bound: float, log_factor: complex, exponent_size: float, where,
                sign: int) -> tuple[complex, float]:
    """value = sign e^{log_factor} total (sign an exact +-1, kept out of the exponent), a reduced series'
    total carried back by a law, and its bound: bound |e^{log_factor}|, the running error of k = 4 roundings
    from an exponent of size exponent_size, and 2.3e-308, as below the normal range a value keeps only
    absolute precision.  A value or bound outside double range raises DomainError; where() builds its message."""
    try:
        factor = cmath.exp(log_factor)
    except (OverflowError, ValueError):  # ValueError: an infinite imaginary part
        factor = complex(math.inf)  # rejected below with any other non-finite result
    value = sign * factor * total
    err = bound * abs(factor) + _running_error(4, exponent_size, abs(value)) + 2.3e-308
    if not (cmath.isfinite(value) and math.isfinite(err)):
        raise DomainError(f"{where()}: the value or its bound leaves double range")
    return value, err


def _law_log(eps: MultiplierValue, den: complex) -> complex:
    """Log of a law's factor eps (-i den)^{1/2}, den = c tau + d, c >= 0 (Re(-i den) >= 0: the Log is principal)."""
    return 1j * math.pi * float(eps.phase) + 0.5 * cmath.log(-1j * den)


def _series_cutoff(t: complex, z: complex, lead: complex, ctl: TruncationControl) -> tuple[int, float]:
    """Pair cutoff N and certified error bound for the series at (z, t) with lead.

    With x = n + 1/2, a = pi Im t and r = |Im z| / Im t, pair n is bounded by 2 t_n with
    log t_n = Re(lead) - a x (x - 2r); N is the smallest index whose first omitted pair has
    t_{N+1} < tolerance, so the whole tail 2 t_{N+1} / (1 - rho), rho = e^{-2a (N + 2 - r)} the tail
    ratio at N+1, is below 4 tolerance wherever rho <= 1/2.  Only below N = r + ln 2/(2a) - 2 can rho
    exceed 1/2; there N steps on until that tail is within 4 tolerance.  The bound adds the tail and the
    recurrence's running error, k = 2N + 2 steps from the largest term.  Working in r, nothing overflows
    before Im t itself does.
    """
    a, r = math.pi * t.imag, abs(z.imag) / t.imag
    log_tol = math.log(ctl.tolerance)

    def log_bound(n: int) -> float:  # the first omitted pair, x = n + 3/2
        return lead.real - a * (n + 1.5) * (n + 1.5 - 2.0 * r)

    def tail(n: int) -> float:  # both omitted tails, 2 t_{N+1} / (1 - rho) with rho = e^{-2a (N + 2 - r)}
        return 2.0 * math.exp(log_bound(n)) / (1.0 - math.exp(-2.0 * a * (n + 2 - r)))

    # the maximum of log t_n, at x = r (for eta the two summands cancel exactly);
    # if it overflows, no double-precision summation is meaningful
    peak = lead.real + math.pi * abs(z.imag) * r
    if peak - log_tol > 690.0:
        raise TruncationError(_SERIES_OVERFLOW)
    # the root of log_bound = log_tol, capped before the loop: near Im t = 1e-300 it is ~1e150, where n + 1 == n
    start = max(0.0, r + math.sqrt(max(0.0, r * r + (lead.real - log_tol) / a)) - 1.5)
    n = math.ceil(min(start, _MAX_TERMS // 2))
    while n < _MAX_TERMS // 2 and log_bound(n) >= log_tol:
        n += 1
    n_half = min(r + math.log(2.0) / (2.0 * a) - 2.0, _MAX_TERMS // 2)
    while n < n_half and tail(n) > 4.0 * ctl.tolerance:
        n += 1
    if n >= _MAX_TERMS // 2:  # the loops stop at the cap, so only a root past it gives the count needed
        need = f"{round(2 * start + 2, 0):.15g}" if start >= _MAX_TERMS // 2 else f"more than {_MAX_TERMS}"
        raise TruncationError(f"theta1 series needs {need} terms for tolerance {ctl.tolerance} at Im tau = "
                              f"{t.imag:.3g} (cap {_MAX_TERMS}); reduce tau (theta1_fast)")
    # every term is bounded by e^{peak}; the exponent at x_p, the largest term, sets its relative error
    x_p = max(0.5, r)
    exponent = math.pi * (abs(t) * x_p * x_p + 2.0 * x_p * abs(z)) + abs(lead)
    return n, tail(n) + _running_error(2 * n + 2, exponent, math.exp(min(695.0, peak)))


def _theta1_sum(z: complex, t: complex, lead: complex, ctl: TruncationControl) -> tuple[complex, int, float]:
    """i e^{lead} theta1(z, t) = sum_n (-1)^n e^{lead + i pi (t (n+1/2)^2 + (2n+1) z)}, its term
    count and certified error bound.

    Term +-n is the previous one times the step -e^{i pi (2 (n+1) t +- 2z)} (sign (-1)^n
    folded in), each step the previous one times q2 = e^{2 pi i t}; the lead enters the two
    starting terms, so no factor overflows unless a term does.
    """
    b = round(t.real)  # the sum at t is e^{i pi b/4} times the sum at t - b, exact for any b
    t -= b
    n_cap, error_bound = _series_cutoff(t, z, lead, ctl)
    ipi = 1j * math.pi
    up, down = cmath.exp(lead + ipi * (t / 4 + z)), cmath.exp(lead + ipi * (t / 4 - z))
    step_up, step_down = -cmath.exp(ipi * (2 * t + 2 * z)), -cmath.exp(ipi * (2 * t - 2 * z))
    q2 = cmath.exp(2 * ipi * t)
    total = 0j
    for _ in range(n_cap + 1):
        total += up - down
        up *= step_up
        down *= step_down
        step_up *= q2
        step_down *= q2
    if not (cmath.isfinite(total) and math.isfinite(error_bound)):
        raise TruncationError(_SERIES_OVERFLOW)
    return total * _ROOTS8[b % 8], 2 * (n_cap + 1), error_bound


def theta1_series_info(z: complex, tau: complex, ctl: TruncationControl = DEFAULT_CONTROL) -> SeriesEval:
    """theta1 by the two-sided series, with term count and certified error bound."""
    value, terms, error_bound = _theta1_sum(_require_finite_z(z), require_upper_half(tau), 0j, ctl)
    return SeriesEval(-1j * value, terms, error_bound)


def theta1_series(z: complex, tau: complex, ctl: TruncationControl = DEFAULT_CONTROL) -> complex:
    """theta1(z, tau) summed directly from the defining series."""
    return theta1_series_info(z, tau, ctl).value


def _product_cutoff(deviation_scale: float, ratio: float, tolerance: float) -> float:
    """Term count n so a geometric tail stays below tolerance: an int, or inf where the target underflows.

    Terms (or log-factor deviations) are bounded by deviation_scale * ratio^n
    with ratio < 1; the tail past n is deviation_scale * ratio^(n+1) / (1 - ratio).
    The count has no cap: each caller applies its own (_within_cap for _MAX_TERMS).
    """
    if ratio >= 1.0:
        raise DomainError("geometric tail does not converge")
    target = tolerance * (1.0 - ratio) / deviation_scale
    if not target > 0.0:  # underflowed: the cut lies past any cap
        return math.inf
    if target >= ratio:
        return 1
    return max(1, math.ceil(math.log(target) / math.log(ratio)))


def _within_cap(n: float, tolerance: float) -> int:
    """A _product_cutoff count n at tolerance, if it is at most _MAX_TERMS; past that, TruncationError naming it."""
    if n == math.inf:
        raise TruncationError(f"geometric tail needs more terms than the cap {_MAX_TERMS} at tolerance {tolerance}")
    if n > _MAX_TERMS:
        raise TruncationError(f"geometric tail needs {n} terms for tolerance {tolerance} (cap {_MAX_TERMS})")
    return n


def _triple_factors(z: complex, tau: complex, ctl: TruncationControl):
    """Yield (1 - Q^{2n}, 1 - w^2 Q^{2n}, 1 - w^{-2} Q^{2n-2}) for n = 1..n_cap,
    with n_cap the factor count that keeps the log-product tail below tolerance: factor n deviates from 1
    by at most ((1 + |w^2|) |Q^2| + |w^-2|) |Q^2|^(n-1), a scale that never divides by |Q^2| (0 past Im tau ~ 118.5)."""
    try:
        q2 = cmath.exp(2j * math.pi * tau)  # Q^2
        w2, w2i = cmath.exp(2j * math.pi * z), cmath.exp(-2j * math.pi * z)
    except (OverflowError, ValueError):  # ValueError: an infinite imaginary part
        raise DomainError(f"triple product factors leave double range at z={z}, tau={tau}") from None
    aq = abs(q2)
    n_cap = 1 + _within_cap(_product_cutoff((1.0 + abs(w2)) * aq + abs(w2i), aq, ctl.tolerance), ctl.tolerance)
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
    try:  # w^2 overflowing leaves z non-finite, underflowing makes log(0) raise ValueError; q near 0 leaves Q^2 = 0
        # the left side is theta1's series at q = e^{i pi tau}, e^{2 pi i z} = -w^2/q
        tau = cmath.log(qq) / (1j * math.pi)
        z = cmath.log(-ww * ww / qq) / (2j * math.pi)
        lhs = 1j * cmath.exp(-1j * math.pi * (z + tau / 4)) * theta1_series_info(z, tau, ctl).value
        rhs = math.prod(a * b * c for a, b, c in _triple_factors(z, tau, ctl))
    except (DomainError, TruncationError, ValueError) as exc:
        raise TruncationError(
            f"jacobi_triple_product_check at w={ww}, q={qq}: a side leaves double "
            "range or the series needs more terms than the cap"
        ) from exc
    return lhs, rhs


def eta_info(tau: complex, ctl: TruncationControl = DEFAULT_CONTROL) -> SeriesEval:
    """eta(tau), term count and certified bound: eta(tau') = -i e^{i pi tau'/3} theta1(tau', 3 tau') by theta1's
    series at tau' = A tau in the fundamental domain (the lead inside each term, as theta1(tau', 3 tau') alone
    overflows from Im tau' ~ 900), carried back by eta's law (_carry_back: a value or bound outside double range
    raises DomainError).  Relative precision holds near cusps.  The bound is absolute, its roundoff taken
    against the terms' peak 1, not |eta(tau')|: 1.2e-11 on a value of 2e-114 at tau = 1e3 i."""
    t = require_upper_half(tau)
    mat, t_red, den = reduce_to_fundamental_domain(t)
    t3 = 3 * t_red
    if not cmath.isfinite(t3):
        raise DomainError(f"eta at tau={tau}: 3 tau leaves double range")
    # i pi t/3 with 1/3 read as Im t / Im 3t, so the lead cancels the peak of the terms exactly
    lead = 1j * math.pi * t_red * (t_red.imag / t3.imag)
    try:
        total, terms, error_bound = _theta1_sum(t_red, t3, lead, ctl)
    except TruncationError as exc:
        raise TruncationError(f"eta at tau={tau}: {exc}") from exc
    law = _law_log(eta_multiplier(mat), den)
    value, err = _carry_back(total, error_bound, -law, abs(lead) + abs(law), lambda: f"eta at tau={tau}", sign=-1)
    return SeriesEval(value, terms, err)


def eta(tau: complex, ctl: TruncationControl = DEFAULT_CONTROL) -> complex:
    """eta(tau) = exp(i pi tau / 12) prod_{n>=1} (1 - exp(2 pi i n tau)), evaluated by eta_info."""
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

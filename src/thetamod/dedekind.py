"""Dedekind sums in exact rational arithmetic, and the unit multipliers of
the eta and theta transformation laws.

The sums s(h, k) are rationals with denominator dividing 12 k; keeping them
exact (fractions.Fraction) preserves the information the multiplier phases
need modulo 2, which float arithmetic would destroy.  Multiplier phases are
stored as exact rational multiples of pi so that root-of-unity identities can
be asserted with rational equality rather than float comparison.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ValidationError
from .modular import ModularMatrix

__all__ = [
    "dedekind_sum_naive",
    "dedekind_sum_fast",
    "MultiplierValue",
    "eta_multiplier",
    "theta_multiplier",
]


def _validate_pair(h: int, k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    if not isinstance(h, int) or isinstance(h, bool):
        raise ValidationError(f"h must be an integer, got {h!r}")
    if math.gcd(h, k) != 1:
        raise DomainError(f"h={h} and k={k} must be coprime, gcd={math.gcd(h, k)}")


def dedekind_sum_naive(h: int, k: int) -> Fraction:
    """s(h, k) = sum_{r=1}^{k-1} (r/k) * ((h r)/k - floor(h r / k) - 1/2).

    Direct summation of the defining terms.  Since the fractional part of
    h r / k is (h r mod k)/k, the whole sum reduces to one integer
    accumulation plus an exact rational tail, so the value is exact.  The
    bracket is the floor function, which makes reducing h modulo k harmless.
    """
    _validate_pair(h, k)
    h %= k
    if k == 1:
        return Fraction(0)
    weighted = 0
    for r in range(1, k):
        weighted += r * ((h * r) % k)
    return Fraction(weighted, k * k) - Fraction(k - 1, 4)


def dedekind_sum_fast(h: int, k: int) -> Fraction:
    """s(h, k) by the Euclidean descent of the reciprocity law.

    Uses s(h, k) + s(k, h) = -1/4 + (h^2 + k^2 + 1)/(12 h k) together with
    the period s(k mod h, h) = s(k, h), so the argument pair shrinks like a
    gcd computation: O(log k) exact rational steps.  Agrees with
    dedekind_sum_naive exactly.
    """
    _validate_pair(h, k)
    h %= k
    total = Fraction(0)
    sign = 1
    while h:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        h, k = k % h, h
        sign = -sign
    return total


def _normalize_phase(phase: Fraction) -> Fraction:
    """Reduce a rational multiple of pi modulo 2 into (-1, 1]."""
    reduced = phase % 2
    if reduced > 1:
        reduced -= 2
    return reduced


@dataclass(frozen=True)
class MultiplierValue:
    """Unit-modulus multiplier exp(i pi phase), phase an exact rational.

    The phase is reduced modulo 2 into (-1, 1]; value derives from it, so
    |value| = 1 up to one complex exponential's rounding.
    """

    phase: Fraction

    @property
    def value(self) -> complex:
        return cmath.exp(1j * math.pi * float(self.phase))


def eta_multiplier(mat: ModularMatrix) -> MultiplierValue:
    """Multiplier of eta: exp(pi i ((a + d)/(12 c) + s(-d, c))), c > 0."""
    if mat.c <= 0:
        raise ValidationError(f"eta multiplier requires c > 0, got c={mat.c}")
    phase = Fraction(mat.a + mat.d, 12 * mat.c) + dedekind_sum_fast(-mat.d, mat.c)
    return MultiplierValue(_normalize_phase(phase))


def theta_multiplier(mat: ModularMatrix) -> MultiplierValue:
    """Multiplier of theta1: -i times the cube of the eta multiplier.

    The phase is 3 * phase(eta) - 1/2, reduced modulo 2, so exact statements
    like theta_multiplier(S).value == -i survive as rational equalities.
    """
    eta_phase = eta_multiplier(mat).phase
    return MultiplierValue(_normalize_phase(3 * eta_phase - Fraction(1, 2)))

"""Dedekind sums in exact rational arithmetic, and the unit multipliers of
the eta and theta transformation laws.

The sums s(h, k) are rationals with denominator dividing 12 k; keeping them
exact (fractions.Fraction) preserves the information the multiplier phases
need modulo 2, which float arithmetic would destroy.  Multiplier phases are
stored as exact rational multiples of pi so that root-of-unity identities can
be asserted with rational equality rather than float comparison.

dedekind_sum_fast telescopes the reciprocity descent (cf. Knuth, TAOCP
vol. 2, 3.3.3): for 0 < h < k, with q_1..q_n the Euclid quotients of (k, h)
and h' = h^-1 mod k, 12 k s(h, k) = h + h' + k (q_1 - q_2 + q_3 - ...) -
k (3 if n is odd else 1).  That is one integer Euclid pass and one Fraction,
and it equals dedekind_sum_naive on every coprime (h, k) with k <= 120 and
h in [-k, 2k) (an exhaustive test).  Since 12 c s(-d, c) is an integer, both
multiplier phases are integer numerators over 12 max(c, 1), mod 24 max(c, 1).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from ._record import record
from .errors import ValidationError
from .modular import ModularMatrix, require_coprime

__all__ = [
    "dedekind_sum_naive",
    "dedekind_sum_fast",
    "MultiplierValue",
    "eta_multiplier",
    "theta_multiplier",
]


def dedekind_sum_naive(h: int, k: int) -> Fraction:
    """s(h, k) = sum_{r=1}^{k-1} (r/k) * ((h r)/k - floor(h r / k) - 1/2).

    Direct summation of the defining terms.  Since the fractional part of
    h r / k is (h r mod k)/k, the whole sum reduces to one integer
    accumulation plus an exact rational tail, so the value is exact.  The
    bracket is the floor function, which makes reducing h modulo k harmless.
    """
    require_coprime(h, k)
    h %= k
    if k == 1:
        return Fraction(0)
    weighted = 0
    for r in range(1, k):
        weighted += r * ((h * r) % k)
    return Fraction(weighted, k * k) - Fraction(k - 1, 4)


def dedekind_sum_fast(h: int, k: int) -> Fraction:
    """s(h, k) by the reciprocity descent s(h, k) + s(k, h) = -1/4 + (h^2 + k^2 + 1)/(12 h k),
    s(k mod h, h) = s(k, h), telescoped: for 0 < h < k, with Euclid quotients q_1..q_n of (k, h)
    and h' = h^-1 mod k, 12 k s(h, k) = h + h' + k (q_1 - q_2 + q_3 - ...) - k (3 if n is odd
    else 1).  O(log k) integer steps; equal to dedekind_sum_naive on every coprime pair with
    k <= 120, h in [-k, 2k)."""
    require_coprime(h, k)
    h %= k
    if k == 1:
        return Fraction(0)
    alternating, sign, a, b = 0, 1, k, h
    while b:
        alternating += sign * (a // b)
        sign = -sign
        a, b = b, a % b
    return Fraction(h + pow(h, -1, k) + k * alternating - (k if sign > 0 else 3 * k), 12 * k)


@record
class MultiplierValue:
    """Unit-modulus multiplier exp(i pi phase), phase an exact rational.

    The phase is reduced modulo 2 into (-1, 1]; value derives from it, so
    |value| = 1 up to one complex exponential's rounding.
    """

    phase: Fraction

    @property
    def value(self) -> complex:
        return cmath.exp(1j * math.pi * float(self.phase))


def _multiplier(numerator: int, k: int) -> MultiplierValue:
    """exp(i pi numerator/(12 k)), the numerator reduced mod 24 k into (-12 k, 12 k]."""
    numerator %= 24 * k
    return MultiplierValue(Fraction(numerator - 24 * k if numerator > 12 * k else numerator, 12 * k))


def _eta_numerator(mat: ModularMatrix) -> int:
    """P with eta's phase P/(12 max(c, 1)): a + d + 12 c s(-d, c) for c > 0, d (b + 3) for c = 0."""
    if mat.c < 0:
        raise ValidationError(f"multipliers require c >= 0, got c={mat.c}; negate the matrix")
    if mat.c == 0:
        return mat.d * (mat.b + 3)
    s = dedekind_sum_fast(-mat.d, mat.c)
    return mat.a + mat.d + s.numerator * (12 * mat.c // s.denominator)


def eta_multiplier(mat: ModularMatrix) -> MultiplierValue:
    """Multiplier of eta: exp(pi i ((a + d)/(12 c) + s(-d, c))) for c > 0.  At c = 0, A = (d, b; 0, d), it is the
    textbook e^{i pi b d/12} (Knopp, ch. 4) times e^{i pi d/4}, as the law's (-i d)^{1/2} is e^{-i pi d/4}."""
    return _multiplier(_eta_numerator(mat), max(mat.c, 1))


def theta_multiplier(mat: ModularMatrix) -> MultiplierValue:
    """Multiplier of theta1: -i times the cube of the eta multiplier.

    The phase is 3 * phase(eta) - 1/2 = (3 P - 6 k)/(12 k), k = max(c, 1), modulo 2, so
    exact statements like theta_multiplier(S).value == -i survive as rational equalities.
    """
    return _multiplier(3 * _eta_numerator(mat) - 6 * max(mat.c, 1), max(mat.c, 1))

"""Integer modular-group arithmetic and its action on the upper half plane.

Covers the 2x2 integer matrices of determinant one, the Moebius action
tau -> (a tau + b)/(c tau + d), the principal branch of complex powers,
Gauss reduction of tau into the fundamental domain |Re tau| <= 1/2,
|tau| >= 1, and the change of variables (H, h, k, v) with v = -i(c tau + d)
used throughout the transformation-law machinery.

Matrix entries are Python integers, so all group arithmetic is exact at any
size; a broken determinant is detected at construction rather than silently
corrupting downstream multiplier computations.
"""

from __future__ import annotations

import cmath
import math

from ._record import record
from .errors import DomainError, NonConvergenceError, ValidationError

__all__ = [
    "ModularMatrix",
    "IDENTITY",
    "S_INVERSION",
    "moebius_apply",
    "principal_power",
    "reduce_to_fundamental_domain",
    "TransformParams",
    "transform_params_from_matrix",
    "neg_mod_inverse",
]


def require_upper_half(tau: complex) -> complex:
    """Return tau as a complex number, insisting on Im tau > 0."""
    t = complex(tau)
    if not (math.isfinite(t.real) and math.isfinite(t.imag)):
        raise DomainError(f"tau must be finite, got {t}")
    if not t.imag > 0:
        raise DomainError(f"tau must lie in the upper half plane, got {t}")
    return t


def require_int(**values) -> None:
    """Insist that every keyword value is an int and not a bool."""
    for name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{name}={value!r} is not an integer")


def require_coprime(h: int, k: int) -> None:
    """Insist on integers h and k > 0 with gcd(h, k) = 1."""
    if not type(h) is type(k) is int:  # require_int names a bad one
        require_int(h=h, k=k)
    if k <= 0:
        raise ValidationError(f"k must be a positive integer, got {k!r}")
    if math.gcd(h, k) != 1:
        raise ValidationError(f"h={h} and k={k} must be coprime")


@record
class ModularMatrix:
    """Integer matrix (a, b; c, d) with a*d - b*c = 1 exactly."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if not type(self.a) is type(self.b) is type(self.c) is type(self.d) is int:  # require_int names a bad entry
            require_int(a=self.a, b=self.b, c=self.c, d=self.d)
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise ValidationError(f"determinant must be 1, got {det}")

    def __matmul__(self, other: "ModularMatrix") -> "ModularMatrix":
        return ModularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "ModularMatrix":
        return ModularMatrix(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "ModularMatrix":
        return ModularMatrix(self.d, -self.b, -self.c, self.a)

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)


IDENTITY = ModularMatrix(1, 0, 0, 1)
S_INVERSION = ModularMatrix(0, -1, 1, 0)


def _affine(p: int, q: int, tau: complex) -> complex:
    """p tau + q for integers p, q: every c tau + d and a tau + b is formed here.

    p Re tau + q is an exact rational, rounded once by int/int division, so it
    keeps full precision where p Re tau and q cancel; p Im tau is one product
    (one rounding while |p| < 2**53).  A part outside double range (an inf product too) raises DomainError.
    """
    num, den = tau.real.as_integer_ratio()
    try:
        value = complex((p * num + q * den) / den, p * tau.imag)
    except OverflowError:
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise DomainError(f"p tau + q leaves double range at tau={tau}: |p| or |q| is too large")
    return value


def moebius_apply(mat: ModularMatrix, tau: complex) -> complex:
    """Apply (a tau + b)/(c tau + d); determinant one keeps Im > 0."""
    t = require_upper_half(tau)
    return _affine(mat.a, mat.b, t) / _affine(mat.c, mat.d, t)


def principal_power(base: complex, exponent: complex) -> complex:
    """base**exponent with the argument taken in (-pi, pi].

    Negative real bases get argument +pi, including values that arrive with a
    negative-zero imaginary part from upstream arithmetic.
    """
    b = complex(base)
    if b == 0:
        raise DomainError("0 cannot be raised to a complex power on the principal branch")
    if b.imag == 0.0:
        b = complex(b.real, 0.0)  # clears -0.0 so Arg lands on +pi, not -pi
    try:
        return cmath.exp(complex(exponent) * cmath.log(b))
    except OverflowError:
        raise DomainError(f"{b}**{exponent} leaves double range") from None


_GAUSS_STEPS = 1000  # float Gauss steps before a reduction gives up


def reduce_to_fundamental_domain(tau: complex) -> tuple[ModularMatrix, complex, complex]:
    """Gauss-reduce tau into |Re| <= 1/2, |tau| >= 1.

    Returns (A, tau', c tau + d) with tau' = A tau, A signed so that c > 0 or A = (1, b; 0, 1)
    (-A acts identically), and A's denominator as _affine(c, d, tau) forms it: 0 - den negates exactly
    and keeps a zero part +0.0.  Boundary points are accepted as-is (no canonical side is forced);
    Im tau' >= Im tau always.  Inputs that fail to settle within _GAUSS_STEPS steps, or on a matrix whose
    exact image is not a finite point of the domain to a 1e-12 margin (both only at precision limits near
    the real line) raise NonConvergenceError.
    """
    t = start = require_upper_half(tau)
    a, b, c, d = 1, 0, 0, 1  # the matrix so far, as ints: one ModularMatrix at the end
    for _ in range(_GAUSS_STEPS):
        shift = round(t.real)
        if shift:
            a, b = a - shift * c, b - shift * d  # (1, -shift; 0, 1) times the matrix
            t -= shift
        if abs(t) >= 1.0 - 1e-15:
            den = _affine(c, d, start)
            image = _affine(a, b, start) / den
            if image.imag > 0 and abs(image.real) <= 0.5 + 1e-12 and 1.0 - 1e-12 <= abs(image) < math.inf:
                if (c, a) < (0, 0):
                    return ModularMatrix(-a, -b, -c, -d), image, 0 - den
                return ModularMatrix(a, b, c, d), image, den
            break
        a, b, c, d = -c, -d, a, b  # S_INVERSION times the matrix
        t = -1 / t
    raise NonConvergenceError(f"fundamental-domain reduction of tau={tau} found no matrix within {_GAUSS_STEPS} "
                              "float Gauss steps that maps it into the domain")


@record
class TransformParams:
    """Change-of-variables parameters H, h, k and v = -i(c tau + d).

    Derived from a matrix with c > 0 via H = a, k = c, h = -d; then k > 0,
    gcd(h, k) = 1 and H*h = -1 (mod k) hold, and tau = (h + iv)/k recovers
    the original point.
    """

    H: int
    h: int
    k: int
    v: complex

    def __post_init__(self) -> None:
        require_int(H=self.H)
        require_coprime(self.h, self.k)
        if (self.H * self.h + 1) % self.k != 0:
            raise ValidationError(f"H*h = {self.H * self.h} is not -1 modulo k={self.k}")


def transform_params_from_matrix(mat: ModularMatrix, tau: complex) -> TransformParams:
    """Read off (H, h, k, v) from a matrix with c > 0 at the point tau.

    The congruence H*h = -1 (mod k) and gcd(h, k) = 1 follow from the unit
    determinant; they are asserted by the TransformParams constructor.
    """
    if mat.c <= 0:
        raise ValidationError("c must be positive; negate the matrix first (-A acts identically on tau)")
    t = require_upper_half(tau)
    v = -1j * _affine(mat.c, mat.d, t)
    return TransformParams(H=mat.a, h=-mat.d, k=mat.c, v=v)


def neg_mod_inverse(h: int, k: int) -> int:
    """The unique H in [0, k) with H*h = -1 (mod k); 0 when k = 1."""
    require_coprime(h, k)
    return -pow(h, -1, k) % k

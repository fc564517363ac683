"""Numerical replay of the residue-calculus argument behind the
transformation law.

For parameters (h, k, H, v, z, m) with gcd(h, k) = 1, H h = -1 (mod k),
v real, v > |Im z| > 0, and the half-integer order N = m + 1/2, the kernel is

    F(x) = 1/(4 i x) coth(pi N x) cot(pi N x v)
         + sum_{mu=1}^{k-1} B_mu(x)
         + 2 sum_{mu=1}^{k-1} e^{2 pi N z x} B_mu(x)
         + e^{2 pi N z x}/x * 1/(1 - e^{2 pi N x}) * e^{2 pi i N v x}/(1 - e^{2 pi i N v x})
         + e^{-2 pi N z x}/x * e^{2 pi N x}/(1 - e^{2 pi N x}) * 1/(1 - e^{2 pi i N v x})

with building blocks, writing w(mu) = h mu mod k reduced into [1, k-1],

    B_mu(x) = 1/x * e^{2 pi N w x / k}/(1 - e^{2 pi N x})
                  * e^{2 pi i N mu v x / k}/(1 - e^{2 pi i N x v}).

F has a pole of order 3 at x = 0 and simple poles at x = i n/N and
x = -n/(N v) for every nonzero integer n.  The parallelogram contour through
(1/v, i, -1/v, -i) encloses exactly the poles with |n| <= m, so at every
finite m

    contour integral of F  =  2 pi i * (sum of enclosed residues)

exactly; that identity is the module's anchor truth, checked with
circle-quadrature residues that are independent of every closed form here.
Every circle has 64 points and radius 0.35 times its pole's family spacing:
1/N on the imaginary axis, 1/(N v) on the real one, the smaller at the origin.
A kernel point costs k + 4 exponentials; log-identity sums stop below rounding.
verify_residues runs the whole check at one point: closed forms against
closure's circle residues, closure, the log identity and the contour gap.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from . import _RESIDUE_NAMES as __all__  # the package's lazily loaded names
from ._record import record
from .dedekind import dedekind_sum_fast
from .errors import DomainError, GeometryError, QuadratureError, TruncationError, ValidationError
from .modular import ModularMatrix, TransformParams, require_int
from .theta import _MAX_TERMS, DEFAULT_CONTROL, TruncationControl, _product_cutoff, _within_cap
from .transform import _theta_law_log

_TWO_PI = 2.0 * math.pi
_LOG_SUM_HEAD = 0.75  # geometric_log_sum takes the head sum_n a^n/n in closed form for |a| above this
_ROUNDING = 1e-16  # a tail this small changes no digit of the O(1) class sums


@record
class VerifierParams(TransformParams):
    """Kernel parameters (h, k, H, v, z, m); the order N = m + 1/2 derives.

    Constraints: those of TransformParams, v real positive with 1/v finite
    (the swap, the contour vertices +-1/v and the real poles divide by v),
    v > |Im z| > 0, and 1 <= m <= 64 (poles crowd the contour vertices at
    spacing ~1/(2m), so larger m would need more than double precision).
    """

    v: float
    z: complex
    m: int

    def __post_init__(self) -> None:
        super().__post_init__()
        real = isinstance(self.v, (int, float)) and not isinstance(self.v, bool)
        if not (real and math.isfinite(self.v) and self.v > 0 and math.isfinite(1.0 / self.v)):
            raise ValidationError(f"v must be a positive real with 1/v finite, got {self.v!r}")
        if not (isinstance(self.z, (int, float, complex)) and cmath.isfinite(self.z)):
            raise ValidationError(f"z must be a finite number, got {self.z!r}")
        zz = complex(self.z)
        if not 0.0 < abs(zz.imag) < self.v:
            raise ValidationError(f"need v > |Im z| > 0, got v={self.v}, Im z={zz.imag}")
        require_int(m=self.m)
        if not 1 <= self.m <= 64:
            raise ValidationError(f"m must be an integer in [1, 64], got {self.m!r}")

    @property
    def order(self) -> float:
        """Half-integer order N = m + 1/2."""
        return self.m + 0.5


def _pole(p: VerifierParams, family: str, n: int) -> complex:
    """Simple pole n of a family: i n/N for "imag", -n/(N v) for "real"."""
    return 1j * n / p.order if family == "imag" else -n / (p.order * p.v)


def _circle_radius(p: VerifierParams, family: str) -> float:
    """0.35 times the family spacing, the distance from a pole of the family to its nearest neighbour."""
    return 0.35 / (p.order * {"imag": 1.0, "real": p.v, "origin": max(1.0, p.v)}[family])


def nearest_pole_distance(p: VerifierParams, x):
    """Distance from x (a point or an array of points) to the closest kernel pole."""
    xx, n, nv = np.asarray(x, dtype=complex), p.order, p.order * p.v
    d = np.minimum(abs(xx - 1j * np.round(xx.imag * n) / n), abs(xx - np.round(xx.real * nv) / nv))
    return float(d) if d.ndim == 0 else d


def eval_kernel(p: VerifierParams, x):
    """The full kernel F at x (all five groups), stable on the whole contour.

    x is a point (the result is a complex) or an array of points (the result
    has its shape).  With X = 2 pi N x and V = 2 pi i N v x, the factor
    1/(x (1 - e^X) (1 - e^V)) of every group is taken out once, and each
    exponential of X or V takes the sign that keeps its modulus <= 1; a point
    costs k + 4 complex exponentials (4 at k = 1).  A point within 1e-12 of a
    pole, a non-finite x, or a value outside double range (as at small v)
    raises DomainError.
    """
    # a point becomes a 1-element array: the ufunc loops of an array, not numpy scalar math
    xx = np.array(x, dtype=complex, ndmin=1)
    k, v, z, scale = p.k, p.v, complex(p.z), _TWO_PI * p.order
    with np.errstate(all="ignore"):  # one finiteness check below instead, which also rejects a non-finite x
        pnx = scale * xx
        fx, fv = xx.real > 0, xx.imag < 0  # Re X > 0, Re V > 0
        sgx, sgv = np.where(fx, -1.0, 1.0), np.where(fv, -1.0, 1.0)
        # V is its own product: rounded through X it moved F by 4e-11 where the groups cancel (contour vertices)
        ex, ev = np.exp(pnx * sgx), np.exp(2j * math.pi * p.order * v * xx * sgv)
        dx, dv = 1 - ex, 1 - ev
        gap = np.minimum(abs(dx), abs(dv) / v)  # 2 pi N times the distance to the nearest pole, near one
        if np.fmin.reduce(gap, axis=None, initial=np.inf) <= 1e-12 * scale:  # fmin: a nan x is for the check below
            raise DomainError(f"x={complex(xx.flat[np.nanargmin(gap)])} is within 1e-12 of a kernel pole")
        total = 0.25 * (1 + ex) * (1 + ev)  # coth(pi N x) cot(pi N v x)/(4 i x), with cot(y) = i coth(i y)
        # the exponential groups: e^(X (z - fx)) e^(V - fv V) and e^(X (1 - z - fx)) e^(-fv V)
        e4, e5 = np.exp(pnx * (z - fx)), np.exp(pnx * (1 - z - fx))
        total += np.where(fv, e4 + e5 * ev, e4 * ev + e5)
        if k > 1:
            # step j visits mu = j where fv = 0 and mu = k - j where fv = 1: class mu's blocks are then
            # e^(s_j X) (1 + 2 e^(X z)) = e^(s_j X + f c) (1 + e^(c - 2 f c)), w_j = h j mod k,
            # s_j = sgv (w_j + i v j)/k + fv - fx, c = X z + log 2, f = [Re c > 0]; e^(c - 2 f c) <= 1
            c = pnx * z + math.log(2.0)
            lift, fvx = c * (c.real > 0), np.subtract(fv, fx, dtype=float)
            s = np.array([(p.h * j % k + 1j * v * j) / k for j in range(1, k)])
            rows, blocks = max(1, 4096 // max(1, xx.size)), 0  # <= 4096 exponents a block: memory O(points)
            for lo in range(0, k - 1, rows):
                e = (np.multiply.outer(s[lo : lo + rows], sgv) + fvx) * pnx + lift
                blocks += np.exp(e, out=e).sum(axis=0)
            total += blocks * (1 + np.exp(c - 2 * lift))
        total *= sgx * sgv / (dx * dv * xx)
    finite = np.isfinite(total)
    if not finite.all():
        bad = complex(xx[~finite][0])
        raise DomainError(f"eval_kernel at v={v}, z={z}: the kernel leaves double range at x={bad}")
    return complex(total[0]) if np.ndim(x) == 0 else total


def _validate_pole_index(p: VerifierParams, n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n == 0 or abs(n) > p.m:
        raise DomainError(f"pole index must satisfy 1 <= |n| <= m={p.m}, got {n!r}")


def _swap(p: VerifierParams) -> tuple[int, float, complex]:
    """The point (H, 1/v, -iz/v) that the proof pairs with (h, v, z)."""
    return p.H, 1.0 / p.v, -1j * complex(p.z) / p.v


# The closed-form residues evaluate a few scalars each, so they keep cmath and
# math: a ratio e^p/(1 - e^q) costs ~15 us in numpy's array form on a scalar, ~0.6 us in cmath.
def _expm1(x: float, y: float) -> complex:  # e^(x + iy) - 1 with no digit lost as x + iy -> 0
    return complex(math.expm1(x) * math.cos(y) - 2 * math.sin(y / 2) ** 2, math.exp(x) * math.sin(y))


def _imag_family_residue(n: int, k: int, g: int, v: float, z: complex, where: tuple) -> complex:
    """residue_at_imag_pole's formula at pole n of (g, k, v, z), in 3 complex exponentials (2 at k = 1).  A DomainError
    names the call where = (name, v, z, n) when e^{2 pi i n z} overflows or e^{-2 pi |n v|} = |e^beta| rounds to 1."""
    try:
        e_plus, e_minus = cmath.exp(2j * math.pi * n * z), cmath.exp(-2j * math.pi * n * z)
        beta, coth_arg = -_TWO_PI * n * v, math.pi * n * v
        e = math.exp(-2 * abs(coth_arg))  # e^(-|beta|), for coth(coth_arg) and for every ratio below
        res = (1j / (4 * math.pi * n)) * math.copysign((1 + e) / (1 - e), coth_arg)
    except (OverflowError, ZeroDivisionError):
        raise DomainError("{} at v={}, z={}, n={}: an exponential or coth leaves double range".format(*where)) from None
    # a ratio e^p/(1 - e^beta) is -e^(p - beta)/(1 - e) where beta > 0 (sign -1), so nothing overflows
    sign, den = (-1 if beta > 0 else 1), 1 - e
    if k > 1:  # sum_{j<k} e^(2 pi i n g j/k) e^(beta j/k), with j -> k - j where sign < 0, is geometric in rho = e^L:
        # rho (1 - rho^(k-1))/(1 - rho) with Re L = x < 0 and, as e^(2 pi i n g) = 1, rho^(k-1) = e^((k-1) x - i y)
        x, y = sign * beta / k, sign * _TWO_PI * (n * g % k) / k
        block = sign * cmath.exp(complex(x, y)) * _expm1((k - 1) * x, -y) / (_expm1(x, y) * den)
        res += (1j / (2 * math.pi * n)) * (1 + 2 * e_plus) * block
    exp_part = e_plus * (-1 / den if sign < 0 else e / den) + e_minus * (-e / den if sign < 0 else 1 / den)
    return res + (1j / (2 * math.pi * n)) * exp_part


def residue_at_imag_pole(p: VerifierParams, n: int) -> complex:
    """Closed-form residue of F at x = i n / N, for 1 <= |n| <= m:

        (i/(4 pi n)) coth(pi n v)
        + (i/(2 pi n)) (1 + 2 e^{2 pi i n z})
            * sum_{mu=1}^{k-1} e^{2 pi i n h mu / k} E(mu)
        + (i/(2 pi n)) [ e^{2 pi i n z} e^{-2 pi n v}/(1 - e^{-2 pi n v})
                        + e^{-2 pi i n z}/(1 - e^{-2 pi n v}) ]

    with E(mu) = e^{-2 pi n v mu / k}/(1 - e^{-2 pi n v}).
    """
    _validate_pole_index(p, n)
    return _imag_family_residue(n, p.k, p.h, p.v, p.z, ("residue_at_imag_pole", p.v, p.z, n))


def residue_at_real_pole(p: VerifierParams, n: int) -> complex:
    """Closed-form residue of F at x = -n/(N v), for 1 <= |n| <= m:

        (1/(4 pi i n)) coth(pi n / v)
        + (1/(2 pi i n)) (1 + 2 e^{-2 pi n z / v})
            * sum_{w=1}^{k-1} e^{2 pi i n H w / k} E(w)
        + (1/(2 pi i n)) [ e^{-2 pi n z / v}/(1 - e^{-2 pi n / v})
                          + e^{2 pi n z / v} e^{-2 pi n / v}/(1 - e^{-2 pi n / v}) ]

    with E(w) = e^{-2 pi n w/(k v)}/(1 - e^{-2 pi n / v}).  This is minus the
    imaginary-family formula at pole -n of the swapped point (H, 1/v, -iz/v):
    there E(j) is -E(k - j), and with w = k - j and coth odd each group is
    minus its group here.
    """
    _validate_pole_index(p, n)
    return -_imag_family_residue(-n, p.k, *_swap(p), ("residue_at_real_pole", p.v, p.z, n))


@record
class OriginResidue:
    """The two closed forms for the order-3 residue at x = 0.

    compact is the one-line form

        k z^2/(i v) - z/(i v) + z + (i/(4k)) (v - 1/v) + 3 s(h, k),

    assembled is the sum of the per-group residues in parts.  The two differ
    by exactly 1/2: the compact form drops the constant -1/2 carried by the
    exponential-weighted terms.  The quadrature oracle arbitrates; assembled
    is the one that matches it and restores residue-theorem closure.
    """

    compact: complex
    assembled: complex
    parts: dict

    @property
    def discrepancy(self) -> complex:
        return self.compact - self.assembled


def residue_at_origin(p: VerifierParams) -> OriginResidue:
    """Residue of F at its triple pole x = 0, by exact Laurent bookkeeping.

    Per-group contributions (z-independent pieces written with
    V = i(v - 1/v)):
      coth_cot          : V/12
      block_sum         : -(k-1)/(12k) * V + s(h, k)
      block_sum_weighted: twice block_sum plus (k-1) z^2/(i v)
      exp_terms         : z^2/(iv) - z/(iv) + z - 1/2 + V/6
    A residue outside double range raises DomainError.
    """
    v, k, z = p.v, p.k, complex(p.z)
    s_hk = float(dedekind_sum_fast(p.h, p.k))
    iv = 1j * v
    vterm = 1j * (v - 1.0 / v)
    coth_cot = vterm / 12.0
    block_sum = -(k - 1) / (12.0 * k) * vterm + s_hk if k > 1 else 0j
    block_sum_weighted = 2.0 * block_sum + (k - 1) * z * z / iv
    exp_terms = z * z / iv - z / iv + z - 0.5 + vterm / 6.0
    parts = dict(coth_cot=coth_cot, block_sum=block_sum, block_sum_weighted=block_sum_weighted, exp_terms=exp_terms)
    assembled = coth_cot + block_sum + block_sum_weighted + exp_terms
    compact = k * z * z / iv - z / iv + z + vterm / (4.0 * k) + 3.0 * s_hk
    if not (cmath.isfinite(compact) and cmath.isfinite(assembled)):
        raise DomainError(f"residue_at_origin at v={v}, z={z}: the residue leaves double range")
    return OriginResidue(compact=complex(compact), assembled=complex(assembled), parts=parts)


_CIRCLE_POINTS = 64  # trapezoid error ~0.35^n on circles of radius 0.35 x the pole separation


@lru_cache(maxsize=None)
def _circle_rotations(points: int) -> np.ndarray:
    rot = np.exp(2j * np.pi * np.arange(points) / points)
    rot.flags.writeable = False  # a constant table, shared by every call
    return rot


def _circle_sums(func, poles, radii, points: int = _CIRCLE_POINTS) -> np.ndarray:
    """(1/(2 pi i)) * integral of func over each circle (pole, radius) by the trapezoid
    rule: one func call on all circle points, an array of shape poles.shape + (points,)."""
    rot = _circle_rotations(points)
    radii = np.asarray(radii, dtype=float)
    values = func(np.asarray(poles, dtype=complex)[..., None] + radii[..., None] * rot)
    return (values * rot).sum(axis=-1) * radii / points


def circle_residue(func, pole: complex, radius: float) -> complex:
    """(1/(2 pi i)) * integral of func over a circle, by the 64-point trapezoid rule.

    func is called once, on the array of all circle points.  Spectrally
    accurate for integrands analytic in a punctured neighbourhood; serves as
    the oracle for every closed-form residue.
    """
    if not (cmath.isfinite(pole) and math.isfinite(radius) and radius > 0):
        raise ValidationError(f"need a finite pole and a finite positive radius, got {pole}, {radius}")
    return complex(_circle_sums(func, pole, radius))


@record
class ResidueReport:
    """Closed form vs quadrature oracle for one pole."""

    pole: complex
    closed_form: complex
    oracle: complex

    @property
    def discrepancy(self) -> float:
        return abs(self.closed_form - self.oracle)


_CLOSED_FORMS = {"imag": residue_at_imag_pole, "real": residue_at_real_pole}  # simple-pole residue by family


def simple_pole_report(p: VerifierParams, family: str, n: int) -> ResidueReport:
    """Report for the simple pole of the given family ("imag" or "real")."""
    if family not in _CLOSED_FORMS:
        raise ValidationError(f"family must be 'imag' or 'real', got {family!r}")
    pole, closed = _pole(p, family, n), _CLOSED_FORMS[family](p, n)
    oracle = circle_residue(lambda x: eval_kernel(p, x), pole, _circle_radius(p, family))
    return ResidueReport(pole=pole, closed_form=closed, oracle=oracle)


@record
class OriginReport:
    """Both origin closed forms against the oracle; never silently passes."""

    origin: OriginResidue
    oracle: complex

    @property
    def discrepancy_assembled(self) -> float:
        return abs(self.origin.assembled - self.oracle)


def origin_report(p: VerifierParams) -> OriginReport:
    oracle = circle_residue(lambda x: eval_kernel(p, x), 0j, _circle_radius(p, "origin"))
    return OriginReport(origin=residue_at_origin(p), oracle=oracle)


def enclosed_poles(p: VerifierParams) -> list[tuple[str, int, complex]]:
    """All poles inside the parallelogram contour as (family, n, location), in report order:
    the origin, then the imag family and the real family, each by n = -m..m, n != 0."""
    simple = [(family, n) for family in ("imag", "real") for n in range(-p.m, p.m + 1) if n]
    return [("origin", 0, 0j)] + [(family, n, _pole(p, family, n)) for family, n in simple]


def _vertices(p: VerifierParams) -> tuple[complex, ...]:
    """The contour's vertices in traversal order; edge j runs from vertex j to vertex j + 1 (mod 4)."""
    return (1.0 / p.v, 1j, -1.0 / p.v, -1j)


# bit for bit np.polynomial.legendre.leggauss(24) and (12), mirrored (each is exactly symmetric): it never loads
_GL_X = (0.06405689286260563, 0.1911188674736163, 0.3150426796961634, 0.4337935076260451, 0.5454214713888396,
         0.6480936519369755, 0.7401241915785544, 0.820001985973903, 0.8864155270044011, 0.9382745520027328,
         0.9747285559713095, 0.9951872199970213)
_GL_W = (0.12793819534675202, 0.12583745634682825, 0.1216704729278033, 0.11550566805372552, 0.10744427011596556,
         0.09761865210411393, 0.0861901615319532, 0.07334648141108016, 0.05929858491543636, 0.04427743881741941,
         0.02853138862893356, 0.01234122979998869)
_GL12_X = (0.1252334085114689, 0.3678314989981802, 0.5873179542866175, 0.7699026741943047, 0.9041172563704748,
           0.9815606342467192)
_GL12_W = (0.2491470458134027, 0.2334925365383546, 0.20316742672306573, 0.16007832854334642, 0.10693932599531907,
           0.04717533638651141)
_GL_NODES, _GL_WEIGHTS = np.array([-x for x in _GL_X[::-1]] + list(_GL_X)), np.array(_GL_W[::-1] + _GL_W)
_GL12_NODES, _GL12_WEIGHTS = np.array([-x for x in _GL12_X[::-1]] + list(_GL12_X)), np.array(_GL12_W[::-1] + _GL12_W)
_PANEL_NODES = np.concatenate([_GL_NODES, _GL12_NODES])  # 36 kernel points a panel


def _gl_panels(p: VerifierParams, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """24- and 12-point Gauss-Legendre values of the kernel on the panels [a_j, b_j],
    both from one kernel call on the 36 nodes of every panel."""
    half = 0.5 * (b - a)
    values = eval_kernel(p, (0.5 * (a + b))[:, None] + half[:, None] * _PANEL_NODES)
    return (values[:, :24] @ _GL_WEIGHTS) * half, (values[:, 24:] @ _GL12_WEIGHTS) * half


def contour_integral(p: VerifierParams) -> complex:
    """Integral of the kernel over the parallelogram (1/v, i, -1/v, -i),
    traversed counterclockwise.

    Composite adaptive 24-point Gauss-Legendre per edge, with sorted dyadic
    breakpoints toward the vertices where the pole families accumulate, down
    to 2^-depth of an edge, depth = max(8, ceil(log2(8 N))): at most 1/(8 N),
    safely below the pole-to-path distance, and 2^-8 for every m <= 31, where
    the floor binds.  A panel's 24-point value stands where the 12-point rule,
    in the same kernel call, agrees with it (the tolerances add up to 1e-9,
    halved per split); the others are split, at most depth + 1 times, breadth
    first, one kernel call a level: 64 x 36 = 2304 points if none splits at m <= 31.
    The poles nearest the path are n = +-m of both families, 1/(2 N hypot(1, v))
    from their edges (every outside pole is 1/(2 N max(1, v)) or more from a
    vertex): GeometryError if that is below 1e-6, QuadratureError if refinement stalls.
    """
    clearance = 0.5 / (p.order * math.hypot(1.0, p.v))
    if clearance < 1e-6:
        raise GeometryError(f"at v={p.v}, m={p.m} the poles n = +-m lie {clearance:.3g} from the contour, below 1e-6")
    ea = np.array(_vertices(p))
    eb = np.roll(ea, -1)
    depth = max(8, math.ceil(math.log2(8.0 * p.order)))
    steps = 0.5 ** np.arange(1, depth + 1)
    breaks = np.r_[0.0, steps[::-1], 1.0 - steps[1:], 1.0]  # sorted, 1/2 once
    a = (ea[:, None] + (eb - ea)[:, None] * breaks[:-1]).ravel()
    b = (ea[:, None] + (eb - ea)[:, None] * breaks[1:]).ravel()
    tol = 1e-9 / a.size
    total = 0j
    for level in range(depth + 1, -1, -1):
        g24, g12 = _gl_panels(p, a, b)
        err = abs(g24 - g12)
        done = (err <= tol) | (err <= 1e-12 * abs(g24))
        total += g24[done].sum()
        if done.all():
            return complex(total)
        mid = 0.5 * (a + b)
        if level == 0:
            j = np.flatnonzero(~done)[0]
            raise QuadratureError(
                f"contour quadrature not converged on [{a[j]}, {b[j]}]: panel error {err[j]:.3g}, "
                f"midpoint {nearest_pole_distance(p, mid[j]):.2g} from the nearest kernel pole"
            )
        a, b = np.concatenate([a[~done], mid[~done]]), np.concatenate([mid[~done], b[~done]])
        tol *= 0.5


def contour_gap(p: VerifierParams) -> float:
    """|contour integral - (-log v)|: the finite-m gap to the limit value."""
    return abs(contour_integral(p) - (-math.log(p.v)))


@record
class EnclosedResidue:
    """One enclosed pole, its circle radius and its quadrature residue."""

    family: str
    n: int
    pole: complex
    radius: float
    residue: complex


@record
class ClosureReport:
    """Residue-theorem closure at finite m: contour vs 2 pi i * residue sum,
    with the quadrature residue of every enclosed pole."""

    contour: complex
    residue_sum: complex
    poles: tuple[EnclosedResidue, ...]

    @property
    def residual(self) -> float:
        return abs(self.contour - 2j * math.pi * self.residue_sum)


def closure_residual(p: VerifierParams) -> ClosureReport:
    """Check contour = 2 pi i * sum of quadrature residues over enclosed poles.

    Holds exactly at every finite m for any meromorphic integrand, so it
    validates kernel, pole bookkeeping and quadrature at once, independent of
    any closed form.  The circles are those of simple_pole_report and
    origin_report (64 points, 0.35 times the family spacing), all of them in
    one kernel call.
    """
    enclosed = enclosed_poles(p)
    centres = [pole for *_, pole in enclosed]
    radii = [_circle_radius(p, family) for family, *_ in enclosed]
    found = _circle_sums(lambda x: eval_kernel(p, x), centres, radii).tolist()
    poles = tuple(EnclosedResidue(*e, r, q) for e, r, q in zip(enclosed, radii, found))
    return ClosureReport(contour=contour_integral(p), residue_sum=sum(found), poles=poles)


# limits of x*F(x) on the open edges, indexed like the vertices:
# edge 0 = (1/v -> i), 1 = (i -> -1/v), 2 = (-1/v -> -i), 3 = (-i -> 1/v)
EDGE_LIMITS = (-0.25, 0.25, -0.25, 0.25)


def edge_limit_probe(p: VerifierParams, edge_index: int, t: float) -> complex:
    """x * F(x) at parameter t along the given contour edge.

    Probes must stay away from the vertices (0.1 < t < 0.9); as m grows the
    probe approaches EDGE_LIMITS[edge_index] wherever the exponential terms
    of the kernel decay on that edge.
    """
    if edge_index not in (0, 1, 2, 3):
        raise ValidationError(f"edge_index must be 0..3, got {edge_index!r}")
    if not 0.1 < t < 0.9:
        raise ValidationError(f"probe parameter must satisfy 0.1 < t < 0.9, got {t}")
    verts = _vertices(p)
    x = (1.0 - t) * verts[edge_index] + t * verts[(edge_index + 1) % 4]
    return x * eval_kernel(p, x)


def geometric_log_sum(a: complex, r: float | complex, cap: int) -> complex:
    """sum_{n=1}^{cap} a^n / (n (1 - r^n)) for a ratio 0 <= |r| < 1 (at r = 0, sum a^n/n -> -log(1 - a)).

    For |a| <= 3/4 the sum is taken term by term.  For larger |a| the head
    sum_n a^n / n (slowly convergent on |a| = 1, formally divergent beyond) is
    replaced by its closed form -log(1 - a) and only the remainder, whose
    terms shrink like (|a| |r|)^n, is summed; that remainder evaluation is the
    analytic continuation of the defining sum and agrees with it wherever both
    converge.  A head on the branch cut (real a > 1) takes the cut's +i pi side of
    -log(1 - a); the class expansions that use S hold modulo 2 pi i, so either side serves.
    """
    aa, rr = complex(a), complex(r)
    if not cmath.isfinite(aa):
        raise ValidationError(f"a must be finite, got a = {aa}")
    if not abs(rr) < 1.0:
        raise DomainError(f"|r| must be in [0, 1), got r = {rr}")
    require_int(cap=cap)
    if cap < 1:
        raise ValidationError(f"cap must be at least 1, got {cap}")
    if abs(aa) * abs(rr) >= 1.0 - 1e-12:
        raise DomainError(f"geometric log sum diverges: |a r| = {abs(aa) * abs(rr):.6g} is not below 1")
    if abs(1 - aa) < 1e-12:
        raise DomainError("geometric log sum hits the lattice: a = 1")
    if abs(aa) <= _LOG_SUM_HEAD:
        total, step = 0j, aa
    else:
        total, step = -cmath.log(1 - aa), aa * rr
    term = rn = 1 + 0j
    for n in range(1, cap + 1):
        term *= step
        rn *= rr
        total += term / (n * (1.0 - rn))
        if abs(term) < 1e-320:
            break
    return total


def _class_expansion(k: int, h: int, v: complex, z: complex, cap: int, tol: float,
                     where: tuple) -> tuple[complex, float]:
    """(expansion, need): log_theta1_by_residue_classes' expansion at the point (h, v, z), -i pi/2 + i pi z
    + i pi (iv + h)/(4k) less sum_{mu=1}^{k} S(a_mu) + S(a_mu e^{2 pi i z}) + S(a_{mu-1} e^{-2 pi i z}) with
    a_j = e^{2 pi i h j/k - 2 pi v j/k}, and need, the most terms any S takes for a tail below tol.  Each S runs
    to min(cap, its count for a tail below _ROUNDING); both counts are theta._product_cutoff's, and a need past
    cap is the caller's to raise.  Where e^{-2 pi v} rounds to 1 (1 - r^n = 0) need is past 3e13, and no S runs
    while need is past cap.  A class term a_mu e^(+-2 pi i z) that overflows raises DomainError naming the call
    where = (name, v, z).
    """
    v = complex(v)
    r = math.exp(-_TWO_PI * v.real)
    one_minus_r = -math.expm1(-_TWO_PI * v.real)  # stays nonzero where r rounds to 1
    # complex v keeps a residual phase in the ratio e^{-2 pi v}
    ratio = r * cmath.exp(-_TWO_PI * 1j * v.imag) if v.imag else r
    # each a_mu e^{+-2 pi i z} is one exponential of a summed exponent: it can be in range where e^{2 pi i z} is not
    log_a = [2j * math.pi * h * j / k - _TWO_PI * v * j / k for j in range(k + 1)]
    iz = 2j * math.pi * z
    closed, total, need = -0.5j * math.pi + 1j * math.pi * z + 1j * math.pi * (1j * v + h) / (4 * k), 0j, 0
    try:
        for mu in range(1, k + 1):
            for x in map(cmath.exp, (log_a[mu], log_a[mu] + iz, log_a[mu - 1] - iz)):
                # S(x)'s n-th summand is O(q^n): q = |x|, or |x| r past geometric_log_sum's closed-form head
                q = min(abs(x) if abs(x) <= _LOG_SUM_HEAD else abs(x) * r, 1.0 - 1e-12)
                scale = (1.0 - q) / one_minus_r
                need = max(need, _product_cutoff(scale, q, tol))
                if r < 1.0 or need <= cap:
                    total += geometric_log_sum(x, ratio, min(cap, _product_cutoff(scale, q, _ROUNDING)))
    except OverflowError:
        raise DomainError("{} at v={}, z={}: a_mu e^(+-2 pi i z) overflows".format(*where)) from None
    return closed - total, need


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
    head); a class term exactly at a = 1 (z on the zero lattice) raises DomainError.
    Each S runs until its tail is below rounding (1e-16), at most theta._MAX_TERMS terms; ctl bounds the
    terms needed, not the terms taken: an S that needs more than _MAX_TERMS terms for a tail below
    ctl.tolerance raises TruncationError.  log_identity_residual takes this expansion at both of its points.
    """
    v = complex(params.v)
    if not v.real > 0:
        raise DomainError(f"Re v must be positive, got v={v}")
    zz = complex(z)
    if abs(zz.imag) >= v.real:
        raise DomainError(f"|Im z| = {abs(zz.imag):.6g} must stay below Re v = {v.real:.6g}")
    value, need = _class_expansion(params.k, params.h, v, zz, _MAX_TERMS, ctl.tolerance,
                                   ("log_theta1_by_residue_classes", v, zz))
    _within_cap(need, ctl.tolerance)
    return value


def log_identity_residual(p: VerifierParams, sum_cap: int = 400) -> float:
    """|swap - main - L|, the imaginary part reduced modulo 2 pi: the transformation law at
    A = (H, -(H h + 1)/k; k, -h) and tau = (h + iv)/k, where c tau + d = iv, A tau = (H + i/v)/k and
    z/(c tau + d) = -iz/v (Iseki's formula; Apostol, ch. 3).

    main and swap are log_theta1_by_residue_classes' expansions at (h, v, z) and at the swapped point
    (H, 1/v, -iz/v), and L is the evaluator's own law factor, transform._theta_law_log(A, z, iv).  L less
    the two closed parts (swap's minus main's) is the paper's -i pi/2 + 3 i pi s(h,k) - (pi/(4k))(v - 1/v)
    + pi z^2 k/v + i pi z - pi z/v + (1/2) log v, modulo 2 pi i (a test keeps that form).  Every inner
    n-sum stops at sum_cap terms, or sooner where its tail is below 1e-16, and a sum_cap that leaves a tail
    above IDENTITY_TOL raises TruncationError naming the terms needed; the sums are the m -> infinity
    limits of the enclosed-residue totals, so a small residual here is the law the whole contour argument
    proves.  Each expansion is a sum of principal-branch logarithms, so the identity holds only modulo
    2 pi i.  Unlike log_theta1_by_residue_classes this does not require |Re z| < 1 (|Im z'| < 1/v on the
    swapped side): its sums converge, and the identity holds, for -1 < Re z < 1 + 1/k; past that a sum
    diverges (DomainError).
    """
    require_int(sum_cap=sum_cap)
    if sum_cap < 1:
        raise ValidationError(f"sum_cap must be positive, got {sum_cap}")
    z = complex(p.z)
    where = ("log_identity_residual", p.v, z)
    main, need = _class_expansion(p.k, p.h, p.v, z, sum_cap, IDENTITY_TOL, where)
    swap, swap_need = _class_expansion(p.k, *_swap(p), sum_cap, IDENTITY_TOL, where)
    need = max(need, swap_need)
    if need > sum_cap:  # a short cap is an error, not a residual
        raise TruncationError(f"log identity needs {need} terms, not {sum_cap}, for tails below {IDENTITY_TOL}")
    diff = swap - main - _theta_law_log(ModularMatrix(p.H, -(p.H * p.h + 1) // p.k, p.k, -p.h), z, 1j * p.v)
    return abs(complex(diff.real, math.remainder(diff.imag, _TWO_PI)))


CLOSURE_REL_TOL = 1e-10  # closure passes below this share of 2 pi * (sum of |quadrature residues|)
IDENTITY_TOL = 1e-8


@record
class ResidueVerification:
    """verify_residues at one point; closed_forms follow closure.poles: origin, imag, real (each by n)."""

    origin: OriginResidue
    closure: ClosureReport
    closed_forms: tuple[complex, ...]
    identity: float
    gap: float
    closure_tol: float
    passed: bool


def verify_residues(p: VerifierParams, cap: int = 400) -> ResidueVerification:
    """Each closed form against closure's circle residue (every circle integrated once), closure within
    CLOSURE_REL_TOL, the log identity (inner sums cut at cap terms) within IDENTITY_TOL, and the contour gap."""
    closure = closure_residual(p)
    origin = residue_at_origin(p)
    closed = (origin.assembled,) + tuple(_CLOSED_FORMS[e.family](p, e.n) for e in closure.poles[1:])
    tol = CLOSURE_REL_TOL * 2 * math.pi * sum(abs(e.residue) for e in closure.poles)
    identity = log_identity_residual(p, cap)
    gap = abs(closure.contour - (-math.log(p.v)))
    passed = closure.residual < tol and identity < IDENTITY_TOL
    return ResidueVerification(origin, closure, closed, identity, gap, tol, passed)

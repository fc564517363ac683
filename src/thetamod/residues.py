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
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dedekind import dedekind_sum_fast
from .errors import (
    DomainError,
    GeometryError,
    QuadratureError,
    ValidationError,
)
from .theta import geometric_log_sum

__all__ = [
    "VerifierParams",
    "ResidueReport",
    "OriginResidue",
    "eval_kernel_block",
    "eval_kernel",
    "residue_at_imag_pole",
    "residue_at_real_pole",
    "residue_at_origin",
    "circle_residue",
    "numeric_residue",
    "simple_pole_report",
    "origin_report",
    "enclosed_poles",
    "contour_integral",
    "contour_gap",
    "closure_residual",
    "ClosureReport",
    "edge_limit_probe",
    "EDGE_LIMITS",
    "log_identity_residual",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class VerifierParams:
    """Kernel parameters (h, k, H, v, z, m); the order N = m + 1/2 derives.

    Constraints: k positive, gcd(h, k) = 1, H h = -1 (mod k), v real positive
    with v > |Im z| > 0, and 1 <= m <= 64 (poles crowd the contour vertices
    at spacing ~1/(2m), so larger m would need more than double precision).
    """

    h: int
    k: int
    H: int
    v: float
    z: complex
    m: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k <= 0:
            raise ValidationError(f"k must be a positive integer, got {self.k!r}")
        if math.gcd(self.h, self.k) != 1:
            raise ValidationError(f"h={self.h}, k={self.k} must be coprime")
        if (self.H * self.h + 1) % self.k != 0:
            raise ValidationError(f"H*h must be -1 mod k, got H={self.H}, h={self.h}, k={self.k}")
        if not (isinstance(self.v, (int, float)) and math.isfinite(self.v) and self.v > 0):
            raise ValidationError(f"v must be a positive real, got {self.v!r}")
        zz = complex(self.z)
        if not 0.0 < abs(zz.imag) < self.v:
            raise ValidationError(
                f"need v > |Im z| > 0, got v={self.v}, Im z={zz.imag}"
            )
        if not (isinstance(self.m, int) and 1 <= self.m <= 64):
            raise ValidationError(f"m must be an integer in [1, 64], got {self.m!r}")

    @property
    def order(self) -> float:
        """Half-integer order N = m + 1/2."""
        return self.m + 0.5


def _exp_ratio(p: complex, q: complex) -> complex:
    """e^p / (1 - e^q), rewritten when Re q > 0 so nothing overflows."""
    if q.real > 0:
        return -cmath.exp(p - q) / (1 - cmath.exp(-q))
    return cmath.exp(p) / (1 - cmath.exp(q))


def _coth(x: complex) -> complex:
    if x.real >= 0:
        e = cmath.exp(-2 * x)
        return (1 + e) / (1 - e)
    e = cmath.exp(2 * x)
    return -(1 + e) / (1 - e)


def _cot(x: complex) -> complex:
    if x.imag >= 0:
        e = cmath.exp(2j * x)
        return 1j * (e + 1) / (e - 1)
    e = cmath.exp(-2j * x)
    return 1j * (1 + e) / (1 - e)


def _pole(p: VerifierParams, family: str, n: int) -> complex:
    """Simple pole n of a family: i n/N for "imag", -n/(N v) for "real"."""
    if family == "imag":
        return 1j * n / p.order
    return -n / (p.order * p.v)


def _pole_lattice(p: VerifierParams, n_max: int):
    """(family, n, pole) for the origin, then imag +-n and real +-n, n = 1..n_max."""
    yield "origin", 0, 0j
    for n in range(1, n_max + 1):
        for family in ("imag", "real"):
            for signed in (n, -n):
                yield family, signed, _pole(p, family, signed)


def nearest_pole_distance(p: VerifierParams, x: complex) -> float:
    """Distance from x to the closest pole of the kernel (any family)."""
    xx = complex(x)
    n_order = p.order
    return min(
        abs(xx - _pole(p, "imag", round(xx.imag * n_order))),
        abs(xx - _pole(p, "real", round(-xx.real * n_order * p.v))),
    )


def _require_off_poles(p: VerifierParams, x: complex, min_distance: float = 1e-12) -> complex:
    xx = complex(x)
    if nearest_pole_distance(p, xx) <= min_distance:
        raise DomainError(f"x={xx} is within {min_distance} of a kernel pole")
    return xx


def _block_residue_class(p: VerifierParams, mu: int) -> int:
    return (p.h * mu) % p.k


def eval_kernel_block(p: VerifierParams, x: complex, mu: int) -> complex:
    """The building block B_mu at x, for 1 <= mu <= k-1 (empty family at k=1)."""
    if not 1 <= mu <= p.k - 1:
        raise ValidationError(
            f"mu must be in [1, k-1]; got mu={mu} with k={p.k}"
        )
    xx = _require_off_poles(p, x)
    n_order = p.order
    w = _block_residue_class(p, mu)
    pnx = _TWO_PI * n_order * xx
    pnvx = 2j * math.pi * n_order * p.v * xx
    return _exp_ratio(pnx * w / p.k, pnx) * _exp_ratio(pnvx * mu / p.k, pnvx) / xx


def eval_kernel(p: VerifierParams, x: complex) -> complex:
    """The full kernel F at x (all five groups), stable on the whole contour."""
    xx = _require_off_poles(p, x)
    n_order = p.order
    k, v, z = p.k, p.v, complex(p.z)
    pnx = _TWO_PI * n_order * xx
    pnvx = 2j * math.pi * n_order * v * xx
    total = _coth(math.pi * n_order * xx) * _cot(math.pi * n_order * v * xx) / (4j * xx)
    for mu in range(1, k):
        w = _block_residue_class(p, mu)
        v_factor = _exp_ratio(pnvx * mu / k, pnvx)
        plain = _exp_ratio(pnx * (w / k), pnx)
        weighted = _exp_ratio(pnx * (w / k + z), pnx)
        total += (plain + 2.0 * weighted) * v_factor / xx
    total += _exp_ratio(pnx * z, pnx) * _exp_ratio(pnvx, pnvx) / xx
    total += _exp_ratio(pnx * (1 - z), pnx) * _exp_ratio(0j, pnvx) / xx
    return total


def _validate_pole_index(p: VerifierParams, n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n == 0 or abs(n) > p.m:
        raise DomainError(f"pole index must satisfy 1 <= |n| <= m={p.m}, got {n!r}")


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
    v, k, z = p.v, p.k, complex(p.z)
    beta = complex(-_TWO_PI * n * v)
    res = (1j / (4 * math.pi * n)) * _coth(complex(math.pi * n * v))
    if k > 1:
        block = 0j
        for mu in range(1, k):
            block += cmath.exp(2j * math.pi * n * p.h * mu / k) * _exp_ratio(beta * mu / k, beta)
        res += (1j / (2 * math.pi * n)) * (1 + 2 * cmath.exp(2j * math.pi * n * z)) * block
    exp_part = cmath.exp(2j * math.pi * n * z) * _exp_ratio(beta, beta) + cmath.exp(
        -2j * math.pi * n * z
    ) * _exp_ratio(0j, beta)
    res += (1j / (2 * math.pi * n)) * exp_part
    return res


def residue_at_real_pole(p: VerifierParams, n: int) -> complex:
    """Closed-form residue of F at x = -n/(N v), for 1 <= |n| <= m:

        (1/(4 pi i n)) coth(pi n / v)
        + (1/(2 pi i n)) (1 + 2 e^{-2 pi n z / v})
            * sum_{w=1}^{k-1} e^{2 pi i n H w / k} E(w)
        + (1/(2 pi i n)) [ e^{-2 pi n z / v}/(1 - e^{-2 pi n / v})
                          + e^{2 pi n z / v} e^{-2 pi n / v}/(1 - e^{-2 pi n / v}) ]

    with E(w) = e^{-2 pi n w/(k v)}/(1 - e^{-2 pi n / v}); the block sum runs
    over the residue classes w = h mu mod k, reindexed through
    H h = -1 (mod k).
    """
    _validate_pole_index(p, n)
    v, k, z = p.v, p.k, complex(p.z)
    beta = complex(-_TWO_PI * n / v)
    res = (1 / (4j * math.pi * n)) * _coth(complex(math.pi * n / v))
    if k > 1:
        block = 0j
        for w in range(1, k):
            block += cmath.exp(2j * math.pi * n * p.H * w / k) * _exp_ratio(beta * w / k, beta)
        res += (1 / (2j * math.pi * n)) * (1 + 2 * cmath.exp(-_TWO_PI * n * z / v)) * block
    exp_part = cmath.exp(-_TWO_PI * n * z / v) * _exp_ratio(0j, beta) + cmath.exp(
        _TWO_PI * n * z / v
    ) * _exp_ratio(beta, beta)
    res += (1 / (2j * math.pi * n)) * exp_part
    return res


@dataclass(frozen=True)
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
    """
    v, k, z = p.v, p.k, complex(p.z)
    s_hk = float(dedekind_sum_fast(p.h, p.k))
    iv = 1j * v
    vterm = 1j * (v - 1.0 / v)
    coth_cot = vterm / 12.0
    if k > 1:
        block_sum = -(k - 1) / (12.0 * k) * vterm + s_hk
    else:
        block_sum = 0j
    block_sum_weighted = 2.0 * block_sum + (k - 1) * z * z / iv
    exp_terms = z * z / iv - z / iv + z - 0.5 + vterm / 6.0
    parts = {
        "coth_cot": complex(coth_cot),
        "block_sum": complex(block_sum),
        "block_sum_weighted": complex(block_sum_weighted),
        "exp_terms": complex(exp_terms),
    }
    assembled = coth_cot + block_sum + block_sum_weighted + exp_terms
    compact = k * z * z / iv - z / iv + z + vterm / (4.0 * k) + 3.0 * s_hk
    return OriginResidue(compact=complex(compact), assembled=complex(assembled), parts=parts)


def circle_residue(func, pole: complex, radius: float, points: int = 128) -> complex:
    """(1/(2 pi i)) * integral of func over a circle, by the trapezoid rule.

    Spectrally accurate for integrands analytic in a punctured neighbourhood;
    serves as the oracle for every closed-form residue.
    """
    if points < 64:
        raise ValidationError(f"need at least 64 quadrature points, got {points}")
    if not radius > 0:
        raise ValidationError(f"radius must be positive, got {radius}")
    total = 0j
    for j in range(points):
        rot = cmath.exp(2j * math.pi * j / points)
        total += func(pole + radius * rot) * rot
    return total * radius / points


def _nearest_other_pole_distance(p: VerifierParams, pole: complex) -> float:
    distances = (abs(pole - other) for _family, _n, other in _pole_lattice(p, p.m + 4))
    return min(d for d in distances if d > 1e-13)


def numeric_residue(
    p: VerifierParams, pole: complex, radius: float | None = None, points: int = 128
) -> complex:
    """Quadrature residue of the kernel at the given pole.

    The circle must separate the pole from its neighbours: no other pole may
    lie within twice the radius.  With radius omitted, 0.35 times the
    nearest-neighbour distance is used.
    """
    separation = _nearest_other_pole_distance(p, pole)
    if radius is None:
        radius = 0.35 * separation
    if 2.0 * radius > separation:
        raise GeometryError(
            f"radius {radius:.3g} too large: another pole lies within {separation:.3g}"
        )
    return circle_residue(lambda x: eval_kernel(p, x), pole, radius, points)


@dataclass(frozen=True)
class ResidueReport:
    """Closed form vs quadrature oracle for one pole."""

    pole: complex
    order: int
    closed_form: complex
    oracle: complex

    @property
    def discrepancy(self) -> float:
        return abs(self.closed_form - self.oracle)


def simple_pole_report(p: VerifierParams, family: str, n: int) -> ResidueReport:
    """Report for the simple pole of the given family ("imag" or "real")."""
    if family not in ("imag", "real"):
        raise ValidationError(f"family must be 'imag' or 'real', got {family!r}")
    closed = (residue_at_imag_pole if family == "imag" else residue_at_real_pole)(p, n)
    pole = _pole(p, family, n)
    oracle = numeric_residue(p, pole)
    return ResidueReport(pole=pole, order=1, closed_form=closed, oracle=oracle)


@dataclass(frozen=True)
class OriginReport:
    """Both origin closed forms against the oracle; never silently passes."""

    origin: OriginResidue
    oracle: complex

    @property
    def discrepancy_compact(self) -> float:
        return abs(self.origin.compact - self.oracle)

    @property
    def discrepancy_assembled(self) -> float:
        return abs(self.origin.assembled - self.oracle)


def origin_report(p: VerifierParams) -> OriginReport:
    return OriginReport(origin=residue_at_origin(p), oracle=numeric_residue(p, 0j))


def enclosed_poles(p: VerifierParams) -> list[tuple[str, int, complex]]:
    """All poles inside the parallelogram contour: (family, n, location)."""
    return list(_pole_lattice(p, p.m))


@lru_cache(maxsize=8)
def _gl_rule(order: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return tuple(nodes.tolist()), tuple(weights.tolist())


def _segment_distance(x: complex, a: complex, b: complex) -> float:
    d = b - a
    length_sq = d.real * d.real + d.imag * d.imag
    if length_sq == 0.0:
        return abs(x - a)
    t = ((x - a).real * d.real + (x - a).imag * d.imag) / length_sq
    t = min(1.0, max(0.0, t))
    return abs(x - (a + t * d))


def _gl_panel(p: VerifierParams, a: complex, b: complex, nodes, weights) -> complex:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0j
    for x, w in zip(nodes, weights):
        total += w * eval_kernel(p, mid + half * x)
    return total * half


def _adaptive_panel(panel, a, b, whole, tol, depth) -> complex:
    """Refine [a, b], whose one-panel value is whole, until its halves agree."""
    mid = 0.5 * (a + b)
    left = panel(a, mid)
    right = panel(mid, b)
    fine = left + right
    err = abs(fine - whole)
    if err <= tol or err <= 1e-12 * abs(fine):
        return fine
    if depth <= 0:
        raise QuadratureError(
            f"contour quadrature not converged on [{a}, {b}]: panel error {err:.3g}"
        )
    return _adaptive_panel(panel, a, mid, left, 0.5 * tol, depth - 1) + _adaptive_panel(
        panel, mid, b, right, 0.5 * tol, depth - 1
    )


def _dyadic_breakpoints(depth: int) -> list[float]:
    left = [0.5**j for j in range(depth, 0, -1)]
    right = [1.0 - 0.5**j for j in range(1, depth + 1)]
    return sorted(set([0.0] + left + right + [1.0]))


def contour_integral(p: VerifierParams) -> complex:
    """Integral of the kernel over the parallelogram (1/v, i, -1/v, -i),
    traversed counterclockwise.

    Composite adaptive 24-point Gauss-Legendre per edge, with dyadic
    pre-subdivision toward the vertices where the pole families accumulate,
    down to ~1/(8 N), safely below the pole-to-path distance; the panel
    tolerances add up to 1e-9.  Raises GeometryError if any kernel pole sits
    within 1e-6 of the path and QuadratureError if refinement stalls.
    """
    verts = [complex(v) for v in (1.0 / p.v, 1j, -1.0 / p.v, -1j)]
    edges = [(verts[i], verts[(i + 1) % 4]) for i in range(4)]
    for _family, _n, pole in _pole_lattice(p, p.m + 3):
        for a, b in edges:
            if _segment_distance(pole, a, b) < 1e-6:
                raise GeometryError(
                    f"kernel pole at {pole} lies within 1e-6 of contour edge [{a}, {b}]"
                )
    nodes, weights = _gl_rule(24)
    depth = max(8, math.ceil(math.log2(8.0 * p.order)))
    breaks = _dyadic_breakpoints(depth)
    panel = lambda a, b: _gl_panel(p, a, b, nodes, weights)
    panel_tol = 1e-9 / (4 * (len(breaks) - 1))
    total = 0j
    for a, b in edges:
        for lo, hi in zip(breaks[:-1], breaks[1:]):
            pa = a + (b - a) * lo
            pb = a + (b - a) * hi
            total += _adaptive_panel(panel, pa, pb, panel(pa, pb), panel_tol, depth)
    return total


def contour_gap(p: VerifierParams) -> float:
    """|contour integral - (-log v)|: the finite-m gap to the limit value."""
    return abs(contour_integral(p) - (-math.log(p.v)))


@dataclass(frozen=True)
class ClosureReport:
    """Residue-theorem closure at finite m: contour vs 2 pi i * residue sum."""

    contour: complex
    residue_sum: complex

    @property
    def residual(self) -> float:
        return abs(self.contour - 2j * math.pi * self.residue_sum)


def closure_residual(p: VerifierParams) -> ClosureReport:
    """Check contour = 2 pi i * sum of quadrature residues over enclosed poles.

    Holds exactly at every finite m for any meromorphic integrand, so it
    validates kernel, pole bookkeeping and quadrature at once, independent of
    any closed form.
    """
    total = 0j
    for _family, _n, pole in enclosed_poles(p):
        total += numeric_residue(p, pole)
    return ClosureReport(contour=contour_integral(p), residue_sum=total)


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
    verts = (1.0 / p.v, 1j, -1.0 / p.v, -1j)
    a = verts[edge_index]
    b = verts[(edge_index + 1) % 4]
    x = (1.0 - t) * a + t * b
    return x * eval_kernel(p, x)


def log_identity_residual(p: VerifierParams, sum_cap: int = 400) -> float:
    """|LHS - RHS| of the logarithmic transformation identity at (h, k, H, v, z),
    with the imaginary part of the difference reduced modulo 2 pi.

    The left side combines six double sums (three per side of the change of
    variables v <-> 1/v, h <-> H) with the closed terms

        - i pi/2 + 3 i pi s(h,k) - (pi/(4k))(v - 1/v) + pi z^2 k / v
        + i pi z - pi z / v,

    the right side is -(1/2) log v.  Every inner n-sum is truncated at
    sum_cap; the sums are the m -> infinity limits of the enclosed-residue
    totals, so a small residual here is the identity the whole contour
    argument proves.  Each side is a sum of principal-branch logarithms, so
    the identity holds only modulo 2 pi i.
    """
    if sum_cap < 1:
        raise ValidationError(f"sum_cap must be positive, got {sum_cap}")
    z = complex(p.z)
    v, k = p.v, p.k
    s_hk = float(dedekind_sum_fast(p.h, p.k))
    r_main = math.exp(-_TWO_PI * v)
    r_swap = math.exp(-_TWO_PI / v)
    e_plus = cmath.exp(2j * math.pi * z)
    e_minus = cmath.exp(-2j * math.pi * z)
    g_plus = cmath.exp(_TWO_PI * z / v)
    g_minus = cmath.exp(-_TWO_PI * z / v)

    main_sums = swap_sums = 0j
    for mu in range(1, k + 1):
        a1 = cmath.exp(2j * math.pi * p.h * mu / k) * math.exp(-_TWO_PI * v * mu / k)
        a3 = cmath.exp(2j * math.pi * p.h * (mu - 1) / k) * math.exp(
            -_TWO_PI * v * (mu - 1) / k
        ) * e_minus
        main_sums += (
            geometric_log_sum(a1, r_main, sum_cap)
            + geometric_log_sum(a1 * e_plus, r_main, sum_cap)
            + geometric_log_sum(a3, r_main, sum_cap)
        )
        b1 = cmath.exp(2j * math.pi * p.H * mu / k) * math.exp(-_TWO_PI * mu / (k * v))
        b3 = cmath.exp(2j * math.pi * p.H * (mu - 1) / k) * math.exp(
            -_TWO_PI * (mu - 1) / (k * v)
        ) * g_minus
        swap_sums += (
            geometric_log_sum(b1, r_swap, sum_cap)
            + geometric_log_sum(b1 * g_plus, r_swap, sum_cap)
            + geometric_log_sum(b3, r_swap, sum_cap)
        )
    lhs = (
        swap_sums
        - main_sums
        - 0.5j * math.pi
        + 3j * math.pi * s_hk
        - (math.pi / (4 * k)) * (v - 1.0 / v)
        + math.pi * z * z * k / v
        + 1j * math.pi * z
        - math.pi * z / v
    )
    rhs = -0.5 * math.log(v)
    diff = lhs - rhs
    return abs(complex(diff.real, math.remainder(diff.imag, _TWO_PI)))

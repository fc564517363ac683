"""Shared oracles for the test suite.

The analytic oracles are direct summations or products evaluated with mpmath
at elevated working precision; the multiplier oracle is Petersson's closed
form in exact integers.  Each is independent of the code paths under test.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath as mp


# tau near the real axis (subnormal, at 1e-300 and 1e-320), at huge Re or Im, and near rationals
EXTREME_TAUS = [0.2 + 5e-324j, 0.1 + 1e-300j, 0.5 + 1e-320j, 1e-300j, 1e308j, 1e-12 + 1e-15j, 0.5 + 1e-200j,
                1.5 + 1e-100j, 1 / 3 + 1e-30j, 1e308 + 1j, -1e308 + 1e-5j, 0.3 + 1e-310j]


def _mp_theta1_series(z: complex, tau: complex, terms: int):
    """The two-sided theta series over n = -terms..terms-1, as an mpc at the working precision."""
    zz = mp.mpc(z)
    tt = mp.mpc(tau)
    total = mp.mpc(0)
    for n in range(-terms, terms):
        half = n + mp.mpf(1) / 2
        total += (-1) ** n * mp.exp(
            1j * mp.pi * tt * half * half + (2 * n + 1) * 1j * mp.pi * zz
        )
    return -1j * total


def mp_theta1_direct(z: complex, tau: complex, terms: int = 200, dps: int = 50) -> complex:
    """Two-sided direct summation of the theta series at extended precision."""
    with mp.workdps(dps):
        return complex(_mp_theta1_series(z, tau, terms))


def mp_log_theta1_direct(z: complex, tau: complex, terms: int = 200, dps: int = 50) -> complex:
    """The logarithm of mp_theta1_direct's sum, taken before rounding to double: finite where theta1 is not."""
    with mp.workdps(dps):
        return complex(mp.log(_mp_theta1_series(z, tau, terms)))


def mp_theta1_stepped(z: complex, tau: complex, pairs: int, dps: int = 50) -> complex:
    """The two-sided series of mp_theta1_direct over n = -pairs..pairs-1, each
    term the one before it times its step, so that thousands of terms near
    the real axis cost one multiplication each instead of one exponential."""
    with mp.workdps(dps):
        zz = mp.mpc(z)
        tt = mp.mpc(tau)
        ipi = mp.mpc(0, mp.pi)
        # term +-n is e^{i pi (tau (n+1/2)^2 +- (2n+1) z)}, sign (-1)^n folded into the steps
        up, down = mp.exp(ipi * (tt / 4 + zz)), mp.exp(ipi * (tt / 4 - zz))
        step_up, step_down = -mp.exp(ipi * (2 * tt + 2 * zz)), -mp.exp(ipi * (2 * tt - 2 * zz))
        q2 = mp.exp(2 * ipi * tt)
        total = mp.mpc(0)
        for _ in range(pairs):
            total += up - down
            up *= step_up
            down *= step_down
            step_up *= q2
            step_down *= q2
        return complex(-1j * total)


def mp_theta1_jtheta(z: complex, tau: complex, dps: int = 40) -> complex:
    """mpmath's own theta implementation, as a second independent route."""
    with mp.workdps(dps):
        q = mp.exp(1j * mp.pi * mp.mpc(tau))
        return complex(mp.jtheta(1, mp.pi * mp.mpc(z), q))


def mp_eta_direct(tau: complex, terms: int = 200, dps: int = 50) -> complex:
    """Direct product for the eta function at extended precision."""
    with mp.workdps(dps):
        tt = mp.mpc(tau)
        prod = mp.mpc(1)
        for n in range(1, terms + 1):
            prod *= 1 - mp.exp(2j * mp.pi * n * tt)
        return complex(mp.exp(1j * mp.pi * tt / 12) * prod)


def mp_residue_kernel(h: int, k: int, v: float, z: complex, m: int, x: complex, dps: int = 30) -> complex:
    """The residue kernel F(x) of thetamod.residues, its five groups written out at extended precision."""
    with mp.workdps(dps):
        n_order = mp.mpf(m) + mp.mpf(1) / 2
        xx, vv, zz = mp.mpc(x), mp.mpf(v), mp.mpc(z)
        e_x = mp.exp(2 * mp.pi * n_order * xx)
        e_v = mp.exp(2j * mp.pi * n_order * vv * xx)
        e_z = mp.exp(2 * mp.pi * n_order * zz * xx)
        total = mp.coth(mp.pi * n_order * xx) * mp.cot(mp.pi * n_order * vv * xx) / (4j * xx)
        for mu in range(1, k):
            w = (h * mu) % k
            block = (mp.exp(2 * mp.pi * n_order * w * xx / k) / (1 - e_x)
                     * mp.exp(2j * mp.pi * n_order * mu * vv * xx / k) / (1 - e_v) / xx)
            total += (1 + 2 * e_z) * block
        total += e_z / xx / (1 - e_x) * e_v / (1 - e_v)
        total += 1 / (e_z * xx) * e_x / (1 - e_x) / (1 - e_v)
        return complex(total)


def jacobi_symbol(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0, by quadratic reciprocity in O(log n) integer steps
    (Cohen, A Course in Computational Algebraic Number Theory, Algorithm 1.4.10)."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:  # (2/n) = -1 exactly for n = 3, 5 (mod 8)
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a  # reciprocity: the sign flips when both are 3 (mod 4)
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def petersson_eta_phase(a: int, b: int, c: int, d: int) -> Fraction:
    """The phase p in [0, 2) of the eta multiplier eps(A) = e^{i pi p} of A = (a, b; c, d), c > 0, by
    Petersson's closed form (Knopp, Modular Functions in Analytic Number Theory, ch. 4), no Dedekind sum:

        v(A) = (d/c) e^{pi i [(a + d) c - b d (c^2 - 1) - 3 c]/12}                    for odd c,
        v(A) = (c/|d|) e^{pi i [(a + d) c - b d (c^2 - 1) + 3 d - 3 - 3 c d]/12}      for even c,

    with Jacobi symbols in front.  Knopp's law carries (c tau + d)^{1/2} and this library's carries
    (-i (c tau + d))^{1/2}, so eps(A) = v(A) e^{i pi/4}.
    """
    head = (a + d) * c - b * d * (c * c - 1)
    if c % 2:
        symbol, bracket = jacobi_symbol(d, c), head - 3 * c
    else:
        symbol, bracket = jacobi_symbol(c, abs(d)), head + 3 * d - 3 - 3 * c * d
    return (Fraction(bracket, 12) + Fraction(1, 4) + (symbol < 0)) % 2

"""Shared extended-precision oracles for the test suite.

Every oracle here is a direct summation or product evaluated with mpmath at
elevated working precision, independent of the code paths under test.
"""

from __future__ import annotations

import mpmath as mp


# tau near the real axis (subnormal, at 1e-300 and 1e-320), at huge Re or Im, and near rationals
EXTREME_TAUS = [0.2 + 5e-324j, 0.1 + 1e-300j, 0.5 + 1e-320j, 1e-300j, 1e308j, 1e-12 + 1e-15j, 0.5 + 1e-200j,
                1.5 + 1e-100j, 1 / 3 + 1e-30j, 1e308 + 1j, -1e308 + 1e-5j, 0.3 + 1e-310j]


def mp_theta1_direct(z: complex, tau: complex, terms: int = 200, dps: int = 50) -> complex:
    """Two-sided direct summation of the theta series at extended precision."""
    with mp.workdps(dps):
        zz = mp.mpc(z)
        tt = mp.mpc(tau)
        total = mp.mpc(0)
        for n in range(-terms, terms):
            half = n + mp.mpf(1) / 2
            total += (-1) ** n * mp.exp(
                1j * mp.pi * tt * half * half + (2 * n + 1) * 1j * mp.pi * zz
            )
        return complex(-1j * total)


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

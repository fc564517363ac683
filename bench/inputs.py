"""Seeded inputs for the four workloads.

Nothing here imports thetamod: inputs are plain numbers, so the generators
stay the same whatever the library does, and the oracle command can draw
the near-axis points without importing the library.
"""

from __future__ import annotations

import math
import random

# The near-axis probe: Im tau log-uniform in [1e-4, 3], |Re tau| <= 2,
# |Im z| <= 3 Im tau, Re z uniform in [-1, 1].  The point set is fixed (probe
# seed 1, 2000 points) rather than drawn from --seed: two program faults hit
# a seed-dependent subset of such points, and a fixed set keeps the share of
# failed operations identical in every run.  --seed orders each round.
NEAR_PROBE_SEED = 1
NEAR_PROBE_COUNT = 2000


def near_axis_points(seed: int = NEAR_PROBE_SEED, count: int = NEAR_PROBE_COUNT):
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        tau_im = 10 ** rng.uniform(-4, math.log10(3))
        z_re = rng.uniform(-1, 1)
        z_im = rng.uniform(-3, 3) * tau_im
        tau_re = rng.uniform(-2, 2)
        points.append((complex(z_re, z_im), complex(tau_re, tau_im)))
    return points


# Law sweep draws, the distribution of thetamod's transform_sweep:
# 1 <= c <= 20, |a|, |b|, |d| <= 50, |Re tau| <= 1, Im tau in [0.3, 3],
# z in the unit disc at least 0.05 from the zero lattice m + n tau.
C_MAX = 20
ENTRY_BOUND = 50


def draw_matrix(rng: random.Random) -> tuple[int, int, int, int]:
    while True:
        c = rng.randint(1, C_MAX)
        d = rng.randint(-ENTRY_BOUND, ENTRY_BOUND)
        if math.gcd(c, d) != 1:
            continue
        a0 = pow(d % c, -1, c) if c > 1 else 0
        lo = math.ceil((-ENTRY_BOUND - a0) / c)
        hi = math.floor((ENTRY_BOUND - a0) / c)
        if lo > hi:
            continue
        a = a0 + c * rng.randint(lo, hi)
        b = (a * d - 1) // c
        if abs(b) > ENTRY_BOUND:
            continue
        return a, b, c, d


def draw_tau(rng: random.Random) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(0.3, 3.0))


def lattice_distance(z: complex, tau: complex) -> float:
    n0 = round(z.imag / tau.imag)
    best = math.inf
    for dn in (-1, 0, 1):
        rem = z - (n0 + dn) * tau
        m0 = round(rem.real)
        for dm in (-1, 0, 1):
            best = min(best, abs(rem - (m0 + dm)))
    return best


def draw_z(rng: random.Random, tau: complex) -> complex:
    while True:
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if abs(z) <= 1.0 and lattice_distance(z, tau) >= 0.05:
            return z


def law_batches(seed: int, size: int):
    """Endless batches of law operations; even positions test theta, odd eta.

    Each entry is ("theta", (a, b, c, d), z, tau) or ("eta", (a, b, c, d), tau).
    Every batch is drawn fresh, so no input repeats by construction.
    """
    rng = random.Random(seed)
    while True:
        batch = []
        for i in range(size):
            mat = draw_matrix(rng)
            tau = draw_tau(rng)
            if i % 2 == 0:
                batch.append(("theta", mat, draw_z(rng, tau), tau))
            else:
                batch.append(("eta", mat, tau))
        yield batch


# Residue replay: the grid k x m x z x v.  h is 0 for k = 1 and 1 for k = 2
# (the only classes); for k = 7 each grid point draws h in 1..6 from the seed.
RESIDUE_K = (1, 2, 7)
RESIDUE_M = (3, 10, 40)
RESIDUE_Z = (0.2 + 0.1j, 0.2 - 0.1j)
RESIDUE_V = (0.8, 1.5)


def neg_mod_inverse(h: int, k: int) -> int:
    return 0 if k == 1 else (-pow(h, -1, k)) % k


def residue_grid(seed: int):
    """[(h, k, H, v, z, m)] for the whole grid, h drawn from the seed."""
    rng = random.Random(seed)
    grid = []
    for k in RESIDUE_K:
        for m in RESIDUE_M:
            for z in RESIDUE_Z:
                for v in RESIDUE_V:
                    if k == 1:
                        h = 0
                    elif k == 2:
                        h = 1
                    else:
                        h = rng.randint(1, k - 1)
                    grid.append((h, k, neg_mod_inverse(h, k), v, z, m))
    return grid


def cli_commands(seed: int, out_path: str):
    """The README commands; the sweep seeds come from the workload seed."""
    rng = random.Random(seed)
    transform_seed = rng.randint(1, 10**6)
    sweep_seed = rng.randint(1, 10**6)
    return [
        ["eval", "--z", "0.3+0i", "--tau", "0+1i", "--format", "json"],
        ["eval", "--z", "0.2+0i", "--tau", "0.3+0.002i"],
        ["eta", "--tau", "0+2i"],
        ["reduce", "--tau", "5.3+0.8i"],
        ["multiplier", "--matrix", "0,-1,1,0"],
        ["dedekind", "--h", "1", "--k", "3"],
        ["verify-transform", "--count", "200", "--tol", "1e-9", "--seed", str(transform_seed)],
        ["verify-residues", "--m", "3", "--k", "2", "--h", "1", "--v", "1.5", "--z", "0.2+0.1i"],
        ["sweep", "--count", "100", "--seed", str(sweep_seed), "--format", "csv", "--out", out_path],
    ]


def shuffled(rng: random.Random, items):
    order = list(items)
    rng.shuffle(order)
    return order

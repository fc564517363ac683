"""Independent reference values, computed with mpmath.

theta1 comes from its defining series summed directly at 30 significant
digits.  mpmath's jtheta is not used: it takes q^(1/4) on the principal
branch, so it disagrees with theta1 by a root of unity when |Re tau| > 1.
eta comes from mpmath's own eta.  mpmath is only ever the oracle here.

The near-axis oracle costs about 12 ms a point, so its 2000 values are kept
in near_oracle.json next to this file.  Remake that file from the probe seed
with

    python3 bench/oracle.py

A run also remakes it when the file is missing or was made for other points.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import mpmath as mp

from inputs import NEAR_PROBE_COUNT, NEAR_PROBE_SEED, near_axis_points

DPS = 30
NEAR_CACHE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "near_oracle.json")


def theta1_direct(z: complex, tau: complex, dps: int = DPS) -> complex:
    """theta1(z, tau) = 2 sum_{n>=0} (-1)^n Q^{(n+1/2)^2} sin((2n+1) pi z), Q = e^{i pi tau}."""
    with mp.workdps(dps + 10):
        zz = mp.mpc(z)
        tt = mp.mpc(tau)
        log_eps = mp.log(mp.mpf(10) ** (-dps - 10))
        peak = abs(zz.imag) / tt.imag  # the terms grow until n + 1/2 passes this
        total = mp.mpc(0)
        n = 0
        while True:
            term = mp.exp(1j * mp.pi * tt * (n + 0.5) ** 2) * mp.sin((2 * n + 1) * mp.pi * zz)
            total += term if n % 2 == 0 else -term
            # |term_{n+1}| <= exp(-pi Im tau (n + 3/2)^2 + (2n + 3) pi |Im z|)
            next_log = -mp.pi * tt.imag * (n + 1.5) ** 2 + (2 * n + 3) * mp.pi * abs(zz.imag)
            if n + 0.5 > peak and next_log < log_eps:
                return complex(2 * total)
            n += 1


def eta_reference(tau: complex, dps: int = DPS) -> complex:
    with mp.workdps(dps):
        return complex(mp.eta(mp.mpc(tau)))


def _points_digest(points) -> str:
    text = ";".join(f"{z!r},{tau!r}" for z, tau in points)
    return hashlib.sha256(text.encode()).hexdigest()


def build_near_cache() -> list[complex]:
    points = near_axis_points()
    values = [theta1_direct(z, tau) for z, tau in points]
    payload = {
        "probe_seed": NEAR_PROBE_SEED,
        "count": NEAR_PROBE_COUNT,
        "dps": DPS,
        "points_sha256": _points_digest(points),
        "theta1": [[v.real, v.imag] for v in values],
    }
    tmp = NEAR_CACHE + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    os.replace(tmp, NEAR_CACHE)
    return values


def near_oracle(points) -> list[complex]:
    """Oracle theta1 values for the near-axis points, from the cache if it matches."""
    try:
        with open(NEAR_CACHE, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        payload = None
    if (
        payload is not None
        and payload.get("dps") == DPS
        and payload.get("points_sha256") == _points_digest(points)
    ):
        return [complex(re, im) for re, im in payload["theta1"]]
    if points != near_axis_points():
        raise ValueError("the near-axis oracle cache only covers the probe points")
    return build_near_cache()


if __name__ == "__main__":
    values = build_near_cache()
    print(f"wrote {len(values)} oracle values to {NEAR_CACHE}", file=sys.stderr)

"""Host speed, measured with a fixed pure-Python loop during a run.

The 2-vCPU Xeon virtual machine the benchmark was calibrated on shares its
physical CPUs with other tenants, and Python code there runs at two speeds
that switch every few seconds to minutes: a fixed loop takes 1.5 to 2 times
as long in busy periods as in quiet ones. Raw wall times of the library
workloads therefore spread by 0.2 to 0.5 of their median between runs, and
no run length here averages that out (60 s windows of a fixed loop still
spread by 0.22).

A run samples a reference loop every half second between operations (never
inside a timed call) and scales each operation's wall time by the loop's
quiet time over the first sample taken after the operation ended.  The
scaled time is the wall time the operation would take in a quiet period.  A
change to thetamod moves the scaled times as it moves the wall times; a
change of host speed mostly does not.

Busy periods slow different code by different factors, so each workload
names the loop that tracked it best in calibration runs: the object loop
(complex exponentials, small objects, attribute and dict access) for the
near-axis reduction, where it cut the spread of 20 s medians from 0.22 to
0.08 against 0.12 for the arithmetic loop; the arithmetic loop for the law
sweep and the residue replay, where the object loop over-corrects and left
the residue median spread at 0.19 against 0.04.
"""

from __future__ import annotations

import cmath
import math
import time

INTERVAL_S = 0.5


def _arithmetic_loop() -> int:
    total = 0
    for i in range(20_000):
        total += i * i
    return total


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b


def _term(p: _Point, z: complex) -> complex:
    return cmath.exp(1j * math.pi * z * p.a) * p.b


def _object_loop() -> complex:
    total = 0j
    recent = {}
    for i in range(1500):
        p = _Point(i * 1e-3, 0.5)
        total += _term(p, 0.3 + 0.01j)
        recent[i & 63] = p
    return total


# loop, and its time in ms on that 2-vCPU Xeon in quiet periods
LOOPS = {
    "arithmetic": (_arithmetic_loop, 1.3),
    "objects": (_object_loop, 0.9),
}


class HostSpeed:
    """Samples of the reference loop's time, best of three, with their stamps."""

    def __init__(self, loop: str) -> None:
        self.loop, self.nominal_ms = LOOPS[loop]
        self.stamps: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            self.loop()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        self.stamps.append(time.perf_counter())

    def sample_if_due(self) -> None:
        if not self.stamps or time.perf_counter() - self.stamps[-1] >= INTERVAL_S:
            self.sample()

    def scale(self, times, ends) -> list[float]:
        """Each time scaled by the loop's quiet time over the first sample after its end stamp."""
        self.sample()
        nominal = self.nominal_ms * 1e-3
        scaled = []
        j = 0
        for t, end in zip(times, ends):
            while self.stamps[j] < end:
                j += 1
            scaled.append(t * nominal / self.samples[j])
        return scaled

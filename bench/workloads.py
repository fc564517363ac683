"""The four workloads: their operations, warm-up calls and output checks.

Every workload hands out rounds of operations.  A round's inputs are made
before it starts and its outputs are checked after it ends, so neither input
generation nor oracle work falls inside a timed call.  `call` is the only
thing the harness times, and it looks up the library function through its
module at each call, so the traced pass can swap in wrapped versions.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

from thetamod import residues, theta, transform
from thetamod.errors import ThetamodError
from thetamod.modular import ModularMatrix
from thetamod.residues import VerifierParams

import inputs
import oracle


class NearAxis:
    """theta1_fast_info at near-axis points: the argument-reduction path."""

    name = "theta_near_axis"
    host_loop = "objects"  # see host.py
    # A run has ~2e5 operations, so p99.9 and p99.99 also leave ten samples
    # beyond them, but at those depths a 0.1 ms call's tail is pauses of the
    # interpreter or the host: one 20 ms stall moved p99.9 from 0.36 to
    # 1.05 ms, and p99.99 read 2 to 3.6 ms.  p99 has ~2000 samples beyond.
    tail_percentile = 99.0
    min_rounds = 1

    def __init__(self, seed: int, root: str) -> None:
        self.points = inputs.near_axis_points()
        self.oracle = oracle.near_oracle(self.points)
        self.rng = random.Random(seed)
        self.seen: dict[int, tuple] = {}
        self.problems: list[str] = []

    @staticmethod
    def warm_up() -> None:
        transform.theta1_fast_info(0.2 + 0.01j, 0.31 + 0.004j)

    def rounds(self):
        while True:
            yield inputs.shuffled(self.rng, range(len(self.points)))

    def call(self, i):
        z, tau = self.points[i]
        return transform.theta1_fast_info(z, tau)

    def check(self, ops, outcomes) -> int:
        """Count failed operations: a raised error, or an error beyond error_bound.

        Those are the two faults this workload keeps.  Anything else that is
        wrong (a non-finite result, a result that changes between rounds, an
        unexpected exception type) is a problem and makes the run incorrect.
        """
        failed = 0
        for i, out in zip(ops, outcomes):
            if isinstance(out, Exception):
                failed += 1
                if not isinstance(out, (OverflowError, ThetamodError)):
                    self.problems.append(f"near point {i}: {type(out).__name__}: {out}")
                continue
            value, bound = complex(out.value), float(out.error_bound)
            if not (math.isfinite(value.real) and math.isfinite(value.imag) and math.isfinite(bound)):
                self.problems.append(f"near point {i}: non-finite result {value!r} +- {bound!r}")
                continue
            if self.seen.setdefault(i, (value, bound)) != (value, bound):
                self.problems.append(f"near point {i}: result changed between rounds")
            if abs(value - self.oracle[i]) > bound:
                failed += 1
        return failed


class LawSweep:
    """verify_transformation and verify_eta_transformation, alternating, on fresh draws."""

    name = "law_sweep"
    host_loop = "arithmetic"
    # p99.9 (~25 samples beyond) is the longest eta products alone, whose
    # numpy work busy host periods slow more than the reference loop: its
    # scaled value spread by 0.21 over ten runs (6.0 to 12.2 ms).  p99 has
    # ~250 samples beyond.
    tail_percentile = 99.0
    min_rounds = 1
    batch_size = 200
    residual_tol = 1e-9
    oracle_subset = 6  # operations of each kind whose series and eta values meet mpmath
    value_rel_tol = 1e-10

    def __init__(self, seed: int, root: str) -> None:
        self.batches = inputs.law_batches(seed, self.batch_size)
        self.problems: list[str] = []
        self.subset_checked = False

    @staticmethod
    def warm_up() -> None:
        mat = ModularMatrix(2, 1, 1, 1)
        transform.verify_transformation(mat, 0.3 + 0.1j, 0.1 + 1.1j)
        transform.verify_eta_transformation(mat, 0.1 + 1.1j)

    def rounds(self):
        for batch in self.batches:
            yield [(op[0], ModularMatrix(*op[1])) + tuple(op[2:]) for op in batch]

    def call(self, op):
        if op[0] == "theta":
            return transform.verify_transformation(op[1], op[2], op[3])
        return transform.verify_eta_transformation(op[1], op[2])

    def check(self, ops, outcomes) -> int:
        failed = 0
        for op, out in zip(ops, outcomes):
            if isinstance(out, Exception):
                failed += 1
                self.problems.append(f"law {op}: {type(out).__name__}: {out}")
            elif not (math.isfinite(out) and out < self.residual_tol):
                self.problems.append(f"law {op}: residual {out!r} not below {self.residual_tol}")
        if not self.subset_checked:
            self.subset_checked = True
            self._check_against_mpmath(ops)
        return failed

    def _check_against_mpmath(self, ops) -> None:
        """Series and eta values on both sides of the law, against mpmath.

        Each value must agree with mpmath to value_rel_tol.  Their reported
        error_bound is not the yardstick here: eta_info's bound leaves out
        rounding and theta1_series_info's misses phase rounding at large
        |Re tau|, so some seeded points exceed it by a few ulps; a check
        that fails on some seeds only would make the failed share depend on
        the seed.  The bounds of theta1_fast_info are held to account on
        theta_near_axis instead.
        """
        thetas = [op for op in ops if op[0] == "theta"][: self.oracle_subset]
        etas = [op for op in ops if op[0] == "eta"][: self.oracle_subset]
        for _, mat, z, tau in thetas:
            den = mat.c * tau + mat.d
            tau_image = (mat.a * tau + mat.b) / den
            z_image = z / den
            n = round(z_image.imag / tau_image.imag)
            shifted = z_image - n * tau_image
            z_image = shifted - round(shifted.real)
            for zz, tt in ((z, tau), (z_image, tau_image)):
                self._compare("theta1 series", (zz, tt), theta.theta1_series(zz, tt), oracle.theta1_direct(zz, tt))
        for _, mat, tau in etas:
            tau_image = (mat.a * tau + mat.b) / (mat.c * tau + mat.d)
            for tt in (tau, tau_image):
                self._compare("eta", tt, theta.eta(tt), oracle.eta_reference(tt))

    def _compare(self, what, where, value, reference) -> None:
        err = abs(complex(value) - reference)
        if not err <= self.value_rel_tol * abs(reference):
            self.problems.append(f"{what} at {where}: relative error {err / abs(reference):.3g}")


class ResidueReplay:
    """The sequence `thetamod verify-residues` runs, called through the library."""

    name = "residue_replay"
    host_loop = "arithmetic"
    tail_percentile = 85.0
    min_rounds = 2  # 72 operations: ten beyond p85
    closure_rel_tol = 1e-10
    residue_rel_tol = 1e-9
    identity_tol = 1e-8
    sum_cap = 400

    def __init__(self, seed: int, root: str) -> None:
        self.grid = inputs.residue_grid(seed)
        self.params = [
            VerifierParams(h=h, k=k, H=H, v=v, z=z, m=m) for h, k, H, v, z, m in self.grid
        ]
        self.rng = random.Random(seed)
        self.seen: dict[int, tuple] = {}
        self.problems: list[str] = []

    @classmethod
    def warm_up(cls) -> None:
        cls._replay(VerifierParams(h=1, k=2, H=1, v=1.5, z=0.2 + 0.1j, m=3))

    def rounds(self):
        while True:
            yield inputs.shuffled(self.rng, range(len(self.params)))

    def call(self, i):
        return self._replay(self.params[i])

    @classmethod
    def _replay(cls, p):
        origin = residues.origin_report(p)
        poles = [
            residues.simple_pole_report(p, family, n)
            for family in ("imag", "real")
            for n in range(-p.m, p.m + 1)
            if n
        ]
        closure = residues.closure_residual(p)
        identity = residues.log_identity_residual(p, cls.sum_cap)
        return origin, poles, closure, identity

    def check(self, ops, outcomes) -> int:
        failed = 0
        for i, out in zip(ops, outcomes):
            where = f"residues at {self.grid[i]}"
            if isinstance(out, Exception):
                failed += 1
                self.problems.append(f"{where}: {type(out).__name__}: {out}")
                continue
            origin, poles, closure, identity = out
            pairs = [(origin.origin.assembled, origin.oracle)]
            pairs += [(rep.closed_form, rep.oracle) for rep in poles]
            for closed, quadrature in pairs:
                size = max(abs(closed), abs(quadrature))
                if not abs(closed - quadrature) <= self.residue_rel_tol * size:
                    self.problems.append(f"{where}: closed form {closed!r} vs oracle {quadrature!r}")
            # residue theorem: contour = 2 pi i * (sum of the enclosed residues)
            scale = 2 * math.pi * sum(abs(q) for _, q in pairs)
            if not closure.residual <= self.closure_rel_tol * scale:
                self.problems.append(f"{where}: closure residual {closure.residual!r} vs scale {scale:.3g}")
            if not identity < self.identity_tol:
                self.problems.append(f"{where}: log-identity residual {identity!r}")
            key = (origin.oracle, closure.contour, closure.residue_sum, identity)
            if self.seen.setdefault(i, key) != key:
                self.problems.append(f"{where}: result changed between rounds")
        return failed


def _parse_after(stdout: str, prefix: str, marker: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(prefix) and marker in line:
            return line.split(marker, 1)[1].strip()
    raise ValueError(f"no line starting {prefix!r} with {marker!r}")


def dedekind_by_definition(h: int, k: int) -> Fraction:
    """s(h, k) = sum_{r=1}^{k-1} (r/k)((hr/k - floor(hr/k) - 1/2)), in exact rationals."""
    total = Fraction(0)
    for r in range(1, k):
        x = Fraction(h * r, k)
        total += Fraction(r, k) * (x - math.floor(x) - Fraction(1, 2))
    return total


class CliCold:
    """Fresh `python -m thetamod.cli` processes cycling through the README commands."""

    name = "cli_cold"
    host_loop = None  # process start is kernel work that neither loop tracks
    tail_percentile = 80.0
    min_rounds = 1

    def __init__(self, seed: int, root: str) -> None:
        self.root = root
        out_dir = os.path.join(root, "bench", "out")
        os.makedirs(out_dir, exist_ok=True)
        self.sweep_path = os.path.join(out_dir, "residuals.csv")
        self.commands = inputs.cli_commands(seed, self.sweep_path)
        self.env = child_env(root)
        self.rng = random.Random(seed)
        self.seen: dict[int, str] = {}
        self.problems: list[str] = []

    @staticmethod
    def warm_up() -> None:
        """Set-up for this workload is a fresh process that only imports thetamod."""

    def rounds(self):
        while True:
            yield inputs.shuffled(self.rng, range(len(self.commands)))

    def call(self, i):
        return subprocess.run(
            [sys.executable, "-m", "thetamod.cli", *self.commands[i]],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def check(self, ops, outcomes) -> int:
        failed = 0
        for i, proc in zip(ops, outcomes):
            argv = " ".join(self.commands[i])
            if isinstance(proc, Exception) or proc.returncode != 0:
                failed += 1
                detail = proc if isinstance(proc, Exception) else proc.stderr.strip()[-300:]
                self.problems.append(f"thetamod {argv}: failed: {detail}")
                continue
            output = proc.stdout
            if self.commands[i][0] == "sweep":
                with open(self.sweep_path, encoding="utf-8") as handle:
                    output += handle.read()
            if i in self.seen:
                if self.seen[i] != output:
                    self.problems.append(f"thetamod {argv}: output differs from an earlier run")
                continue
            self.seen[i] = output
            try:
                self._check_content(self.commands[i], output)
            except (ValueError, KeyError, IndexError) as exc:
                self.problems.append(f"thetamod {argv}: {exc}")
        return failed

    def _check_content(self, argv, out: str) -> None:
        cmd = argv[0]
        if cmd == "eval":
            z = complex(argv[2].replace("i", "j"))
            tau = complex(argv[4].replace("i", "j"))
            if "--format" in argv:
                result = json.loads(out)["results"][0]
                value = complex(result["value_re"], result["value_im"])
                bound = float(result["err_bound"])
            else:
                value = complex(_parse_after(out, "theta1(", " = "))
                bound = float(_parse_after(out, "method:", "certified error bound:"))
            self._within("theta1", value, bound, oracle.theta1_direct(z, tau))
        elif cmd == "eta":
            tau = complex(argv[2].replace("i", "j"))
            value = complex(_parse_after(out, "eta(", " = "))
            bound = float(_parse_after(out, "terms:", "certified error bound:"))
            self._within("eta", value, bound, oracle.eta_reference(tau))
        elif cmd == "reduce":
            tau = complex(argv[2].replace("i", "j"))
            a, b, c, d = (int(x) for x in _parse_after(out, "matrix:", "(").rstrip(")").replace(";", ",").split(","))
            reduced = complex(_parse_after(out, "tau reduced:", ":"))
            image = (a * tau + b) / (c * tau + d)
            if a * d - b * c != 1 or abs(image - reduced) > 1e-12 * abs(reduced):
                raise ValueError(f"matrix ({a},{b};{c},{d}) does not map tau to {reduced!r}")
            if abs(reduced.real) > 0.5 + 1e-12 or abs(reduced) < 1 - 1e-12:
                raise ValueError(f"{reduced!r} is outside the fundamental domain")
        elif cmd == "multiplier":
            phase = _parse_after(out, "theta multiplier:", "exp(i pi * ").split(")")[0]
            if Fraction(phase) != Fraction(-1, 2):
                raise ValueError(f"theta phase {phase}, expected -1/2")
        elif cmd == "dedekind":
            expected = dedekind_by_definition(int(argv[2]), int(argv[4]))
            if Fraction(out.strip()) != expected:
                raise ValueError(f"s = {out.strip()}, expected {expected}")
        elif cmd in ("verify-transform", "verify-residues"):
            if "result: PASS" not in out:
                raise ValueError("does not report PASS")
        elif cmd == "sweep":
            rows = out.strip().splitlines()[1:]
            residuals = [float(row.rsplit(",", 1)[1]) for row in rows]
            if len(residuals) != 2 * int(argv[2]) or not max(residuals) < 1e-9:
                raise ValueError(f"{len(residuals)} rows, max residual {max(residuals)!r}")

    @staticmethod
    def _within(what, value, bound, reference) -> None:
        if not abs(value - reference) <= bound:
            raise ValueError(f"{what} {value!r} is {abs(value - reference):.3g} from mpmath, bound {bound:.3g}")


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (NearAxis, LawSweep, ResidueReplay, CliCold)}

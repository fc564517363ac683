"""thetamod benchmark: one command, four workloads, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
src/ directory.  Workloads: theta_near_axis, law_sweep, residue_replay,
cli_cold (see bench/README.md).

With --trace 0 the named workload runs as a closed loop with one caller for
S seconds, in whole rounds, timing only the calls into thetamod.  Each
round's outputs are checked after it ends.  On the three library workloads
the operation times are scaled to the host's quiet speed (bench/host.py).
The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and the end-to-end metrics: setup_s, ops_per_s,
op_p50_ms and op_tail_ms.

With --trace 1 the traced pass of bench/layers.py runs instead and the
metrics are the per-layer ones, for every workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPEATS = 9


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile q (0-100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def measure(workload, seconds: float):
    """Closed loop, one caller: whole rounds until `seconds` have passed.

    A workload may ask for a minimum number of rounds, so that its tail
    percentile has ten samples beyond it even when a round is long.
    """
    from host import HostSpeed
    from layers import Pass

    tally = Pass(workload, targets=[], host=HostSpeed(workload.host_loop) if workload.host_loop else None)
    start = time.perf_counter()
    for done, batch in enumerate(workload.rounds(), start=1):
        tally.run(batch, traced=False)
        if done >= workload.min_rounds and time.perf_counter() - start >= seconds:
            return tally


def setup_seconds(name: str, env: dict) -> float:
    """Median over fresh interpreters of import plus warm-up (cli_cold: the whole process)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        if name == "cli_cold":
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", "import thetamod"], cwd=ROOT, env=env, capture_output=True, timeout=120
            )
            samples.append(time.perf_counter() - t0)
        else:
            proc = subprocess.run(
                [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), name],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            )
            if proc.returncode == 0:
                samples.append(float(proc.stdout.strip().splitlines()[-1]))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process for {name} failed: {proc.stderr!r}")
    return statistics.median(samples)


def untraced_run(name: str, seed: int, seconds: float) -> dict:
    from workloads import WORKLOADS, child_env

    cls = WORKLOADS[name]
    setup = setup_seconds(name, child_env(ROOT))
    workload = cls(seed, ROOT)
    cls.warm_up()
    tally = measure(workload, seconds)
    wall = tally.times[False]
    times = tally.host.scale(wall, tally.ends[False]) if tally.host else wall
    beyond = len(times) - math.ceil(cls.tail_percentile / 100 * len(times))
    print(
        f"{name}: {tally.attempted} operations, {tally.failed} failed; op_tail_ms is "
        f"p{cls.tail_percentile:g} with {beyond} samples beyond it",
        file=sys.stderr,
    )
    if tally.host:
        print(
            f"{name}: unscaled wall times: ops_per_s {len(wall) / math.fsum(wall):.6g}, "
            f"op_p50_ms {statistics.median(wall) * 1e3:.6g}, op_tail_ms "
            f"{percentile(wall, cls.tail_percentile) * 1e3:.6g}; reference loop median "
            f"{statistics.median(tally.host.samples) * 1e3:.4g} ms",
            file=sys.stderr,
        )
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(times) / math.fsum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (percentile(times, cls.tail_percentile) * 1e3, "ms"),
    }
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": workload.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "thetamod", "__init__.py")):
        print(f"error: no thetamod source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, BENCH_DIR)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        from layers import traced_run

        result = traced_run(args.seed, ROOT)
    else:
        result = untraced_run(args.workload, args.seed, args.seconds)
    problems = result.pop("problems")
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The traced pass: per-layer metrics for every workload.

Each per-layer metric lives on the workload that reaches its layer, and the
traced output has to carry all of them, so one traced run visits all four
workloads.  It does a fixed amount of work on each (whole rounds, the same
inputs with tracing off and on), which keeps its attempted and failed counts
the same from run to run.  Each library pass alternates untraced and traced
rounds over the same inputs; the difference of their median operation times
is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time

from thetamod import dedekind, residues, theta, transform

from spans import Tracer, median, patched
from workloads import CliCold, LawSweep, NearAxis, ResidueReplay, child_env

US = 1e6
MS = 1e3


def _terms(args, result):
    return result.terms


def _matrix(kind):
    return lambda args, result: (kind, args[0].entries())


def _pole(args, result):
    return args[1]


# (module whose attribute callers use, attribute, span name, detail)
CORE_TARGETS = [
    (transform, "reduce_to_fundamental_domain", "modular.fd_reduce", None),
    (transform, "moebius_apply", "modular.action", None),
    (transform, "principal_power", "modular.action", None),
    (transform, "theta_multiplier", "dedekind.multiplier", _matrix("theta")),
    (transform, "eta_multiplier", "dedekind.multiplier", _matrix("eta")),
    (dedekind, "dedekind_sum_fast", "dedekind.sum", None),
    (transform, "theta1_series_info", "theta.series", _terms),
    (theta, "theta1_series_info", "theta.series", _terms),
    (theta, "eta_info", "theta.eta", _terms),
    (transform, "reduce_theta_arguments", "transform.reduce", None),
    (transform, "theta1_fast_info", "transform.fast", _terms),
    (transform, "verify_transformation", "transform.law", None),
    (transform, "verify_eta_transformation", "transform.law", None),
]

RESIDUE_TARGETS = [
    (residues, "dedekind_sum_fast", "dedekind.sum", None),
    (residues, "geometric_log_sum", "theta.log_sum", None),
    (residues, "eval_kernel", "residues.kernel", None),
    (residues, "circle_residue", "residues.circle_residue", _pole),
    (residues, "contour_integral", "residues.contour", None),
    (residues, "origin_report", "residues.pole_report", None),
    (residues, "simple_pole_report", "residues.pole_report", None),
    (residues, "closure_residual", "residues.closure", None),
    (residues, "log_identity_residual", "residues.log_identity", None),
]


class Pass:
    """Runs rounds of one workload, untraced or traced, and keeps the tallies."""

    def __init__(self, workload, targets, host=None) -> None:
        self.workload = workload
        self.targets = targets
        self.tracer = Tracer()
        self.host = host
        self.times = {False: [], True: []}
        self.ends = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.next_op = 0

    def run(self, batch, traced: bool) -> range:
        """Time one round; returns the op ids it used (traced spans carry them)."""
        clock = time.perf_counter
        first = self.next_op
        outcomes = []
        stack = patched(self.tracer, self.targets) if traced else contextlib.nullcontext()
        with stack:
            for op in batch:
                self.tracer.op = self.next_op
                self.next_op += 1
                t0 = clock()
                try:
                    out = self.workload.call(op)
                except Exception as exc:
                    out = exc
                t1 = clock()
                self.times[traced].append(t1 - t0)
                self.ends[traced].append(t1)
                outcomes.append(out)
                if self.host is not None:
                    self.host.sample_if_due()
        self.tracer.op = -1
        self.failed += self.workload.check(batch, outcomes)
        self.attempted += len(batch)
        return range(first, self.next_op)

    def overhead_ms(self) -> float:
        return (statistics.median(self.times[True]) - statistics.median(self.times[False])) * MS


def _repeat_share(tracer: Tracer, ops) -> float:
    seen = set()
    calls = repeats = 0
    for i in tracer.indices("dedekind.multiplier"):
        if tracer.op_id[i] in ops and tracer.detail[i] is not None:
            calls += 1
            repeats += tracer.detail[i] in seen
            seen.add(tracer.detail[i])
    return repeats / calls


def _durations(tracer, name, scale):
    return [tracer.duration(i) * scale for i in tracer.indices(name)]


def _self_times(tracer, name, scale):
    return [tracer.self_time(i) * scale for i in tracer.indices(name)]


def _details(tracer, name):
    return [tracer.detail[i] for i in tracer.indices(name) if tracer.detail[i] is not None]


def _per_op_counts(tracer, name, ops) -> list[int]:
    counts = dict.fromkeys(ops, 0)
    for i in tracer.indices(name):
        if tracer.op_id[i] in counts:
            counts[tracer.op_id[i]] += 1
    return list(counts.values())


def trace_near(seed: int, root: str):
    w = NearAxis(seed, root)
    w.warm_up()
    p = Pass(w, CORE_TARGETS)
    rounds = w.rounds()
    traced_rounds = []
    for r in range(4):
        ops = p.run(next(rounds), traced=r % 2 == 1)
        if r % 2:
            traced_rounds.append(ops)
    t = p.tracer
    metrics = {
        "modular.fd_reduce_us": median(_self_times(t, "modular.fd_reduce", US)),
        "dedekind.multiplier_us": median(_durations(t, "dedekind.multiplier", US)),
        "dedekind.sum_us": median(_durations(t, "dedekind.sum", US)),
        "dedekind.multiplier_repeat_share": _repeat_share(t, traced_rounds[0]),
        "transform.reduce_us": median(_self_times(t, "transform.reduce", US)),
        "transform.fast_us": median(_durations(t, "transform.fast", US)),
        "transform.fast_terms": median(_details(t, "transform.fast")),
        "theta.series_us": median(_durations(t, "theta.series", US)),
        "theta.series_terms": median(_details(t, "theta.series")),
        "trace_overhead_ms": p.overhead_ms(),
    }
    return w, p, metrics


def trace_law(seed: int, root: str):
    w = LawSweep(seed, root)
    w.warm_up()
    p = Pass(w, CORE_TARGETS)
    rounds = w.rounds()
    traced_ops = []
    for _ in range(4):
        batch = next(rounds)
        p.run(batch, traced=False)
        traced_ops.extend(p.run(batch, traced=True))
    t = p.tracer
    metrics = {
        "dedekind.multiplier_us": median(_durations(t, "dedekind.multiplier", US)),
        "dedekind.sum_us": median(_durations(t, "dedekind.sum", US)),
        "dedekind.multiplier_repeat_share": _repeat_share(t, set(traced_ops)),
        "transform.law_us": median(_self_times(t, "transform.law", US)),
        "theta.series_us": median(_durations(t, "theta.series", US)),
        "theta.series_terms": median(_details(t, "theta.series")),
        "theta.eta_us": median(_durations(t, "theta.eta", US)),
        "theta.eta_factors": median(_details(t, "theta.eta")),
        "trace_overhead_ms": p.overhead_ms(),
    }
    return w, p, metrics


def trace_residue(seed: int, root: str):
    w = ResidueReplay(seed, root)
    w.warm_up()
    p = Pass(w, RESIDUE_TARGETS)
    rounds = w.rounds()
    batch = next(rounds)
    p.run(batch, traced=False)
    ops = p.run(batch, traced=True)
    t = p.tracer

    kernel_under = {}
    for i in t.indices("residues.kernel"):
        parent = t.parent[i]
        kernel_under[parent] = kernel_under.get(parent, 0) + 1
    contour_evals = [kernel_under.get(i, 0) for i in t.indices("residues.contour")]

    circles = {}
    for i in t.indices("residues.circle_residue"):
        pole = t.detail[i]
        circles.setdefault(t.op_id[i], []).append((round(pole.real, 12), round(pole.imag, 12)))
    total = sum(len(c) for c in circles.values())
    duplicates = sum(len(c) - len(set(c)) for c in circles.values())

    pole_reports = dict.fromkeys(ops, 0.0)
    for i in t.indices("residues.pole_report"):
        pole_reports[t.op_id[i]] += t.duration(i) * MS

    metrics = {
        "dedekind.sum_us": median(_durations(t, "dedekind.sum", US)),
        "theta.log_sum_us": median(_durations(t, "theta.log_sum", US)),
        "residues.kernel_us": median(_durations(t, "residues.kernel", US)),
        "residues.kernel_evals": median(_per_op_counts(t, "residues.kernel", ops)),
        "residues.circle_residue_ms": median(_durations(t, "residues.circle_residue", MS)),
        "residues.circle_residues": median(_per_op_counts(t, "residues.circle_residue", ops)),
        "residues.duplicate_residue_share": duplicates / total,
        "residues.contour_ms": median(_durations(t, "residues.contour", MS)),
        "residues.contour_kernel_evals": median(contour_evals),
        "residues.closure_ms": median(_durations(t, "residues.closure", MS)),
        "residues.pole_reports_ms": median(pole_reports.values()),
        "residues.log_identity_ms": median(_durations(t, "residues.log_identity", MS)),
        "trace_overhead_ms": p.overhead_ms(),
    }
    return w, p, metrics


PROCESS_REPEATS = 7
IMPORT_TIMER = "import time; t = time.perf_counter(); import thetamod; print(repr(time.perf_counter() - t))"


class InProcessCli(CliCold):
    """The cli_cold commands run through thetamod.cli.main in this process, output captured."""

    def __init__(self, seed: int, root: str) -> None:
        super().__init__(seed, root)
        self.times: list[float] = []

    def call(self, i):
        import thetamod.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = thetamod.cli.main(list(self.commands[i]))
            self.times.append((time.perf_counter() - t0) * MS)
        return subprocess.CompletedProcess(self.commands[i], code, out.getvalue(), err.getvalue())


def trace_cli(seed: int, root: str):
    """Fresh-process interpreter and import times, and in-process command times.

    The in-process commands are checked like the workload's fresh processes.
    """
    import thetamod.cli  # noqa: F401  (imported before any command is timed)

    w = InProcessCli(seed, root)
    env = child_env(root)

    def run(argv):
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            w.problems.append(f"{argv}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc

    interpreter = []
    imports = []
    for _ in range(PROCESS_REPEATS):
        t0 = time.perf_counter()
        run([sys.executable, "-c", "pass"])
        interpreter.append((time.perf_counter() - t0) * MS)
        imports.append(float(run([sys.executable, "-c", IMPORT_TIMER]).stdout) * MS)

    p = Pass(w, [])
    rounds = w.rounds()
    for _ in range(2):
        p.run(next(rounds), traced=False)
    metrics = {
        "cli.interpreter_ms": median(interpreter),
        "cli.import_ms": median(imports),
        "cli.command_ms": median(w.times),
    }
    return w, p, metrics


TRACE_PASSES = (
    (NearAxis.name, trace_near),
    (LawSweep.name, trace_law),
    (ResidueReplay.name, trace_residue),
    (CliCold.name, trace_cli),
)


def traced_run(seed: int, root: str) -> dict:
    metrics = {}
    attempted = failed = 0
    problems = []
    for name, trace_pass in TRACE_PASSES:
        w, p, layer_metrics = trace_pass(seed, root)
        for key, value in layer_metrics.items():
            unit = METRIC_UNITS[key]
            metrics[f"{name}.{key}"] = {"value": float(value), "unit": unit}
        attempted += p.attempted
        failed += p.failed
        problems += w.problems
    return {"attempted": attempted, "failed": failed, "problems": problems, "metrics": metrics}


METRIC_UNITS = {
    "modular.fd_reduce_us": "us",
    "dedekind.multiplier_us": "us",
    "dedekind.sum_us": "us",
    "dedekind.multiplier_repeat_share": "share",
    "transform.reduce_us": "us",
    "transform.fast_us": "us",
    "transform.fast_terms": "count",
    "transform.law_us": "us",
    "theta.series_us": "us",
    "theta.series_terms": "count",
    "theta.eta_us": "us",
    "theta.eta_factors": "count",
    "theta.log_sum_us": "us",
    "residues.kernel_us": "us",
    "residues.kernel_evals": "count",
    "residues.circle_residue_ms": "ms",
    "residues.circle_residues": "count",
    "residues.duplicate_residue_share": "share",
    "residues.contour_ms": "ms",
    "residues.contour_kernel_evals": "count",
    "residues.closure_ms": "ms",
    "residues.pole_reports_ms": "ms",
    "residues.log_identity_ms": "ms",
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    "cli.command_ms": "ms",
    "trace_overhead_ms": "ms",
}

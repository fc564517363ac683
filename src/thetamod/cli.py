"""Batch command line for evaluation, reduction, multipliers, Dedekind sums,
and the verification sweeps.

Complex literals use the form a+bi / a-bi with no spaces (examples: 0.3+0i,
0.2-0.1i, 2i).  Matrices are four comma-separated integers a,b,c,d with
determinant one.

Exit codes (stable for CI use):
    0  success / verification passed
    1  verification failure
    2  usage or parse error (including broken input invariants)
    3  domain or numeric error (pole proximity, truncation, overflow, ...)

Each command builds its result rows once; JSON, CSV and text are written from
them.  All randomness flows from one seeded generator echoed in the report,
so identical seed and flags give byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field

from . import __version__
from .dedekind import dedekind_sum_fast, eta_multiplier, theta_multiplier
from .errors import ThetamodError, TruncationError, ValidationError
from .modular import ModularMatrix, moebius_apply, neg_mod_inverse, reduce_to_fundamental_domain
from .residues import VerifierParams, closure_residual, log_identity_residual
from .residues import origin_report, simple_pole_report
from .theta import TruncationControl, eta_info, theta1_series_info
from .transform import theta1_fast_info, transform_sweep

DEFAULT_SEED = 20260810
# terms at which `eval` switches from the direct series to the reduced path
DIRECT_TERM_LIMIT = 64
# closure passes below this share of 2 pi * (sum of |quadrature residues|)
CLOSURE_REL_TOL = 1e-10
IDENTITY_TOL = 1e-8


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        message = f"cannot parse complex literal {text!r}; use the form a+bi"
        raise argparse.ArgumentTypeError(message) from exc
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise argparse.ArgumentTypeError(f"complex literal {text!r} must be finite")
    return value


def _parse_matrix_entries(text: str) -> tuple[int, int, int, int]:
    parts = text.split(",")
    if len(parts) != 4:
        message = f"matrix must be four comma-separated integers a,b,c,d, got {text!r}"
        raise argparse.ArgumentTypeError(message)
    try:
        return tuple(int(part) for part in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"matrix entries must be integers: {text!r}") from exc


def _parse_tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse tolerance {text!r}") from exc
    if not (0.0 < value <= 1e-3):
        raise argparse.ArgumentTypeError(f"tolerance must be in (0, 1e-3], got {text!r}")
    return value


@dataclass(frozen=True)
class Report:
    """One command's result rows (dicts in output key order), the row fields
    written as CSV, the JSON fields after `results`, and the text layout."""

    params: dict
    rows: list[dict]
    columns: tuple[str, ...]
    text: list[str]
    summary: dict = field(default_factory=dict)
    code: int = 0


def _emit(args, report: Report) -> int:
    if args.format == "json":
        document = {"command": args.command, "params": report.params, "results": report.rows,
                    **report.summary, "version": __version__}
        payload = json.dumps(document, indent=2) + "\n"
    elif args.format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(report.columns)
        writer.writerows([row[name] for name in report.columns] for row in report.rows)
        payload = buffer.getvalue()
    else:
        payload = "\n".join(report.text) + "\n"
    try:
        target = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    except OSError as exc:
        raise ValidationError(f"cannot write --out {args.out!r}: {exc.strerror}") from exc
    with target as handle:
        handle.write(payload)
    return report.code


def _parts(prefix: str, value: complex) -> dict:
    return {f"{prefix}_re": value.real, f"{prefix}_im": value.imag}


def _value_row(info) -> dict:
    return {**_parts("value", info.value), "terms": info.terms, "err_bound": info.error_bound}


def _bound_line(info) -> str:
    return f"terms: {info.terms}   certified error bound: {info.error_bound!r}"


def _verdict(passed: bool) -> str:
    return f"result: {'PASS' if passed else 'FAIL'}"


def _cmd_eval(args) -> Report:
    ctl = TruncationControl(tolerance=max(args.tol, 1e-15))
    info, method = None, "direct"
    if args.method != "reduced":
        try:
            info = theta1_series_info(args.z, args.tau, ctl)
        except TruncationError:
            if args.method == "direct":
                raise
    if info is None or (args.method == "auto" and info.terms > DIRECT_TERM_LIMIT):
        info, method = theta1_fast_info(args.z, args.tau, ctl), "reduced"
    row = {**_value_row(info), "method": method}
    columns = tuple(row)
    text = [
        f"theta1({args.z!r}, {args.tau!r}) = {info.value!r}",
        f"method: {method}   {_bound_line(info)}",
    ]
    if method == "reduced":
        trace = info.trace
        a, b, c, d = trace.matrix.entries()
        row["reduction"] = {
            "matrix": [a, b, c, d],
            **_parts("tau_reduced", trace.tau_reduced),
            **_parts("z_reduced", trace.z_reduced),
            "lattice_shift": list(trace.lattice_shift),
        }
        text += [
            f"reduction: matrix ({a},{b};{c},{d}), lattice shift {trace.lattice_shift}",
            f"reduced point: z = {trace.z_reduced!r}, tau = {trace.tau_reduced!r}",
        ]
    params = {**_parts("z", args.z), **_parts("tau", args.tau)}
    return Report({**params, "tolerance": args.tol, "method": args.method}, [row], columns, text)


def _cmd_eta(args) -> Report:
    info = eta_info(args.tau, TruncationControl(tolerance=max(args.tol, 1e-15)))
    row = _value_row(info)
    text = [f"eta({args.tau!r}) = {info.value!r}", _bound_line(info)]
    return Report({**_parts("tau", args.tau), "tolerance": args.tol}, [row], tuple(row), text)


def _cmd_reduce(args) -> Report:
    mat, tau_red = reduce_to_fundamental_domain(args.tau)
    replay = abs(moebius_apply(mat, args.tau) - tau_red)
    a, b, c, d = mat.entries()
    row = {"a": a, "b": b, "c": c, "d": d, **_parts("tau", tau_red), "replay_residual": replay}
    text = [f"matrix: ({a},{b};{c},{d})", f"tau reduced: {tau_red!r}", f"replay residual: {replay!r}"]
    return Report(_parts("tau", args.tau), [row], tuple(row), text)


def _cmd_multiplier(args) -> Report:
    mat = ModularMatrix(*args.matrix)
    if mat.c <= 0:
        raise ValidationError("multiplier requires c > 0; negate the matrix first")
    eps = eta_multiplier(mat)
    eps1 = theta_multiplier(mat)
    row = {"eta_phase": str(eps.phase), **_parts("eta", eps.value),
           "theta_phase": str(eps1.phase), **_parts("theta", eps1.value)}
    text = [
        f"eta multiplier:   exp(i pi * {eps.phase}) = {eps.value!r}",
        f"theta multiplier: exp(i pi * {eps1.phase}) = {eps1.value!r}",
    ]
    return Report({"matrix": list(args.matrix)}, [row], tuple(row), text)


def _cmd_dedekind(args) -> Report:
    value = str(dedekind_sum_fast(args.h, args.k))
    row = {"h": args.h, "k": args.k, "value": value}
    return Report({"h": args.h, "k": args.k}, [row], tuple(row), [value])


def _case_row(case) -> dict:
    a, b, c, d = case.matrix.entries()
    return {"a": a, "b": b, "c": c, "d": d, **_parts("z", case.z), **_parts("tau", case.tau),
            "residual": case.residual}


def _cmd_verify_transform(args) -> Report:
    sweep = transform_sweep(args.count, args.seed, kind="theta")
    passed = sweep.max_residual < args.tol
    rows = [_case_row(case) for case in sweep.cases]
    text = [
        f"verify-transform: {args.count} cases, seed {args.seed}",
        f"max residual:    {sweep.max_residual!r}",
        f"median residual: {sweep.median_residual!r}",
        f"tolerance:       {args.tol!r}",
        _verdict(passed),
    ]
    for row, case in zip(rows, sweep.cases):
        if case.residual >= args.tol:
            text.append(
                f"  exceeds tolerance: A=({row['a']},{row['b']};{row['c']},{row['d']}) "
                f"z={case.z!r} tau={case.tau!r} residual={case.residual!r}"
            )
    summary = {"max_residual": sweep.max_residual, "median_residual": sweep.median_residual,
               "seed": args.seed, "pass": passed}
    params = {"count": args.count, "tolerance": args.tol}
    return Report(params, rows, tuple(rows[0]), text, summary, 0 if passed else 1)


def _cmd_sweep(args) -> Report:
    sweeps = [transform_sweep(args.count, args.seed, kind=kind) for kind in ("theta", "eta")]
    theta_max, eta_max = (sweep.max_residual for sweep in sweeps)
    passed = theta_max < args.tol and eta_max < args.tol
    rows = [{"kind": sweep.kind, **_case_row(case)} for sweep in sweeps for case in sweep.cases]
    text = [
        f"sweep: {args.count} theta cases and {args.count} eta cases, seed {args.seed}",
        f"theta max residual: {theta_max!r}",
        f"eta max residual:   {eta_max!r}",
        f"tolerance:          {args.tol!r}",
        _verdict(passed),
    ]
    summary = {"max_residual": max(theta_max, eta_max), "seed": args.seed, "pass": passed}
    params = {"count": args.count, "tolerance": args.tol}
    return Report(params, rows, tuple(rows[0]), text, summary, 0 if passed else 1)


def _pole_row(family: str, n: int, pole: complex, closed: complex, oracle: complex, diff: float):
    return {"family": family, "n": n, **_parts("pole", pole), **_parts("closed", closed),
            **_parts("oracle", oracle), "discrepancy": diff}


def _cmd_verify_residues(args) -> Report:
    if math.gcd(args.h, args.k) != 1:
        raise ValidationError(f"h={args.h} and k={args.k} must be coprime")
    H = neg_mod_inverse(args.h, args.k)
    params = VerifierParams(h=args.h, k=args.k, H=H, v=args.v, z=args.z, m=args.m)
    origin = origin_report(params)
    assembled, oracle = origin.origin.assembled, origin.oracle
    rows = [_pole_row("origin", 0, 0j, assembled, oracle, origin.discrepancy_assembled)]
    columns = tuple(rows[0])
    rows[0]["compact_form_discrepancy"] = origin.discrepancy_compact
    oracles = [oracle]
    for family in ("imag", "real"):
        for n in filter(None, range(-args.m, args.m + 1)):
            rep = simple_pole_report(params, family, n)
            oracles.append(rep.oracle)
            rows.append(_pole_row(family, n, rep.pole, rep.closed_form, rep.oracle, rep.discrepancy))
    closure = closure_residual(params)
    closure_tol = CLOSURE_REL_TOL * 2 * math.pi * sum(map(abs, oracles))
    identity = log_identity_residual(params, args.cap)
    gap = abs(closure.contour - (-math.log(params.v)))
    passed = closure.residual < closure_tol and identity < IDENTITY_TOL
    text = [
        f"verify-residues: h={args.h} k={args.k} H={H} v={args.v!r} z={args.z!r} m={args.m}",
        f"{'family':>8} {'n':>4} {'closed form':>28} {'oracle':>28} {'|diff|':>12}",
    ]
    for row in rows:
        closed = complex(row["closed_re"], row["closed_im"])
        oracle = complex(row["oracle_re"], row["oracle_im"])
        text.append(
            f"{row['family']:>8} {row['n']:>4} {closed:>28.16g} {oracle:>28.16g} {row['discrepancy']:>12.3e}"
        )
    text += [
        f"compact origin form differs from the assembled residue by {origin.origin.discrepancy!r}",
        f"residue-theorem closure residual: {closure.residual!r} (tolerance {closure_tol:.3g})",
        f"log-identity residual (cap {args.cap}): {identity!r} (tolerance {IDENTITY_TOL!r})",
        f"contour vs -log(v) gap at m={args.m}: {gap!r}",
        _verdict(passed),
    ]
    summary = {"closure_residual": closure.residual, "identity_residual": identity,
               "contour_gap": gap, "max_residual": max(closure.residual, identity), "pass": passed}
    report_params = {"h": args.h, "k": args.k, "H": H, "v": args.v, **_parts("z", args.z),
                     "m": args.m, "cap": args.cap}
    return Report(report_params, rows, columns, text, summary, 0 if passed else 1)


COMMANDS = {
    "eval": (_cmd_eval, "evaluate theta1(z, tau)"),
    "eta": (_cmd_eta, "evaluate eta(tau)"),
    "reduce": (_cmd_reduce, "reduce tau to the fundamental domain"),
    "multiplier": (_cmd_multiplier, "eta and theta multipliers of a matrix"),
    "dedekind": (_cmd_dedekind, "exact Dedekind sum s(h, k)"),
    "verify-transform": (_cmd_verify_transform, "random sweep of the theta transformation law"),
    "sweep": (_cmd_sweep, "theta and eta residual sweeps (plot-ready rows)"),
    "verify-residues": (_cmd_verify_residues, "closed-form residues vs quadrature, closure, identity"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetamod",
        description="Jacobi theta / Dedekind eta evaluation and transformation-law verification",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p = {name: sub.add_parser(name, help=help_text) for name, (_, help_text) in COMMANDS.items()}
    p["eval"].add_argument("--z", type=_parse_complex, required=True)
    for name in ("eval", "eta", "reduce"):
        p[name].add_argument("--tau", type=_parse_complex, required=True)
    for name in ("eval", "eta"):
        p[name].add_argument("--tol", type=_parse_tolerance, default=1e-12)
    p["eval"].add_argument("--method", choices=("auto", "direct", "reduced"), default="auto")
    p["multiplier"].add_argument("--matrix", type=_parse_matrix_entries, required=True)
    p["dedekind"].add_argument("--h", type=int, required=True)
    p["dedekind"].add_argument("--k", type=int, required=True)
    for name, count in (("verify-transform", 200), ("sweep", 100)):
        p[name].add_argument("--count", type=int, default=count)
        p[name].add_argument("--tol", type=_parse_tolerance, default=1e-9)
        p[name].add_argument("--seed", type=int, default=DEFAULT_SEED)
    for flag, kind in (("--m", int), ("--k", int), ("--h", int), ("--v", float), ("--z", _parse_complex)):
        p["verify-residues"].add_argument(flag, type=kind, required=True)
    p["verify-residues"].add_argument("--cap", type=int, default=400)
    for sub_parser in p.values():
        sub_parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
        sub_parser.add_argument("--out", default=None, help="write the report to this path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _emit(args, COMMANDS[args.command][0](args))
    except ThetamodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidationError) else 3
    except (ArithmeticError, ValueError) as exc:
        # a raw numeric failure inside the library is still a numeric error
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Batch command line for evaluation, reduction, multipliers, Dedekind sums,
and the verification sweeps.

Complex literals use the form a+bi / a-bi with no spaces (examples: 0.3+0i,
0.2-0.1i, 2i).  Matrices are four comma-separated integers a,b,c,d with
determinant one.  A value with a leading minus sign joins its flag with "=":
--tau=-3.2+1.5i and --matrix=-1,5,0,-1 (a separate "-3.2+1.5i" reads as a flag).

Exit codes (stable for CI use):
    0  success / verification passed
    1  verification failure
    2  usage or parse error (including broken input invariants)
    3  domain or numeric error (pole proximity, truncation, overflow, ...)

Each command builds its result rows once, as flat dicts that share one key
list: CSV writes that list as its header and one line per row, JSON writes the
rows as `results` and the report-wide fields after them, and the text layout
is the command's own.  All randomness flows from one seeded generator echoed
in the report, so identical seed and flags give byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from contextlib import nullcontext
from statistics import median

from . import __version__
from ._record import record
from .dedekind import dedekind_sum_fast, eta_multiplier, theta_multiplier
from .errors import ThetamodError, ValidationError
from .modular import ModularMatrix, moebius_apply, neg_mod_inverse, reduce_to_fundamental_domain
from .theta import TruncationControl, eta_info
from .transform import theta1_fast_info, transform_sweep

DEFAULT_SEED = 20260810


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


@record
class Report:
    """One command's result rows (flat dicts in output key order, the same keys
    in every row), the JSON fields after `results`, and the text layout."""

    params: dict
    rows: list[dict]
    text: list[str]
    summary: dict | None = None
    code: int = 0


def _emit(args, report: Report) -> int:
    if args.format == "json":  # json and csv load only for their format: ~3 ms of a text command's cold start
        import json
        document = {"command": args.command, "params": report.params, "results": report.rows,
                    **(report.summary or {}), "version": __version__}
        payload = json.dumps(document, indent=2) + "\n"
    elif args.format == "csv":
        import csv
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, list(report.rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(report.rows)
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


def _bound_lines(info, label: str = "") -> list[str]:
    """The term count and bound, then a line saying so where the bound reaches |value|."""
    line = f"{label}terms: {info.terms}   certified error bound: {info.error_bound!r}"
    return [line] if info.error_bound < abs(info.value) else [line, "no digit of the value is certified"]


def _verdict(passed: bool) -> str:
    return f"result: {'PASS' if passed else 'FAIL'}"


def _cmd_eval(args) -> Report:
    info = theta1_fast_info(args.z, args.tau, TruncationControl(args.tol))
    trace = info.trace
    a, b, c, d = trace.matrix.entries()
    reduction = {
        "matrix": [a, b, c, d],
        **_parts("tau_reduced", trace.tau_reduced),
        **_parts("z_reduced", trace.z_reduced),
        "lattice_shift": list(trace.lattice_shift),
    }
    text = [
        f"theta1({args.z!r}, {args.tau!r}) = {info.value!r}",
        # every value is carried back from the reduced point; the label stays for parsers of this line
        *_bound_lines(info, "method: reduced   "),
        f"reduction: matrix ({a},{b};{c},{d}), lattice shift {trace.lattice_shift}",
        f"reduced point: z = {trace.z_reduced!r}, tau = {trace.tau_reduced!r}",
    ]
    params = {**_parts("z", args.z), **_parts("tau", args.tau), "tolerance": args.tol}
    return Report(params, [_value_row(info)], text, {"reduction": reduction})


def _cmd_eta(args) -> Report:
    info = eta_info(args.tau, TruncationControl(args.tol))
    text = [f"eta({args.tau!r}) = {info.value!r}", *_bound_lines(info)]
    return Report({**_parts("tau", args.tau), "tolerance": args.tol}, [_value_row(info)], text)


def _cmd_reduce(args) -> Report:
    mat, tau_red, _ = reduce_to_fundamental_domain(args.tau)
    replay = abs(moebius_apply(mat.inverse(), tau_red) - args.tau) / abs(args.tau)
    a, b, c, d = mat.entries()
    row = {"a": a, "b": b, "c": c, "d": d, **_parts("tau", tau_red), "replay_residual": replay}
    text = [f"matrix: ({a},{b};{c},{d})", f"tau reduced: {tau_red!r}", f"replay residual: {replay!r}"]
    return Report(_parts("tau", args.tau), [row], text)


def _cmd_multiplier(args) -> Report:
    mat = ModularMatrix(*args.matrix)
    eps = eta_multiplier(mat)  # rejects c < 0
    eps1 = theta_multiplier(mat)
    row = {"eta_phase": str(eps.phase), **_parts("eta", eps.value),
           "theta_phase": str(eps1.phase), **_parts("theta", eps1.value)}
    text = [
        f"eta multiplier:   exp(i pi * {eps.phase}) = {eps.value!r}",
        f"theta multiplier: exp(i pi * {eps1.phase}) = {eps1.value!r}",
    ]
    return Report({"matrix": list(args.matrix)}, [row], text)


def _cmd_dedekind(args) -> Report:
    value = str(dedekind_sum_fast(args.h, args.k))
    return Report({"h": args.h, "k": args.k}, [{"h": args.h, "k": args.k, "value": value}], [value])


def _case_row(kind: str, case) -> dict:
    a, b, c, d = case.matrix.entries()
    return {"kind": kind, "a": a, "b": b, "c": c, "d": d, **_parts("z", case.z), **_parts("tau", case.tau),
            "residual": case.residual}


def _cmd_law_sweep(args) -> Report:
    """verify-transform and sweep: one transform_sweep per kind the parser sets, one row per case."""
    sweeps = [transform_sweep(args.count, args.seed, kind=kind) for kind in args.kinds]
    rows = [_case_row(sweep.kind, case) for sweep in sweeps for case in sweep.cases]
    residuals = [row["residual"] for row in rows]
    passed = max(residuals) < args.tol
    text = [f"{args.command}: {' and '.join(f'{args.count} {kind} cases' for kind in args.kinds)}, seed {args.seed}"]
    for sweep in sweeps:
        text += [f"{sweep.kind + ' max residual:':<23}{sweep.max_residual!r}",
                 f"{sweep.kind + ' median residual:':<23}{sweep.median_residual!r}"]
    text += [f"{'tolerance:':<23}{args.tol!r}", _verdict(passed)]
    for sweep in sweeps:
        for case in sweep.cases:
            if case.residual >= args.tol:
                a, b, c, d = case.matrix.entries()
                text.append(f"  exceeds tolerance: {sweep.kind} A=({a},{b};{c},{d}) z={case.z!r} tau={case.tau!r} "
                            f"residual={case.residual!r}")
    summary = {"max_residual": max(residuals), "median_residual": median(residuals),
               "seed": args.seed, "pass": passed}
    return Report({"count": args.count, "tolerance": args.tol}, rows, text, summary, 0 if passed else 1)


def _cmd_verify_residues(args) -> Report:
    from .residues import IDENTITY_TOL, VerifierParams, verify_residues  # numpy loads only for this command

    H = neg_mod_inverse(args.h, args.k)
    r = verify_residues(VerifierParams(h=args.h, k=args.k, H=H, v=args.v, z=args.z, m=args.m), args.cap)
    poles = r.closure.poles
    rows = [{"family": e.family, "n": e.n, **_parts("pole", e.pole), **_parts("closed", c),
             **_parts("oracle", e.residue), "discrepancy": abs(c - e.residue)} for e, c in zip(poles, r.closed_forms)]
    text = [
        f"verify-residues: h={args.h} k={args.k} H={H} v={args.v!r} z={args.z!r} m={args.m}",
        f"{'family':>8} {'n':>4} {'closed form':>28} {'oracle':>28} {'|diff|':>12}",
    ]
    for e, c, row in zip(poles, r.closed_forms, rows):
        text.append(f"{e.family:>8} {e.n:>4} {c:>28.16g} {e.residue:>28.16g} {row['discrepancy']:>12.3e}")
    text += [
        f"compact origin form differs from the assembled residue by {r.origin.discrepancy!r}",
        f"residue-theorem closure residual: {r.closure.residual!r} (tolerance {r.closure_tol:.3g})",
        f"log-identity residual (cap {args.cap}): {r.identity!r} (tolerance {IDENTITY_TOL!r})",
        f"contour vs -log(v) gap at m={args.m}: {r.gap!r}",
        _verdict(r.passed),
    ]
    summary = {"compact_form_discrepancy": abs(r.origin.compact - poles[0].residue),
               "closure_residual": r.closure.residual, "identity_residual": r.identity,
               "contour_gap": r.gap, "max_residual": max(r.closure.residual, r.identity), "pass": r.passed}
    report_params = {"h": args.h, "k": args.k, "H": H, "v": args.v, **_parts("z", args.z),
                     "m": args.m, "cap": args.cap}
    return Report(report_params, rows, text, summary, 0 if r.passed else 1)


COMMANDS = {
    "eval": (_cmd_eval, "evaluate theta1(z, tau)"),
    "eta": (_cmd_eta, "evaluate eta(tau)"),
    "reduce": (_cmd_reduce, "reduce tau to the fundamental domain"),
    "multiplier": (_cmd_multiplier, "eta and theta multipliers of a matrix"),
    "dedekind": (_cmd_dedekind, "exact Dedekind sum s(h, k)"),
    "verify-transform": (_cmd_law_sweep, "random sweep of the theta transformation law"),
    "sweep": (_cmd_law_sweep, "theta and eta residual sweeps (plot-ready rows)"),
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
    p["multiplier"].add_argument("--matrix", type=_parse_matrix_entries, required=True)
    p["dedekind"].add_argument("--h", type=int, required=True)
    p["dedekind"].add_argument("--k", type=int, required=True)
    for name, count, kinds in (("verify-transform", 200, ("theta",)), ("sweep", 100, ("theta", "eta"))):
        p[name].set_defaults(kinds=kinds)
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

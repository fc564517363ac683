"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see every line as it runs
(or `-rA` for a summary afterwards).  Criteria 8 and 9 are asserted at their
stated targets; the README explains why they cannot be met.
"""

import cmath
import math
import random
import time

import mpmath as mp

from conftest import mp_theta1_direct
from thetamod import (
    TruncationControl,
    VerifierParams,
    closure_residual,
    contour_gap,
    dedekind_sum_fast,
    dedekind_sum_naive,
    edge_limit_probe,
    jacobi_triple_product_check,
    lattice_distance,
    log_identity_residual,
    neg_mod_inverse,
    theta1_fast_info,
    theta1_series,
    theta1_product,
    transform_sweep,
    verify_residues,
)
from thetamod.residues import EDGE_LIMITS

SEED = 20260810
TIGHT = TruncationControl(tolerance=1e-15)


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {number:2d} [{status}] {name}: {detail}")


def test_criterion_01_theta_transformation_sweep():
    start = time.perf_counter()
    sweep = transform_sweep(count=200, seed=SEED, kind="theta")
    elapsed = time.perf_counter() - start
    ok = sweep.max_residual < 1e-9 and elapsed < 10.0
    _report(
        1,
        "theta transformation law, 200 seeded cases",
        ok,
        f"max residual {sweep.max_residual:.3e} (tol 1e-9), "
        f"median {sweep.median_residual:.3e}, {elapsed:.2f}s (< 10s)",
    )
    assert sweep.max_residual < 1e-9
    assert elapsed < 10.0


def test_criterion_02_eta_transformation_sweep():
    start = time.perf_counter()
    sweep = transform_sweep(count=200, seed=SEED + 1, kind="eta")
    elapsed = time.perf_counter() - start
    ok = sweep.max_residual < 1e-10 and elapsed < 5.0
    _report(
        2,
        "eta transformation law, 200 seeded cases",
        ok,
        f"max residual {sweep.max_residual:.3e} (tol 1e-10), {elapsed:.2f}s (< 5s)",
    )
    assert sweep.max_residual < 1e-10
    assert elapsed < 5.0


def test_criterion_03_series_product_triple():
    start = time.perf_counter()
    rng = random.Random(SEED + 2)
    worst_sp = 0.0
    checked = 0
    while checked < 100:
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.5))
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) > 1 or lattice_distance(z, tau) < 0.05:
            continue
        checked += 1
        a = theta1_series(z, tau, TIGHT)
        b = theta1_product(z, tau, TIGHT)
        worst_sp = max(worst_sp, abs(a - b) / abs(a))
    worst_tp = 0.0
    for _ in range(100):
        w = rng.uniform(0.5, 1.5) * cmath.exp(2j * math.pi * rng.random())
        q = rng.uniform(0.0, 0.7) * cmath.exp(2j * math.pi * rng.random())
        lhs, rhs = jacobi_triple_product_check(w, q, TIGHT)
        worst_tp = max(worst_tp, abs(lhs - rhs))
    elapsed = time.perf_counter() - start
    ok = worst_sp < 1e-12 and worst_tp < 1e-10 and elapsed < 5.0
    _report(
        3,
        "series = product & triple product",
        ok,
        f"series/product rel diff {worst_sp:.3e} (tol 1e-12), "
        f"triple-product diff {worst_tp:.3e} (tol 1e-10), {elapsed:.2f}s (< 5s)",
    )
    assert worst_sp < 1e-12
    assert worst_tp < 1e-10
    assert elapsed < 5.0


def test_criterion_04_dedekind_sums():
    start = time.perf_counter()
    mismatches = 0
    for k in range(1, 201):
        for h in range(1, k) if k > 1 else [0]:
            if math.gcd(h, k) != 1:
                continue
            if dedekind_sum_fast(h, k) != dedekind_sum_naive(h, k):
                mismatches += 1
    from fractions import Fraction

    reciprocity_failures = 0
    for k in range(2, 101):
        for h in range(1, k):
            if math.gcd(h, k) != 1:
                continue
            lhs = dedekind_sum_naive(h, k) + dedekind_sum_naive(k, h)
            rhs = Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k)
            if lhs != rhs:
                reciprocity_failures += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and reciprocity_failures == 0 and elapsed < 5.0
    _report(
        4,
        "Dedekind sums: fast = naive (k <= 200), reciprocity (k <= 100)",
        ok,
        f"{mismatches} mismatches, {reciprocity_failures} reciprocity failures, "
        f"{elapsed:.2f}s (< 5s)",
    )
    assert mismatches == 0
    assert reciprocity_failures == 0
    assert elapsed < 5.0


def test_criterion_05_residue_theorem_closure():
    start = time.perf_counter()
    params = VerifierParams(h=1, k=2, H=1, v=1.5, z=0.2 + 0.1j, m=3)
    report = closure_residual(params)
    elapsed = time.perf_counter() - start
    ok = report.residual < 1e-6 and elapsed < 30.0
    _report(
        5,
        "residue-theorem closure at (m,k,h,v,z)=(3,2,1,1.5,0.2+0.1i)",
        ok,
        f"|contour - 2 pi i sum| = {report.residual:.3e} (tol 1e-6), {elapsed:.2f}s (< 30s)",
    )
    assert report.residual < 1e-6
    assert elapsed < 30.0


def test_criterion_06_closed_forms_vs_oracle():
    start = time.perf_counter()
    worst_simple = 0.0
    worst_origin = 0.0
    compact_discrepancies = []
    for k in (1, 2, 3, 5):
        h = 1 if k > 1 else 0
        H = neg_mod_inverse(h, k)
        for m in (2, 3):
            for v in (1.3, 2.0):
                result = verify_residues(VerifierParams(h=h, k=k, H=H, v=v, z=0.2 + 0.1j, m=m))
                # the path verify-residues runs: each closed form against closure's circle residue,
                # the origin first (its assembled form), then both simple-pole families
                gaps = [abs(c - e.residue) for e, c in zip(result.closure.poles, result.closed_forms)]
                worst_origin = max(worst_origin, gaps[0])
                worst_simple = max(worst_simple, *gaps[1:])
                compact_discrepancies.append(result.origin.discrepancy)
    elapsed = time.perf_counter() - start
    # the compact origin form differs from the oracle-backed assembly by a
    # constant 1/2; the discrepancy record is emitted here, and closure
    # (criterion 5) passes regardless because it uses quadrature residues
    compact_note = max(abs(d - 0.5) for d in compact_discrepancies)
    ok = worst_simple < 1e-8 and worst_origin < 1e-8 and elapsed < 60.0
    _report(
        6,
        "closed-form residues vs quadrature oracle on the (k, m, v) grid",
        ok,
        f"simple poles {worst_simple:.3e} (tol 1e-8), origin assembled "
        f"{worst_origin:.3e} (tol 1e-8); discrepancy record: compact form - "
        f"assembled = 1/2 exactly (max deviation {compact_note:.1e}), "
        f"{elapsed:.2f}s (< 60s)",
    )
    assert worst_simple < 1e-8
    assert worst_origin < 1e-8
    assert elapsed < 60.0


def test_criterion_07_log_identity():
    start = time.perf_counter()
    worst = 0.0
    for h, k, H in ((1, 2, 1), (1, 3, 2), (2, 5, 2)):
        for v in (1.2, 1.5):
            params = VerifierParams(h=h, k=k, H=H, v=v, z=0.1 + 0.05j, m=2)
            worst = max(worst, log_identity_residual(params, sum_cap=400))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    _report(
        7,
        "logarithmic identity, sums capped at n = 400",
        ok,
        f"max residual {worst:.3e} (tol 1e-8), {elapsed:.2f}s (< 10s)",
    )
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_08_contour_limit():
    start = time.perf_counter()
    gaps = []
    for m in (10, 20, 40):
        params = VerifierParams(h=0, k=1, H=0, v=2.0, z=0.2 + 0.1j, m=m)
        gaps.append(contour_gap(params))
    params40 = VerifierParams(h=0, k=1, H=0, v=2.0, z=0.2 + 0.1j, m=40)
    probe_errors = [
        abs(edge_limit_probe(params40, edge, 0.5) - EDGE_LIMITS[edge]) for edge in range(4)
    ]
    elapsed = time.perf_counter() - start
    monotone = gaps[0] > gaps[1] > gaps[2]
    ok = monotone and gaps[2] < 0.1 and max(probe_errors) < 0.05 and elapsed < 120.0
    _report(
        8,
        "contour limit at (k,h,v,z)=(1,0,2,0.2+0.1i)",
        ok,
        f"gaps m=10/20/40: {gaps[0]:.3e}, {gaps[1]:.3e}, {gaps[2]:.3e} "
        f"(monotone decreasing? {monotone}; < 0.1 at m=40? {gaps[2] < 0.1}); "
        f"mid-edge probe errors {', '.join(f'{e:.3e}' for e in probe_errors)} "
        f"(tol 0.05), {elapsed:.2f}s (< 120s)",
    )
    assert monotone, f"gap sequence not decreasing: {gaps}"
    assert gaps[2] < 0.1, f"gap at m=40 is {gaps[2]:.3e}"
    assert max(probe_errors) < 0.05, f"edge probes off by {probe_errors}"
    assert elapsed < 120.0


def _oracle_with_term_count(z: complex, tau: complex, dps: int = 50) -> tuple[complex, int]:
    """Direct extended-precision summation with its own certified cutoff."""
    target = mp.mpf(10) ** (5 - dps)
    a = math.pi * tau.imag
    b = math.pi * abs(complex(z).imag)
    n = 0
    while math.exp(-a * (n + 1.5) ** 2 + (2 * n + 3) * b) >= target:
        n += 1
    with mp.workdps(dps):
        zz = mp.mpc(z)
        tt = mp.mpc(tau)
        total = mp.mpc(0)
        for idx in range(n + 1):
            half = idx + mp.mpf(1) / 2
            total += (-1) ** idx * mp.exp(1j * mp.pi * tt * half * half) * mp.sin(
                (2 * idx + 1) * mp.pi * zz
            )
        value = complex(2 * total)
    return value, 2 * (n + 1)


def test_criterion_09_fast_evaluator_near_real_axis():
    start = time.perf_counter()
    worst_mismatch = 0.0
    worst_ratio = 0.0
    details = []
    for re_tau in (0.0, 0.3, -0.41):
        tau = complex(re_tau, 0.005)
        z = 0.2
        oracle, direct_terms = _oracle_with_term_count(z, tau)
        fast = theta1_fast_info(z, tau, TruncationControl(tolerance=1e-10))
        mismatch = abs(fast.value - oracle) / max(1.0, abs(oracle))
        ratio = fast.terms / direct_terms
        worst_mismatch = max(worst_mismatch, mismatch)
        worst_ratio = max(worst_ratio, ratio)
        details.append(f"Re tau={re_tau}: |diff|={mismatch:.2e}, terms {fast.terms}/{direct_terms}")
    elapsed = time.perf_counter() - start
    ok = worst_mismatch < 1e-9 and worst_ratio < 0.01 and elapsed < 10.0
    _report(
        9,
        "fast evaluator at Im tau = 0.005",
        ok,
        f"max mismatch {worst_mismatch:.3e} (tol 1e-9), max term ratio "
        f"{100 * worst_ratio:.2f}% (required < 1%); {'; '.join(details)}; "
        f"{elapsed:.2f}s (< 10s)",
    )
    assert worst_mismatch < 1e-9
    assert worst_ratio < 0.01, (
        f"fast evaluator used {100 * worst_ratio:.2f}% of the direct term count"
    )
    assert elapsed < 10.0


def _identity_residual(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def test_criterion_10_quasi_periodicity_suite():
    # z drawn in the centered cell |Re z| <= 1/2, |Im z| <= Im(tau)/2, off the
    # lattice; each identity compared relative to the larger side, so the
    # check measures the identity rather than cancellation at extreme shifts
    start = time.perf_counter()
    rng = random.Random(SEED + 3)
    factor = cmath.exp(1j * math.pi / 4)
    worst = 0.0
    checked = 0
    while checked < 50:
        tau = complex(rng.uniform(-1, 1), rng.uniform(0.3, 3.0))
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5) * tau.imag)
        if lattice_distance(z, tau) < 0.05:
            continue
        checked += 1
        base = theta1_series(z, tau, TIGHT)
        checks = (
            _identity_residual(theta1_series(-z, tau, TIGHT), -base),
            _identity_residual(theta1_series(z + 1, tau, TIGHT), -base),
            _identity_residual(
                theta1_series(z + tau, tau, TIGHT),
                -cmath.exp(-1j * math.pi * tau - 2j * math.pi * z) * base,
            ),
            _identity_residual(theta1_series(z, tau + 1, TIGHT), factor * base),
        )
        worst = max(worst, max(checks))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 5.0
    _report(
        10,
        "quasi-periodicity suite (oddness, z+1, z+tau, tau+1)",
        ok,
        f"max relative deviation {worst:.3e} (tol 1e-12), {elapsed:.2f}s (< 5s)",
    )
    assert worst < 1e-12
    assert elapsed < 5.0

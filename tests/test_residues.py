import cmath
import math
from collections import Counter

import pytest

from thetamod import residues
from thetamod import (
    DomainError,
    GeometryError,
    ValidationError,
    VerifierParams,
    circle_residue,
    closure_residual,
    contour_gap,
    contour_integral,
    dedekind_sum_fast,
    edge_limit_probe,
    enclosed_poles,
    eval_kernel,
    eval_kernel_block,
    log_identity_residual,
    neg_mod_inverse,
    numeric_residue,
    origin_report,
    residue_at_imag_pole,
    residue_at_origin,
    residue_at_real_pole,
    simple_pole_report,
)
from thetamod.residues import EDGE_LIMITS, nearest_pole_distance

BASE = VerifierParams(h=1, k=2, H=1, v=1.5, z=0.2 + 0.1j, m=2)


class TestVerifierParams:
    def test_order_is_half_integer(self):
        assert BASE.order == 2.5

    def test_gcd_violation(self):
        with pytest.raises(ValidationError):
            VerifierParams(h=2, k=2, H=1, v=1.5, z=0.2 + 0.1j, m=2)

    def test_congruence_violation(self):
        with pytest.raises(ValidationError):
            VerifierParams(h=1, k=3, H=1, v=1.5, z=0.2 + 0.1j, m=2)

    def test_region_violation(self):
        with pytest.raises(ValidationError):
            VerifierParams(h=1, k=2, H=1, v=0.05, z=0.2 + 0.1j, m=2)
        with pytest.raises(ValidationError):
            VerifierParams(h=1, k=2, H=1, v=1.5, z=0.2 + 0j, m=2)

    def test_m_cap(self):
        with pytest.raises(ValidationError):
            VerifierParams(h=1, k=2, H=1, v=1.5, z=0.2 + 0.1j, m=65)


class TestCircleResidue:
    def test_simple_pole(self):
        assert abs(circle_residue(lambda x: 1 / x, 0j, 0.3) - 1) < 1e-12

    def test_third_order_without_residue(self):
        assert abs(circle_residue(lambda x: 1 / x**3, 0j, 0.3)) < 1e-12

    def test_exp_over_cube(self):
        # e^{2x}/x^3 has residue 2^2/2! = 2
        value = circle_residue(lambda x: cmath.exp(2 * x) / x**3, 0j, 0.3)
        assert abs(value - 2) < 1e-10

    def test_point_minimum(self):
        with pytest.raises(ValidationError):
            circle_residue(lambda x: 1 / x, 0j, 0.3, points=32)


class TestKernelBlock:
    def test_empty_family_for_k1(self):
        params = VerifierParams(h=0, k=1, H=0, v=1.5, z=0.2 + 0.1j, m=2)
        with pytest.raises(ValidationError):
            eval_kernel_block(params, 0.1 + 0.0j, 1)

    def test_factorization(self):
        # the block is the product of 1/x and the two printed fractions
        params = VerifierParams(h=1, k=2, H=1, v=1.5, z=0.2 + 0.1j, m=2)
        x = 0.1 + 0.0j
        n_order = params.order
        w = (params.h * 1) % params.k
        direct = (
            (1 / x)
            * cmath.exp(2 * math.pi * n_order * w * x / params.k)
            / (1 - cmath.exp(2 * math.pi * n_order * x))
            * cmath.exp(2j * math.pi * n_order * 1 * params.v * x / params.k)
            / (1 - cmath.exp(2j * math.pi * n_order * x * params.v))
        )
        assert abs(eval_kernel_block(params, x, 1) - direct) <= 1e-12 * abs(direct)

    def test_conjugate_probe_finite(self):
        value = eval_kernel_block(BASE, complex(0.13, -0.07), 1)
        assert math.isfinite(value.real) and math.isfinite(value.imag)

    def test_pole_proximity_rejected(self):
        with pytest.raises(DomainError):
            eval_kernel_block(BASE, 1j * 1 / BASE.order + 1e-14, 1)


class TestKernel:
    def test_k1_reduces_to_three_groups(self):
        params = VerifierParams(h=0, k=1, H=0, v=1.5, z=0.2 + 0.1j, m=2)
        x = 0.21 + 0.13j
        n_order = params.order
        coth = lambda y: cmath.cosh(y) / cmath.sinh(y)
        cot = lambda y: cmath.cos(y) / cmath.sin(y)
        direct = (
            coth(math.pi * n_order * x) * cot(math.pi * n_order * x * params.v) / (4j * x)
            + cmath.exp(2 * math.pi * n_order * params.z * x)
            / x
            / (1 - cmath.exp(2 * math.pi * n_order * x))
            * cmath.exp(2j * math.pi * n_order * params.v * x)
            / (1 - cmath.exp(2j * math.pi * n_order * params.v * x))
            + cmath.exp(-2 * math.pi * n_order * params.z * x)
            / x
            * cmath.exp(2 * math.pi * n_order * x)
            / (1 - cmath.exp(2 * math.pi * n_order * x))
            / (1 - cmath.exp(2j * math.pi * n_order * params.v * x))
        )
        assert abs(eval_kernel(params, x) - direct) <= 1e-11 * abs(direct)

    def test_finite_on_grid(self):
        for re in (-0.4, -0.1, 0.17, 0.33):
            for im in (-0.37, -0.05, 0.11, 0.29):
                value = eval_kernel(BASE, complex(re, im))
                assert math.isfinite(value.real) and math.isfinite(value.imag)

    def test_stable_against_naive_at_moderate_x(self):
        # spot check the overflow-safe form against a literal translation
        params = BASE
        n_order = params.order
        x = 0.31 + 0.22j

        def naive():
            total = (
                (cmath.cosh(math.pi * n_order * x) / cmath.sinh(math.pi * n_order * x))
                * (cmath.cos(math.pi * n_order * x * params.v) / cmath.sin(math.pi * n_order * x * params.v))
                / (4j * x)
            )
            for mu in range(1, params.k):
                w = (params.h * mu) % params.k
                block = (
                    (1 / x)
                    * cmath.exp(2 * math.pi * n_order * w * x / params.k)
                    / (1 - cmath.exp(2 * math.pi * n_order * x))
                    * cmath.exp(2j * math.pi * n_order * mu * params.v * x / params.k)
                    / (1 - cmath.exp(2j * math.pi * n_order * x * params.v))
                )
                total += block + 2 * cmath.exp(2 * math.pi * n_order * params.z * x) * block
            total += (
                cmath.exp(2 * math.pi * n_order * params.z * x)
                / x
                / (1 - cmath.exp(2 * math.pi * n_order * x))
                * cmath.exp(2j * math.pi * n_order * params.v * x)
                / (1 - cmath.exp(2j * math.pi * n_order * params.v * x))
            )
            total += (
                cmath.exp(-2 * math.pi * n_order * params.z * x)
                / x
                * cmath.exp(2 * math.pi * n_order * x)
                / (1 - cmath.exp(2 * math.pi * n_order * x))
                / (1 - cmath.exp(2j * math.pi * n_order * params.v * x))
            )
            return total

        value = eval_kernel(params, x)
        assert abs(value - naive()) <= 1e-10 * abs(value)


class TestClosedFormResidues:
    @pytest.mark.parametrize("n", [1, -1, 2, -2])
    def test_imag_pole_matches_oracle(self, n):
        report = simple_pole_report(BASE, "imag", n)
        assert report.discrepancy < 1e-8

    @pytest.mark.parametrize("n", [1, -1, 2, -2])
    def test_real_pole_matches_oracle(self, n):
        report = simple_pole_report(BASE, "real", n)
        assert report.discrepancy < 1e-8

    def test_k3_real_pole(self):
        params = VerifierParams(h=1, k=3, H=2, v=1.5, z=0.2 + 0.1j, m=2)
        assert simple_pole_report(params, "real", 1).discrepancy < 1e-8

    def test_k1_residues(self):
        params = VerifierParams(h=0, k=1, H=0, v=1.5, z=0.2 + 0.1j, m=2)
        assert simple_pole_report(params, "imag", 1).discrepancy < 1e-8
        assert simple_pole_report(params, "real", 1).discrepancy < 1e-8

    def test_pair_sums_match_paired_oracle(self):
        for family, closed in (("imag", residue_at_imag_pole), ("real", residue_at_real_pole)):
            pair_closed = closed(BASE, 1) + closed(BASE, -1)
            pair_oracle = (
                simple_pole_report(BASE, family, 1).oracle
                + simple_pole_report(BASE, family, -1).oracle
            )
            assert abs(pair_closed - pair_oracle) < 1e-8

    def test_index_bounds(self):
        with pytest.raises(DomainError):
            residue_at_imag_pole(BASE, 0)
        with pytest.raises(DomainError):
            residue_at_real_pole(BASE, BASE.m + 1)


class TestOriginResidue:
    def test_assembled_matches_oracle(self):
        report = origin_report(BASE)
        assert report.discrepancy_assembled < 1e-8

    def test_compact_form_differs_by_exactly_half(self):
        origin = residue_at_origin(BASE)
        assert abs(origin.discrepancy - 0.5) < 1e-12

    def test_k1_parts(self):
        params = VerifierParams(h=0, k=1, H=0, v=1.5, z=0.2 + 0.1j, m=2)
        origin = residue_at_origin(params)
        assert origin.parts["block_sum"] == 0
        assert origin.parts["block_sum_weighted"] == 0
        vterm = 1j * (params.v - 1 / params.v)
        assert abs(origin.parts["coth_cot"] - vterm / 12) < 1e-15
        expected_exp = (
            params.z * params.z / (1j * params.v)
            - params.z / (1j * params.v)
            + params.z
            - 0.5
            + vterm / 6
        )
        assert abs(origin.parts["exp_terms"] - expected_exp) < 1e-15
        assert origin_report(params).discrepancy_assembled < 1e-8

    def test_k2_dedekind_contribution_vanishes(self):
        # 3 s(1, 2) = 0, so compact and assembled differ only by the constant
        assert dedekind_sum_fast(1, 2) == 0
        origin = residue_at_origin(BASE)
        assert abs((origin.compact - origin.assembled) - 0.5) < 1e-14


class TestNumericResidueGeometry:
    def test_radius_separation_enforced(self):
        pole = 1j * 1 / BASE.order
        with pytest.raises(GeometryError):
            numeric_residue(BASE, pole, radius=1.0)

    def test_default_radius_works(self):
        pole = 1j * 1 / BASE.order
        value = numeric_residue(BASE, pole)
        assert abs(value - residue_at_imag_pole(BASE, 1)) < 1e-8


class TestClosure:
    def test_enclosed_pole_count(self):
        assert len(enclosed_poles(BASE)) == 4 * BASE.m + 1

    def test_closure_small_m(self):
        params = VerifierParams(h=1, k=2, H=1, v=1.5, z=0.2 + 0.1j, m=3)
        report = closure_residual(params)
        assert report.residual < 1e-6

    def test_closure_k3(self):
        params = VerifierParams(h=1, k=3, H=2, v=1.3, z=0.2 + 0.1j, m=2)
        report = closure_residual(params)
        assert report.residual < 1e-6


class TestContour:
    def test_gap_decreases_with_m_in_decaying_region(self):
        # Im z < 0 keeps every exponential group of the kernel decaying on
        # the contour, so the finite-m integral approaches -log v
        gaps = []
        for m in (10, 20, 40):
            params = VerifierParams(h=0, k=1, H=0, v=2.0, z=0.2 - 0.1j, m=m)
            gaps.append(contour_gap(params))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.1

    def test_consistency_probe_v1(self):
        # evaluation-only probe at v = 1: finite value, closure still exact
        params = VerifierParams(h=1, k=2, H=1, v=1.0, z=0.2 + 0.1j, m=2)
        report = closure_residual(params)
        assert report.residual < 1e-6

    def test_pole_on_path_rejected(self):
        # at v = 1e4 the outermost real-family pole sits ~8e-7 from the vertex
        params = VerifierParams(h=1, k=2, H=1, v=1e4, z=0.2 + 0.1j, m=64)
        with pytest.raises(GeometryError):
            contour_integral(params)

    def test_refinement_evaluates_each_panel_once(self, monkeypatch):
        # at v = 10 the real-family poles crowd the vertices 1/v and -1/v,
        # so adaptive refinement splits panels below the dyadic grid
        calls = Counter()
        panel = residues._gl_panel

        def counted(*args):
            calls[args[1], args[2]] += 1
            return panel(*args)

        monkeypatch.setattr(residues, "_gl_panel", counted)
        contour_integral(VerifierParams(h=0, k=1, H=0, v=10.0, z=0.2 + 0.1j, m=3))
        assert sum(calls.values()) > 3 * 64  # 64 dyadic panels, whole plus halves each
        assert max(calls.values()) == 1


class TestEdgeProbes:
    def test_probe_validation(self):
        with pytest.raises(ValidationError):
            edge_limit_probe(BASE, 4, 0.5)
        with pytest.raises(ValidationError):
            edge_limit_probe(BASE, 0, 0.95)

    def test_limits_in_decaying_region(self):
        params = VerifierParams(h=0, k=1, H=0, v=2.0, z=0.2 - 0.1j, m=40)
        for edge in range(4):
            probe = edge_limit_probe(params, edge, 0.5)
            assert abs(probe - EDGE_LIMITS[edge]) < 0.05

    def test_probe_error_shrinks_with_m(self):
        errors = []
        for m in (10, 40):
            params = VerifierParams(h=0, k=1, H=0, v=2.0, z=0.2 - 0.1j, m=m)
            errors.append(abs(edge_limit_probe(params, 0, 0.5) - EDGE_LIMITS[0]))
        assert errors[1] < errors[0]


class TestLogIdentity:
    def test_small_triples(self):
        for h, k, H in ((1, 2, 1), (1, 3, 2)):
            params = VerifierParams(h=h, k=k, H=H, v=1.5, z=0.2 + 0.1j, m=2)
            assert log_identity_residual(params, 400) < 1e-8

    def test_exponentiated_cross_check(self):
        # the residual bounds |e^{LHS}/e^{RHS} - 1| up to first order,
        # which is immune to any 2 pi i ambiguity
        params = VerifierParams(h=1, k=3, H=2, v=1.2, z=0.1 + 0.05j, m=2)
        residual = log_identity_residual(params, 400)
        assert math.expm1(residual) < 1e-8

    def test_doubling_cap_reduces_residual(self):
        params = VerifierParams(h=1, k=3, H=2, v=0.6, z=0.2 + 0.3j, m=2)
        residuals = [log_identity_residual(params, cap) for cap in (4, 8, 16)]
        assert residuals[0] > residuals[1] > residuals[2]

    def test_branch_cut_rejected(self):
        # Re z = 0 with Im z > 0 puts the continued geometric head on [1, inf)
        params = VerifierParams(h=1, k=2, H=1, v=1.5, z=0.3j, m=2)
        with pytest.raises(DomainError):
            log_identity_residual(params, 400)

    def test_cap_validation(self):
        with pytest.raises(ValidationError):
            log_identity_residual(BASE, 0)

    @pytest.mark.parametrize("h, k", [(3, 7), (2, 5)])
    def test_difference_of_two_pi_i_is_not_a_residual(self, h, k):
        # at these points the two sides differ by exactly -2 pi i, which the
        # identity (a statement about logarithms) allows
        params = VerifierParams(h=h, k=k, H=neg_mod_inverse(h, k), v=0.8, z=0.35 - 0.4j, m=3)
        assert log_identity_residual(params, 400) < 1e-8

    def test_equivalence_with_transformation_law(self):
        # the identity at (h, k, H, v) is the logarithm of the law at the
        # matrix (H, b; k, -h) with b = -(H h + 1)/k, evaluated at
        # tau = (h + iv)/k; both routes must agree that the statement holds
        from thetamod import ModularMatrix, moebius_apply, verify_transformation

        for h, k, H in ((1, 2, 1), (1, 3, 2), (2, 5, 2)):
            for v in (1.2, 1.5):
                b = -(H * h + 1) // k
                mat = ModularMatrix(H, b, k, -h)
                tau = (h + 1j * v) / k
                z = 0.1 + 0.05j
                # change-of-variables bookkeeping: c tau + d = iv and
                # A tau = (H + i/v)/k
                assert abs((mat.c * tau + mat.d) - 1j * v) < 1e-14
                assert abs(moebius_apply(mat, tau) - (H + 1j / v) / k) < 1e-14
                params = VerifierParams(h=h, k=k, H=H, v=v, z=z, m=2)
                assert log_identity_residual(params, 400) < 1e-8
                assert verify_transformation(mat, z, tau) < 1e-9


class TestNearestPoleDistance:
    @pytest.mark.parametrize("m, v", [(1, 0.8), (3, 1.5), (10, 0.3), (40, 2.5)])
    def test_matches_explicit_enumeration(self, m, v):
        import random

        params = VerifierParams(h=1, k=2, H=1, v=v, z=0.2 + 0.1j, m=m)
        n_order = m + 0.5
        rng = random.Random(m)
        for _ in range(300):
            x = complex(rng.uniform(-2.0, 2.0) / v, rng.uniform(-2.0, 2.0))
            # every kernel pole within |n| <= 3m + 3 covers the sampled box
            poles = [0j]
            for n in range(1, 3 * m + 4):
                poles += [1j * n / n_order, -1j * n / n_order, n / (n_order * v), -n / (n_order * v)]
            assert nearest_pole_distance(params, x) == min(abs(x - pole) for pole in poles)

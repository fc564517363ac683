import cmath
import math
import operator
import random
from collections import Counter
from itertools import accumulate, repeat

import mpmath as mp
import numpy as np
import pytest
from conftest import mp_residue_kernel
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thetamod import residues
from thetamod import (
    DomainError,
    GeometryError,
    ModularMatrix,
    QuadratureError,
    TransformParams,
    TruncationError,
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
    geometric_log_sum,
    log_identity_residual,
    log_theta1_by_residue_classes,
    neg_mod_inverse,
    origin_report,
    residue_at_imag_pole,
    residue_at_origin,
    residue_at_real_pole,
    simple_pole_report,
    verify_residues,
)
from thetamod.residues import CLOSURE_REL_TOL, EDGE_LIMITS, IDENTITY_TOL, nearest_pole_distance
from thetamod.transform import _theta_law_log

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

    def test_change_of_variables_checks_are_inherited(self):
        assert isinstance(BASE, TransformParams)
        with pytest.raises(ValidationError, match="must be a positive integer"):
            VerifierParams(h=1, k=0, H=1, v=1.5, z=0.2 + 0.1j, m=2)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: VerifierParams(h=1.0, k=2, H=1, v=1.5, z=0.2 + 0.1j, m=2), ValidationError),
        (lambda: VerifierParams(h=1, k=2, H=1.0, v=1.5, z=0.2 + 0.1j, m=2), ValidationError),
        (lambda: VerifierParams(h=1, k=2, H=1, v=True, z=0.2 + 0.1j, m=2), ValidationError),
        (lambda: VerifierParams(h=1, k=2, H=1, v=1.5, z="x", m=2), ValidationError),
        (lambda: VerifierParams(h=1, k=2, H=1, v=1.5, z=0.2 + 0.1j, m=True), ValidationError),
        (lambda: neg_mod_inverse(1.0, 3), ValidationError),
        # a number that is not finite passes the type rules and is a DomainError (modular.require_finite)
        (lambda: VerifierParams(h=1, k=2, H=1, v=1.5, z=complex(math.inf, 0.1), m=2), DomainError),
        (lambda: VerifierParams(h=1, k=2, H=1, v=1.5, z=complex(math.nan, 0.1), m=2), DomainError),
        (lambda: circle_residue(lambda x: 1 / x, 0j, math.inf), DomainError),
        (lambda: circle_residue(lambda x: 1 / x, complex(math.nan, 0.0), 0.3), DomainError),
        (lambda: geometric_log_sum(math.nan, 0.5, 10), DomainError),
        (lambda: geometric_log_sum(0.5, 0.5, 2.5), ValidationError),
        (lambda: log_identity_residual(BASE, 2.5), ValidationError),
    ],
    ids=["float h", "float H", "bool v", "str z", "bool m", "float h inverse", "inf z", "nan z",
         "inf radius", "nan pole", "nan log sum a", "float log sum cap", "float identity cap"],
)
def test_parameter_types_raise_validation_error(call, error):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize(
    "call, where",
    [
        # coth(pi n v) and 1/(1 - e^{-2 pi n v}): e^{-2 pi |n v|} rounds to 1, where 1 - e used to divide by zero
        (lambda: residue_at_imag_pole(VerifierParams(h=0, k=1, H=0, v=1e-300, z=1e-301j, m=1), 1),
         r"residue_at_imag_pole at v=1e-300, z=1e-301j, n=1"),
        (lambda: residue_at_imag_pole(VerifierParams(h=3, k=7, H=2, v=1e-300, z=0.2 + 1e-301j, m=1), -1),
         r"residue_at_imag_pole at v=1e-300, z=\(0\.2\+1e-301j\), n=-1"),
        # the swapped point's v is 1/v = 1e-300
        (lambda: residue_at_real_pole(VerifierParams(h=0, k=1, H=0, v=1e300, z=0.2 + 0.1j, m=1), 1),
         r"residue_at_real_pole at v=1e\+300, z=\(0\.2\+0\.1j\), n=1"),
        # the class term a_0 e^{-2 pi i z} = e^{2 pi 1e299} at Im z = 1e299 (at Im z = -1e299 every class term is in
        # range, and the value is finite)
        (lambda: log_theta1_by_residue_classes(TransformParams(H=0, h=0, k=1, v=1e300), 0.2 + 1e299j),
         r"log_theta1_by_residue_classes at v=\(1e\+300\+0j\), z=\(0\.2\+1e\+299j\): "
         r"a_mu e\^\(\+-2 pi i z\) overflows"),
    ],
    ids=["imag pole tiny v", "imag pole tiny v k=7", "real pole huge v", "class sums huge Im z"],
)
def test_values_outside_double_range_raise_domain_error_naming_the_call(call, where):
    with pytest.raises(DomainError, match=where):
        call()


def test_origin_residue_outside_double_range_raises_domain_error():
    # z^2 overflows at Re z = 1e300, where the residue used to come back as nan-infj
    p = VerifierParams(h=1, k=2, H=1, v=1.5, z=1e300 + 0.1j, m=2)
    with pytest.raises(DomainError, match=r"residue_at_origin at v=1\.5"):
        residue_at_origin(p)


class TestCircleResidue:
    def test_simple_pole(self):
        assert abs(circle_residue(lambda x: 1 / x, 0j, 0.3) - 1) < 1e-12

    def test_third_order_without_residue(self):
        assert abs(circle_residue(lambda x: 1 / x**3, 0j, 0.3)) < 1e-12

    def test_exp_over_cube(self):
        # e^{2x}/x^3 has residue 2^2/2! = 2
        value = circle_residue(lambda x: np.exp(2 * x) / x**3, 0j, 0.3)
        assert abs(value - 2) < 1e-10

    def test_64_points_match_a_512_point_rule(self):
        # radius 0.35 x the pole separation: the trapezoid error ~0.35^n is at roundoff by n = 64
        worst = 0.0
        for k, h in ((1, 0), (2, 1), (7, 3), (13, 5)):
            for v in (0.8, 1.5, 3.0):
                for m in (3, 40, 64):
                    for z in (0.2 + 0.1j, 0.2 - 0.1j):
                        p = VerifierParams(h=h, k=k, H=neg_mod_inverse(h, k), v=v, z=z, m=m)
                        centres = [pole for *_, pole in enclosed_poles(p)]
                        radii = [residues._circle_radius(p, family) for family, *_ in enclosed_poles(p)]
                        kernel = lambda x, p=p: eval_kernel(p, x)  # noqa: E731
                        coarse = residues._circle_sums(kernel, centres, radii)
                        fine = residues._circle_sums(kernel, centres, radii, 512)
                        worst = max(worst, float(np.max(abs(coarse - fine) / abs(fine))))
        assert worst <= 1e-12

    def test_rotation_table_is_shared_and_read_only(self):
        rot = residues._circle_rotations(64)
        assert rot is residues._circle_rotations(64)
        with pytest.raises(ValueError):
            rot[0] = 0


class TestKernelBlock:
    def test_factorization(self):
        # at k = 2 the one block is the product of 1/x and the two printed fractions,
        # entering the kernel with weight 1 + 2 e^{2 pi N z x} beside the three k = 1 groups
        params = VerifierParams(h=1, k=2, H=1, v=1.5, z=0.2 + 0.1j, m=2)
        x = 0.1 + 0.0j
        n_order = params.order
        w = (params.h * 1) % params.k
        block = (
            (1 / x)
            * cmath.exp(2 * math.pi * n_order * w * x / params.k)
            / (1 - cmath.exp(2 * math.pi * n_order * x))
            * cmath.exp(2j * math.pi * n_order * 1 * params.v * x / params.k)
            / (1 - cmath.exp(2j * math.pi * n_order * x * params.v))
        )
        groups = eval_kernel(VerifierParams(h=0, k=1, H=0, v=params.v, z=params.z, m=params.m), x)
        direct = groups + (1 + 2 * cmath.exp(2 * math.pi * n_order * params.z * x)) * block
        assert abs(eval_kernel(params, x) - direct) <= 1e-12 * abs(direct)


class TestKernel:
    def test_k1_reduces_to_three_groups(self):
        # k = 1 is the three printed groups alone; at k = 2 and k = 7 the block sum is written out
        x = 0.21 + 0.13j
        coth = lambda y: cmath.cosh(y) / cmath.sinh(y)
        cot = lambda y: cmath.cos(y) / cmath.sin(y)
        for h, k, H in ((0, 1, 0), (1, 2, 1), (3, 7, 2)):
            params = VerifierParams(h=h, k=k, H=H, v=1.5, z=0.2 + 0.1j, m=2)
            n_order = params.order
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
            for mu in range(1, k):
                # B_mu = 1/x * e^{2 pi N w x/k}/(1 - e^{2 pi N x}) * e^{2 pi i N mu v x/k}/(1 - e^{2 pi i N v x})
                w = (h * mu) % k
                block = (
                    (1 / x)
                    * cmath.exp(2 * math.pi * n_order * w * x / k)
                    / (1 - cmath.exp(2 * math.pi * n_order * x))
                    * cmath.exp(2j * math.pi * n_order * mu * params.v * x / k)
                    / (1 - cmath.exp(2j * math.pi * n_order * params.v * x))
                )
                direct += block + 2 * cmath.exp(2 * math.pi * n_order * params.z * x) * block
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

    @pytest.mark.parametrize("k, h, H", [(1, 0, 0), (2, 1, 1), (7, 3, 2)])
    def test_array_matches_scalar_calls(self, k, h, H):
        import random

        rng = random.Random(k)
        params = VerifierParams(h=h, k=k, H=H, v=1.5, z=0.2 - 0.1j, m=10)
        xs = np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(300)])
        batch = eval_kernel(params, xs.reshape(20, 15))
        assert batch.shape == (20, 15)
        for j, x in enumerate(xs):
            one = eval_kernel(params, complex(x))
            assert type(one) is complex
            assert abs(batch.flat[j] - one) <= 4 * np.finfo(float).eps * abs(one)

    def test_array_pole_proximity_rejected(self):
        xs = np.array([0.1 + 0.2j, 1j / BASE.order + 1e-14, 0.3 - 0.1j])
        with pytest.raises(DomainError):
            eval_kernel(BASE, xs)

    @pytest.mark.parametrize("x", [complex(math.inf, 0), complex(0, math.inf), complex(math.nan, 0),
                                   complex(-math.inf, 1), complex(math.inf, math.inf),
                                   np.array([0.1 + 0.2j, complex(math.inf, 0), 0.3 - 0.1j])],
                             ids=["inf", "infj", "nan", "-inf+1j", "inf+infj", "array"])
    def test_non_finite_x_raises_domain_error_without_warnings(self, x):
        # a RuntimeWarning is an error under pytest, so it would escape before the DomainError
        with pytest.raises(DomainError, match="leaves double range"):
            eval_kernel(BASE, x)

    @pytest.mark.parametrize("h, k, H", [(0, 1, 0), (3, 7, 2)])
    @pytest.mark.parametrize("family, n", [("imag", 2), ("real", -1), ("imag", 0)], ids=["imag", "real", "origin"])
    def test_pole_guard_boundary(self, h, k, H, family, n):
        # within 1e-12 of a pole raises, 2e-12 from it does not, in any direction; v far from 1
        # tells the real family's spacing 1/(N v) from the imaginary family's 1/N
        params = VerifierParams(h=h, k=k, H=H, v=3.0, z=0.2 + 0.1j, m=3)
        pole = residues._pole(params, family, n)
        for direction in (1, 1j, -1, -1j, cmath.exp(0.7j)):
            with pytest.raises(DomainError, match="within 1e-12 of a kernel pole"):
                eval_kernel(params, pole + 0.5e-12 * direction)
            assert cmath.isfinite(eval_kernel(params, pole + 2e-12 * direction))


class TestKernelRange:
    # at v = 0.01 the weighted blocks e^{2 pi N x (w/k + z)} pass e^709 on the far real edge
    SMALL_V = VerifierParams(h=3, k=7, H=2, v=0.01, z=0.2 - 0.001j, m=40)
    WHERE = r"eval_kernel at v=0\.01, z=\(0\.2-0\.001j\): the kernel leaves double range at x="

    def test_contour_raises_domain_error(self):
        # a RuntimeWarning (an error under pytest) or a QuadratureError on nan panels fails this
        with pytest.raises(DomainError, match=self.WHERE):
            contour_integral(self.SMALL_V)

    def test_numeric_residue_raises_domain_error(self):
        # the family circle simple_pole_report integrates, at the real-family pole n = -40
        pole, radius = residues._pole(self.SMALL_V, "real", -40), residues._circle_radius(self.SMALL_V, "real")
        with pytest.raises(DomainError, match=self.WHERE):
            circle_residue(lambda x: eval_kernel(self.SMALL_V, x), pole, radius)

    @pytest.mark.parametrize(
        "case, x",
        [
            # Re(2 pi N x z) = 709.9 and 710.3: e^(2 pi N x z) alone overflows, the kernel does not
            ((1, 2, 1, 0.3, 0.9 + 0.05j, 40), 3.1 + 0.004567901234567901j),
            ((1, 2, 1, 0.3, 2.5 + 0.05j, 40), 1.1166666666666667 + 0.004567901234567901j),
            ((3, 7, 2, 0.3, 0.9 + 0.05j, 40), 3.1 + 0.004567901234567901j),
            ((3, 7, 2, 0.3, 0.9 - 0.05j, 40), 3.1 - 0.004567901234567901j),
        ],
    )
    def test_overflow_hazard_matches_extended_precision(self, case, x):
        h, k, H, v, z, m = case
        value = eval_kernel(VerifierParams(h=h, k=k, H=H, v=v, z=z, m=m), x)
        reference = mp_residue_kernel(h, k, v, z, m, x)
        assert abs(value - reference) <= 1e-12 * abs(reference)
        if (k, z) == (2, 0.9 + 0.05j):  # the magnitude a lone e^(2 pi N x z) would lose
            assert abs(value - (-2.78e136 - 2.51e136j)) <= 1e-2 * abs(value)


class TestKernelCost:
    @pytest.mark.parametrize("k, h, H", [(1, 0, 0), (2, 1, 1), (7, 3, 2)])
    def test_exponentials_per_point(self, k, h, H, monkeypatch):
        # k + 4 complex exponentials a point (4 at k = 1); the groups as written take 3(k - 1) + 4
        exp = np.exp
        counted = []

        def counting_exp(a, *args, **kwargs):
            counted.append(np.size(a))
            return exp(a, *args, **kwargs)

        params = VerifierParams(h=h, k=k, H=H, v=1.5, z=0.2 - 0.1j, m=10)
        xs = np.array([complex(0.05 * i - 0.3, 0.37 - 0.03 * i) for i in range(24)])
        monkeypatch.setattr(np, "exp", counting_exp)
        eval_kernel(params, xs)
        assert sum(counted) / xs.size == (k + 4 if k > 1 else 4)

    @pytest.mark.parametrize("k, h, H", [(1, 0, 0), (2, 1, 1), (7, 3, 2)])
    @pytest.mark.parametrize("n", [3, -3])
    def test_closed_form_exponentials(self, k, h, H, n, monkeypatch):
        # 3 complex exponentials a closed form (2 at k = 1), in both families and at both signs of Re beta:
        # e^(+-2 pi i n z) and the block's ratio e^L, whose geometric sum replaced a loop of 2 (k - 1) exponentials;
        # e^(-|beta|) is the real one coth takes
        exp = cmath.exp
        counted = []

        def counting_exp(a):
            counted.append(a)
            return exp(a)

        params = VerifierParams(h=h, k=k, H=H, v=1.5, z=0.2 - 0.1j, m=10)
        monkeypatch.setattr(cmath, "exp", counting_exp)
        for closed_form in (residue_at_imag_pole, residue_at_real_pole):
            counted.clear()
            closed_form(params, n)
            assert len(counted) == (3 if k > 1 else 2)

    def test_peak_memory_is_linear_in_the_points(self):
        # closure_residual's points at m = 64; at k = 1000 the classes go through in blocks
        import tracemalloc

        peaks = {}
        for k, h, H in ((7, 3, 2), (1000, 1, 999)):
            params = VerifierParams(h=h, k=k, H=H, v=1.5, z=0.2 + 0.1j, m=64)
            enclosed = enclosed_poles(params)
            centres = np.array([pole for *_, pole in enclosed])
            radii = np.array([residues._circle_radius(params, family) for family, *_ in enclosed])
            xs = centres[:, None] + radii[:, None] * residues._circle_rotations(64)
            assert xs.size == 16448
            tracemalloc.start()
            try:
                eval_kernel(params, xs)
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1000] <= 1.1 * peaks[7]
        # the kernel with three exponentials per class, written out, peaked at 13.2 times xs.nbytes (numpy 2.4)
        assert peaks[1000] <= 2 * 13.2 * xs.nbytes


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

    def test_exponential_outside_double_range_raises_domain_error(self):
        # e^{2 pi n z / v} at v = 1e-5, n = 3 has exponent ~3.8e5
        p = VerifierParams(h=1, k=7, H=6, v=1e-5, z=0.2 - 1e-6j, m=3)
        with pytest.raises(DomainError, match=r"residue_at_real_pole at v=1e-05, z=\(0\.2-1e-06j\), n=3"):
            residue_at_real_pole(p, 3)
        # e^{2 pi i n z} at Im z = 200, n = 3
        p = VerifierParams(h=1, k=7, H=6, v=300.0, z=0.2 + 200j, m=3)
        with pytest.raises(DomainError, match=r"residue_at_imag_pole at v=300\.0, z=\(0\.2\+200j\), n=-3"):
            residue_at_imag_pole(p, -3)


def mp_powers_sum(x, k):
    """x + x^2 + ... + x^(k-1), term by term, each power the last times x: k - 1 products at 50 digits."""
    return sum(accumulate(repeat(x, k - 1), operator.mul))


def mp_imag_family(h, k, v, z, n):
    """residue_at_imag_pole's docstring formula at 50 digits."""
    with mp.workdps(50):
        v, z, c = mp.mpf(v), mp.mpc(z), 1j / (2 * mp.pi * n)
        q, ez = mp.exp(-2 * mp.pi * n * v), mp.exp(2j * mp.pi * n * z)
        blocks = mp_powers_sum(mp.exp(2j * mp.pi * n * h / k - 2 * mp.pi * n * v / k), k) / (1 - q)
        return complex(1j / (4 * mp.pi * n) * mp.coth(mp.pi * n * v) + c * (1 + 2 * ez) * blocks
                       + c * (ez * q / (1 - q) + 1 / (ez * (1 - q))))


def mp_real_family(H, k, v, z, n):
    """residue_at_real_pole's docstring formula at 50 digits, written out (not through the swap)."""
    with mp.workdps(50):
        v, z, c = mp.mpf(v), mp.mpc(z), 1 / (2j * mp.pi * n)
        q, ez = mp.exp(-2 * mp.pi * n / v), mp.exp(-2 * mp.pi * n * z / v)
        blocks = mp_powers_sum(mp.exp(2j * mp.pi * n * H / k - 2 * mp.pi * n / (k * v)), k) / (1 - q)
        return complex(1 / (4j * mp.pi * n) * mp.coth(mp.pi * n / v) + c * (1 + 2 * ez) * blocks
                       + c * (ez / (1 - q) + q / (ez * (1 - q))))


def worst_closed_form_errors(seed, ks, draws):
    """Worst relative error of each family against its 50-digit formula over seeded draws: k from ks, h coprime,
    v log-uniform in [0.1, 10], |Re z| <= 1.5, m <= 64; n is redrawn while a weight e^(2 pi |n| Im z) or
    e^(2 pi |n| Re z / v) would pass e^700, where the closed forms raise DomainError instead (TestClosedFormResidues
    covers that)."""
    rng = random.Random(seed)
    worst = {"imag": 0.0, "real": 0.0}
    for _ in range(draws):
        k = rng.choice(ks)
        h = rng.choice([h for h in range(k) if math.gcd(h, k) == 1])
        v = 10 ** rng.uniform(-1, 1)
        z = complex(rng.uniform(-1.5, 1.5), rng.choice((-1, 1)) * rng.uniform(0.001, 0.999) * v)
        p = VerifierParams(h=h, k=k, H=neg_mod_inverse(h, k), v=v, z=z, m=rng.randint(1, 64))
        n = 0
        while not n or 2 * math.pi * abs(n) * max(abs(z.imag), abs(z.real) / v) > 700:
            n = rng.choice((-1, 1)) * rng.randint(1, p.m)
        for family, closed, reference in (("imag", residue_at_imag_pole(p, n), mp_imag_family(h, k, v, z, n)),
                                          ("real", residue_at_real_pole(p, n), mp_real_family(p.H, k, v, z, n))):
            worst[family] = max(worst[family], abs(closed - reference) / abs(reference))
    return worst


class TestClosedFormsAgainstMpmath:
    def test_both_families_match_their_formulas_at_50_digits(self):
        worst = worst_closed_form_errors(26, (1, 2, 3, 5, 7, 13), 300)
        assert worst["imag"] <= 1e-12 and worst["real"] <= 1e-12, worst

    def test_large_k_matches_the_formulas_at_50_digits(self):
        # the class block is one geometric sum at the phase 2 pi (n g mod k)/k; the loop before it took each
        # e^(2 pi i n g j/k) at a phase up to 2 pi n g, and on these draws was off by up to 1.4e-9 (9.5e-14 now)
        worst = worst_closed_form_errors(27, (100, 997), 80)
        assert worst["imag"] <= 1e-12 and worst["real"] <= 1e-12, worst


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
    def test_default_radius_works(self):
        # the per-pole oracles integrate 0.35 times the family spacing: 1/N, 1/(N v), 1/(N max(1, v))
        kernel = lambda x: eval_kernel(BASE, x)  # noqa: E731
        report = simple_pole_report(BASE, "imag", 1)
        assert report.oracle == circle_residue(kernel, 1j / BASE.order, 0.35 / BASE.order)
        assert abs(report.oracle - residue_at_imag_pole(BASE, 1)) < 1e-8
        report = simple_pole_report(BASE, "real", 1)
        assert report.oracle == circle_residue(kernel, -1 / (BASE.order * BASE.v), 0.35 / (BASE.order * BASE.v))
        assert origin_report(BASE).oracle == circle_residue(kernel, 0j, 0.35 / (BASE.order * BASE.v))


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


class TestVerifyResidues:
    POINTS = [VerifierParams(h=1, k=2, H=1, v=1.5, z=0.2 + 0.1j, m=3),
              VerifierParams(h=3, k=7, H=2, v=1.5, z=0.2 + 0.1j, m=10)]

    @pytest.fixture(params=POINTS, ids=["readme", "k7_m10"])
    def point(self, request):
        return request.param, verify_residues(request.param)

    def test_poles_in_cli_order(self, point):
        p, result = point
        simple = [(family, n) for family in ("imag", "real") for n in range(-p.m, p.m + 1) if n]
        assert [(e.family, e.n) for e in result.closure.poles] == [("origin", 0)] + simple
        assert len(result.closed_forms) == len(result.closure.poles) == 4 * p.m + 1

    def test_oracles_are_the_closure_residues(self, point):
        p, result = point
        closure = {(e.family, e.n): e.residue for e in closure_residual(p).poles}
        assert all(e.residue == closure[e.family, e.n] for e in result.closure.poles)
        assert result.closure.residual == closure_residual(p).residual

    def test_closed_forms_match_their_oracles(self, point):
        p, result = point
        assert result.closed_forms[0] == residue_at_origin(p).assembled == result.origin.assembled
        for e, closed in zip(result.closure.poles[1:], result.closed_forms[1:]):
            assert closed == (residue_at_imag_pole if e.family == "imag" else residue_at_real_pole)(p, e.n)
        assert max(abs(c - e.residue) for e, c in zip(result.closure.poles, result.closed_forms)) < 1e-8

    def test_point_passes(self, point):
        p, result = point
        assert result.passed
        assert result.closure_tol == CLOSURE_REL_TOL * 2 * math.pi * sum(abs(e.residue) for e in result.closure.poles)
        assert result.closure.residual < result.closure_tol
        assert result.identity == log_identity_residual(p, 400) < IDENTITY_TOL
        assert result.gap == contour_gap(p)

    def test_closure_off_by_1e_6_relative_fails(self, point, monkeypatch):
        p, result = point
        closure_residual = residues.closure_residual

        def off(params):
            report = closure_residual(params)
            size = sum(abs(e.residue) for e in report.poles)
            return residues.ClosureReport(report.contour + 1e-6 * 2 * math.pi * size, report.residue_sum, report.poles)

        monkeypatch.setattr(residues, "closure_residual", off)
        shifted = verify_residues(p)
        assert not shifted.passed
        assert shifted.identity == result.identity < IDENTITY_TOL


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

    def test_clearance_matches_lattice_to_edge_distance(self, monkeypatch):
        # GeometryError exactly when some kernel pole, |n| <= m + 3 in both families,
        # lies within 1e-6 of an edge; the quadrature itself is stopped at its first panel call
        class Cleared(Exception):
            pass

        def stop(*args):
            raise Cleared

        monkeypatch.setattr(residues, "_gl_panels", stop)
        raised = 0
        for m in (1, 3, 10, 40, 64):
            n = np.arange(1, m + 4)
            for v in np.logspace(-3, 5, 401).tolist():
                p = VerifierParams(h=0, k=1, H=0, v=v, z=0.2 + 1e-4j, m=m)
                order = m + 0.5
                x = np.concatenate([[0j], 1j * n / order, -1j * n / order, n / (order * v), -n / (order * v)])[:, None]
                ea = np.array([1 / v, 1j, -1 / v, -1j])
                eb = np.roll(ea, -1)
                t = np.clip(((x - ea) * np.conj(eb - ea)).real / abs(eb - ea) ** 2, 0.0, 1.0)
                near = bool((abs(x - (ea + t * (eb - ea))) < 1e-6).any())
                with pytest.raises(GeometryError if near else Cleared):
                    contour_integral(p)
                raised += near
        assert 0 < raised < 5 * 401

    def test_refinement_evaluates_each_panel_once(self, monkeypatch):
        # at v = 10 the real-family poles crowd the vertices 1/v and -1/v,
        # so adaptive refinement splits panels below the dyadic grid
        calls = Counter()
        panels = residues._gl_panels

        def counted(p, a, b):
            calls.update(zip(a.tolist(), b.tolist()))
            return panels(p, a, b)

        monkeypatch.setattr(residues, "_gl_panels", counted)
        contour_integral(VerifierParams(h=0, k=1, H=0, v=10.0, z=0.2 + 0.1j, m=3))
        assert sum(calls.values()) == 64 + 56  # 64 dyadic panels, then the halves of the 28 that fail their check
        assert max(calls.values()) == 1

    def test_unrefined_contour_is_one_kernel_call(self, monkeypatch):
        # at the README's verify-residues point every dyadic panel passes its 12-point check:
        # 64 panels of 24 + 12 nodes, all in one kernel call
        sizes = []
        kernel = residues.eval_kernel

        def counted(p, x):
            sizes.append(np.size(x))
            return kernel(p, x)

        monkeypatch.setattr(residues, "eval_kernel", counted)
        contour_integral(VerifierParams(h=1, k=2, H=1, v=1.5, z=0.2 + 0.1j, m=3))
        assert sizes == [64 * 36]

    def test_matches_a_finer_rule_on_the_replay_grid(self, monkeypatch):
        # the 36 replay-grid points of seed 1 (k in {1, 2, 7}, h at k = 7 drawn in grid order) against
        # leggauss(48) on each quarter of every dyadic panel, the panels taken from the first _gl_panels call
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(48)
        quarter = (np.arange(4) + 0.5) / 4 - 0.5  # quarter midpoints, in panel lengths from the panel midpoint
        rng = random.Random(1)
        first = []
        panels = residues._gl_panels

        def record(p, a, b):
            first.append((a, b))
            return panels(p, a, b)

        monkeypatch.setattr(residues, "_gl_panels", record)
        for k in (1, 2, 7):
            for m in (3, 10, 40):
                for z in (0.2 + 0.1j, 0.2 - 0.1j):
                    for v in (0.8, 1.5):
                        h = 0 if k == 1 else 1 if k == 2 else rng.randint(1, k - 1)
                        p = VerifierParams(h=h, k=k, H=neg_mod_inverse(h, k), v=v, z=z, m=m)
                        first.clear()
                        value = contour_integral(p)
                        a, b = first[0]
                        length = (b - a)[:, None, None]
                        x = (0.5 * (a + b))[:, None, None] + length * (quarter[:, None] + nodes / 8)
                        parts = (eval_kernel(p, x) @ weights) * length[..., 0] / 8
                        size = abs(parts.sum(axis=1)).sum()
                        assert abs(value - parts.sum()) <= 1e-14 * size, (h, k, v, z, m)

    @pytest.mark.parametrize("k, h, H", [(1, 0, 0), (2, 1, 1), (7, 3, 2)])
    def test_extreme_points_raise_no_runtime_warning(self, k, h, H):
        # RuntimeWarning is an error under pytest: no branch that overflows
        # may be computed, not even where np.where discards it
        cases = [(v, z, m) for v in (0.8, 1.5) for z in (0.2 + 0.1j, 0.2 - 0.1j) for m in (3, 40)]
        for v, z, m in cases + [(1e3, 0.2 - 0.1j, 64)]:
            value = contour_integral(VerifierParams(h=h, k=k, H=H, v=v, z=z, m=m))
            assert math.isfinite(value.real) and math.isfinite(value.imag)
        # at z = 0.2+0.1i the v = 1e3 contour does not converge near the vertex i
        with pytest.raises(QuadratureError):
            contour_integral(VerifierParams(h=h, k=k, H=H, v=1e3, z=0.2 + 0.1j, m=64))

    def test_stalled_refinement_names_the_pole_distance(self):
        # the edge from 1/v to i passes ~8e-6 from the pole i 64/64.5: above the
        # GeometryError threshold, too close for the panels to converge; the panel named is
        # the smallest evaluated, 2^-(depth+1) of a dyadic panel, whose midpoint is 7.8e-6 from the pole
        params = VerifierParams(h=1, k=2, H=1, v=1e3, z=0.2 + 0.1j, m=64)
        with pytest.raises(QuadratureError, match=r"midpoint 7\.8e-06 from the nearest kernel pole"):
            contour_integral(params)


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


@st.composite
def identity_points(draw):
    """(h, k, H, v, z): k in {1, 2, 3, 5, 7, 10, 11, 13}, h coprime to k, v in [10^-0.5, 10^0.5], |Re z| <= 2.5
    and 0.01 v <= |Im z| <= 0.9 v.  Re z and Im z/v are moved by 7.07e-4 off the simple fractions hypothesis
    favours, where a class term can be exactly 1 (a zero of theta1, which geometric_log_sum rejects)."""
    k = draw(st.sampled_from((1, 2, 3, 5, 7, 10, 11, 13)))
    h = draw(st.sampled_from([h for h in range(k) if math.gcd(h, k) == 1]))
    v = 10 ** draw(st.floats(-0.5, 0.5))
    im_share = draw(st.sampled_from((-1, 1))) * (draw(st.floats(0.01, 0.9)) + 7.07e-4)
    return h, k, neg_mod_inverse(h, k), v, complex(draw(st.floats(-2.5, 2.5)) + 7.07e-4, im_share * v)


def identity_matrix(h, k, H):
    """A = (H, -(H h + 1)/k; k, -h): at tau = (h + iv)/k, c tau + d = iv and A tau = (H + i/v)/k."""
    return ModularMatrix(H, -(H * h + 1) // k, k, -h)


def expansion_closed_part(h, k, v, z):
    """The closed part of log_theta1_by_residue_classes' expansion at (h, v, z)."""
    return -0.5j * math.pi + 1j * math.pi * z + 1j * math.pi * (1j * v + h) / (4 * k)


class TestLogIdentity:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(point=identity_points())
    def test_holds_over_k_wherever_its_sums_converge(self, point):
        # the identity is the evaluator's law, so a wrong multiplier phase at c = k shows here (a phase off by
        # 1/12 at k = 3 and 10 gave residuals of pi/12).  On the swapped side the sums of a_1 e^(2 pi i z') and
        # e^(-2 pi i z') converge for -1 < Re z < 1 + 1/k, beyond |Re z| < 1; within 0.02 of either end a cap of
        # 1000 leaves too long a tail, and past it a sum diverges
        h, k, H, v, z = point
        ends = (-1.0, 1.0 + 1.0 / k)
        assume(min(abs(z.real - end) for end in ends) > 0.02)
        params = VerifierParams(h=h, k=k, H=H, v=v, z=z, m=3)
        if ends[0] < z.real < ends[1]:
            assert log_identity_residual(params, 1000) < IDENTITY_TOL
        else:
            with pytest.raises(DomainError, match="geometric log sum diverges"):
                log_identity_residual(params, 1000)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(point=identity_points())
    def test_paper_terms_are_the_law_factor_less_the_closed_parts(self, point):
        # the identity as the paper writes it: swapped sums - main sums + these closed terms = -(1/2) log v.  With
        # the law factor, the same statement reads swap expansion - main expansion = L, so the paper's terms plus
        # (1/2) log v are L less the two expansions' closed parts, modulo 2 pi i
        h, k, H, v, z = point
        paper = (-0.5j * math.pi + 3j * math.pi * float(dedekind_sum_fast(h, k)) - math.pi / (4 * k) * (v - 1 / v)
                 + math.pi * z * z * k / v + 1j * math.pi * z - math.pi * z / v)
        closed = expansion_closed_part(H, k, 1 / v, -1j * z / v) - expansion_closed_part(h, k, v, z)
        law = _theta_law_log(identity_matrix(h, k, H), z, 1j * v)
        diff = paper + 0.5 * math.log(v) - (law - closed)
        assert abs(complex(diff.real, math.remainder(diff.imag, 2 * math.pi))) < 1e-12

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

    def test_short_cap_raises_naming_the_terms_needed(self):
        # a cap that leaves a sum's tail above IDENTITY_TOL is an error, not a residual: every short cap
        # names the count the longest sum of both sides needs (30 at (h, v, z), 14 at the swapped point),
        # and from that count on the identity holds
        params = VerifierParams(h=1, k=3, H=2, v=0.6, z=0.2 + 0.3j, m=2)
        for cap in (4, 8, 16, 29):
            with pytest.raises(TruncationError, match=f"^log identity needs 30 terms, not {cap}, for tails below"):
                log_identity_residual(params, cap)
        assert log_identity_residual(params, 30) < IDENTITY_TOL

    def test_short_cap_names_the_swapped_sides_larger_need(self):
        # here the swapped side's longest sum needs 45 terms and the main side's 6: every short cap names 45
        params = VerifierParams(h=1, k=3, H=2, v=2.0, z=0.2 + 0.1j, m=2)
        for cap in (4, 8, 44):
            with pytest.raises(TruncationError, match=f"^log identity needs 45 terms, not {cap}, for tails below"):
                log_identity_residual(params, cap)
        assert log_identity_residual(params, 45) < IDENTITY_TOL

    def test_holds_where_a_geometric_head_sits_on_the_branch_cut(self):
        # Re z = 0 with Im z > 0 puts the continued geometric head on (1, inf), where -log(1 - a) takes the
        # cut's +i pi side: the expansions hold modulo 2 pi i, so either side serves
        params = VerifierParams(h=1, k=2, H=1, v=1.5, z=0.3j, m=2)
        assert log_identity_residual(params, 400) < IDENTITY_TOL

    def test_holds_where_a_class_term_sits_on_the_cut(self):
        # a swapped class term is exactly e^pi, on the cut; 1e-9i to either side of this z the residual is
        # below 1e-15 too
        params = VerifierParams(h=1, k=2, H=1, v=1.0, z=1 - 0.5j, m=3)
        assert log_identity_residual(params, 400) < IDENTITY_TOL

    def test_holds_beyond_unit_real_part(self):
        # |Re z| >= 1 puts |Im z'| = |Re z|/v beyond 1/v on the swapped side
        params = VerifierParams(h=1, k=2, H=1, v=1.5, z=1.3 + 0.1j, m=3)
        assert log_identity_residual(params, 400) < 1e-8

    def test_cap_validation(self):
        with pytest.raises(ValidationError):
            log_identity_residual(BASE, 0)

    def test_exponential_outside_double_range_raises_domain_error(self):
        # a_1 e^{2 pi i z'} at the swapped z' = -iz/v = -0.1 - 2000i has exponent 2 pi (2000 - 10^4/7) ~ 3590
        # (at v = 1e-3, z' = -0.1 - 200i, every class term is in range)
        params = VerifierParams(h=1, k=7, H=6, v=1e-4, z=0.2 - 1e-5j, m=3)
        with pytest.raises(DomainError, match=r"log_identity_residual at v=0\.0001, z=\(0\.2-1e-05j\)"):
            log_identity_residual(params, 400)

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
        from thetamod import moebius_apply, verify_transformation

        for h, k, H in ((1, 2, 1), (1, 3, 2), (2, 5, 2)):
            for v in (1.2, 1.5):
                mat = identity_matrix(h, k, H)
                tau = (h + 1j * v) / k
                z = 0.1 + 0.05j
                # change-of-variables bookkeeping: c tau + d = iv and
                # A tau = (H + i/v)/k
                assert abs((mat.c * tau + mat.d) - 1j * v) < 1e-14
                assert abs(moebius_apply(mat, tau) - (H + 1j / v) / k) < 1e-14
                params = VerifierParams(h=h, k=k, H=H, v=v, z=z, m=2)
                assert log_identity_residual(params, 400) < 1e-8
                assert verify_transformation(mat, z, tau) < 1e-9


class TestLogSumCut:
    # the replay grid's (h, k, H, v, z) for every h at k = 7, and the README example
    # (the README example is h=1, k=2, v=1.5, z=0.2+0.1i); the reference sets _ROUNDING to 0, where no
    # tail is small enough, so every sum runs to the cap
    POINTS = [(h, k, neg_mod_inverse(h, k), v, z) for k, hs in ((1, [0]), (2, [1]), (7, range(1, 7)))
              for h in hs for v in (0.8, 1.5) for z in (0.2 + 0.1j, 0.2 - 0.1j)]

    @pytest.mark.parametrize("h, k, H, v, z", POINTS)
    def test_rounding_cut_matches_every_sum_at_the_cap(self, h, k, H, v, z, monkeypatch):
        params = VerifierParams(h=h, k=k, H=H, v=v, z=z, m=3)
        cut = log_identity_residual(params, 400)
        monkeypatch.setattr(residues, "_ROUNDING", 0.0)
        assert abs(cut - log_identity_residual(params, 400)) <= 1e-15

    @pytest.mark.parametrize("v", [1e-3, 1e-5])
    def test_cut_stays_at_the_cap_where_rounding_needs_more(self, v, monkeypatch):
        # at v = 1e-3 the rounding cut lies past 400 terms, at 1e-5 past 200 000 terms: both sums run to
        # the cap, and no TruncationError escapes.  The identity then needs more terms at v = 1e-3; at 1e-5
        # the swapped side's a_1 e^{2 pi i z'} = e^{2 pi (2e4 - 1e5/7)} overflows
        z = 0.2 - v / 10 * 1j
        cut = residues._class_expansion(7, 3, v, z, 400, IDENTITY_TOL, ("_class_expansion", v, z))
        monkeypatch.setattr(residues, "_ROUNDING", 0.0)
        assert cut == residues._class_expansion(7, 3, v, z, 400, IDENTITY_TOL, ("_class_expansion", v, z))
        monkeypatch.undo()
        params = VerifierParams(h=3, k=7, H=2, v=v, z=z, m=3)
        error, message = {1e-3: (TruncationError, "needs 3586 terms, not 400"),
                          1e-5: (DomainError, r"a_mu e\^\(\+-2 pi i z\) overflows")}[v]
        with pytest.raises(error, match=message):
            log_identity_residual(params, 400)


def float_ratio_log_sum(a, r, cap):
    """The reference for a real ratio: geometric_log_sum's loop with r and r^n carried as floats."""
    aa, rr = complex(a), float(r)
    total, step = (0j, aa) if abs(aa) <= 0.75 else (-cmath.log(1 - aa), aa * rr)
    term, rn = 1 + 0j, 1.0
    for n in range(1, cap + 1):
        term *= step
        rn *= rr
        total += term / (n * (1.0 - rn))
        if abs(term) < 1e-320:
            break
    return total


def test_geometric_log_sum_real_ratio_matches_float_arithmetic():
    # one complex path: a real r gives bit for bit what float arithmetic gave
    rng = random.Random(83)
    for _ in range(2000):
        a = cmath.rect(rng.uniform(0.0, 1.5), rng.uniform(-math.pi, math.pi))
        r = rng.choice((-1, 1)) * rng.uniform(0.01, 0.65)
        cap = rng.randint(1, 200)
        new, ref = geometric_log_sum(a, r, cap), float_ratio_log_sum(a, r, cap)
        assert (new.real.hex(), new.imag.hex()) == (ref.real.hex(), ref.imag.hex()), (a, r, cap)


def test_geometric_log_sum_at_zero_ratio_is_minus_log():
    # r = 0 (e^{-2 pi v} underflows past v ~ 118.5): S(a) = -log(1 - a), taken whole for |a| > 3/4
    for a in (0.9j, -0.8, cmath.rect(0.99, 2.0)):
        assert geometric_log_sum(a, 0.0, 1) == -cmath.log(1 - a)
    for a in (0.5, 0.3 - 0.4j, -0.75):
        assert geometric_log_sum(a, 0j, 200) == pytest.approx(-cmath.log(1 - a), rel=1e-15)
    for r in (1.0, -1.0, 1j):
        with pytest.raises(DomainError, match=r"\|r\| must be in \[0, 1\)"):
            geometric_log_sum(0.5, r, 10)


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


class TestNearestOtherPoleDistance:
    @pytest.mark.parametrize(
        "m, v",
        [(1, 0.8), (3, 1.5), (10, 0.3), (40, 2.5), (64, 1.0), (64, 7.0),
         (1, 1e-4), (2, 0.01), (3, 1e3), (40, 0.05), (63, 1e-4), (64, 1e3)],
    )
    def test_matches_explicit_enumeration(self, m, v):
        # each circle radius is 0.35 times its family spacing; here against 0.35 times
        # the nearest other pole, found by a brute-force search of the lattice |n| <= m + 3
        params = VerifierParams(h=1, k=2, H=1, v=v, z=0.2 + 1e-5j, m=m)
        n_order = m + 0.5
        lattice = {("origin", 0): 0j}
        for n in range(-m - 3, m + 4):
            if n:
                lattice["imag", n] = 1j * n / n_order
                lattice["real", n] = -n / (n_order * v)
        for family, n, x in enclosed_poles(params):
            assert lattice[family, n] == x
            nearest = min(abs(x - pole) for key, pole in lattice.items() if key != (family, n))
            radius = residues._circle_radius(params, family)
            assert abs(radius - 0.35 * nearest) <= 1e-13 * 0.35 * nearest, (family, n)

import cmath
import math
import random

import mpmath as mp
import pytest

from conftest import mp_eta_direct, mp_theta1_direct, mp_theta1_jtheta
from thetamod import (
    DomainError,
    TransformParams,
    TruncationControl,
    TruncationError,
    ValidationError,
    eta,
    eta_info,
    jacobi_triple_product_check,
    lattice_distance,
    log_theta1,
    log_theta1_by_residue_classes,
    theta1_product,
    theta1_series,
    theta1_series_info,
)
from thetamod.theta import DEFAULT_CONTROL, _triple_factors

TIGHT = TruncationControl(tolerance=1e-15)


class TestTruncationControl:
    def test_defaults_valid(self):
        TruncationControl()

    def test_bad_tolerance(self):
        with pytest.raises(ValidationError):
            TruncationControl(tolerance=1e-17)

    def test_bad_max_terms(self):
        with pytest.raises(ValidationError):
            TruncationControl(max_terms=10**7)


class TestTheta1Series:
    def test_odd_function_vanishes_at_zero(self):
        assert abs(theta1_series(0, 1j)) < 1e-15

    def test_matches_product_on_real_argument(self):
        a = theta1_series(0.3, 1j, TIGHT)
        b = theta1_product(0.3, 1j, TIGHT)
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_matches_extended_precision_summation(self):
        z, tau = 0.2 + 0.1j, 0.1 + 0.9j
        oracle = mp_theta1_direct(z, tau)
        value = theta1_series(z, tau, TIGHT)
        assert abs(value - oracle) <= 1e-13 * abs(oracle)

    def test_matches_mpmath_jtheta(self):
        z, tau = -0.37 + 0.22j, 0.6 + 0.75j
        oracle = mp_theta1_jtheta(z, tau)
        value = theta1_series(z, tau, TIGHT)
        assert abs(value - oracle) <= 1e-12 * abs(oracle)

    def test_certified_error_bound(self):
        z, tau = 0.31 + 0.17j, 0.25 + 0.6j
        info = theta1_series_info(z, tau, TruncationControl(tolerance=1e-10))
        oracle = mp_theta1_direct(z, tau)
        assert abs(info.value - oracle) <= info.error_bound + 1e-15 * abs(oracle)

    def test_max_terms_exhaustion(self):
        with pytest.raises(TruncationError):
            theta1_series(0.2, 0.3 + 1e-4j, TruncationControl(tolerance=1e-12, max_terms=40))

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            theta1_series(0.1, -1j)

    @pytest.mark.parametrize(
        "z, tau",
        [
            (0.3 + 0.1j, 0.1 + 1e-4j),  # 2103 pairs, numpy sum: inf * 0 in the terms
            (0.3 + 1.5j, 0.1 + 0.02j),  # 153 pairs, cmath loop: sin overflows alone
        ],
    )
    def test_overflowing_terms_raise_truncation_error(self, z, tau):
        with pytest.raises(TruncationError, match="theta1_fast"):
            theta1_series_info(z, tau)


class TestTheta1Product:
    def test_vanishes_at_zero(self):
        assert abs(theta1_product(0, 1j)) < 1e-15

    def test_vanishes_on_lattice_point(self):
        # z = 1 = m + n tau with (m, n) = (1, 0): third factor is exactly 0 at n=1
        assert abs(theta1_product(1.0, 0.3 + 0.8j)) < 1e-13

    def test_long_product_matches_direct_series(self):
        # Im tau in [2.5e-3, 1.5e-2]: 256 or more factors per product
        rng = random.Random(62)
        for _ in range(12):
            tau = complex(rng.uniform(-2, 2), 10 ** rng.uniform(math.log10(2.5e-3), math.log10(1.5e-2)))
            z = _cell_point(rng, tau)
            assert sum(1 for _ in _triple_factors(z, tau, DEFAULT_CONTROL)) >= 256
            oracle = mp_theta1_direct(z, tau, terms=400)
            assert abs(theta1_product(z, tau) - oracle) <= 1e-11 * abs(oracle)
            assert abs(cmath.exp(log_theta1(z, tau)) - oracle) <= 1e-11 * abs(oracle)

    def test_matches_series(self):
        rng = random.Random(61)
        for _ in range(100):
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.5))
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if lattice_distance(z, tau) < 0.05:
                continue
            a = theta1_series(z, tau, TIGHT)
            b = theta1_product(z, tau, TIGHT)
            assert abs(a - b) <= 1e-12 * abs(a)


class TestJacobiTripleProduct:
    def test_q_zero(self):
        lhs, rhs = jacobi_triple_product_check(1.0, 0.0)
        assert lhs == 1 and rhs == 1

    def test_real_point(self):
        lhs, rhs = jacobi_triple_product_check(1.0, 0.1, TIGHT)
        assert abs(lhs - rhs) < 1e-12

    def test_complex_point(self):
        w = cmath.exp(0.2j * math.pi)
        q = 0.3 * cmath.exp(0.4j * math.pi)
        lhs, rhs = jacobi_triple_product_check(w, q, TIGHT)
        assert abs(lhs - rhs) < 1e-10

    def test_random_points(self):
        rng = random.Random(67)
        for _ in range(100):
            w = rng.uniform(0.5, 1.5) * cmath.exp(2j * math.pi * rng.random())
            q = rng.uniform(0, 0.7) * cmath.exp(2j * math.pi * rng.random())
            lhs, rhs = jacobi_triple_product_check(w, q, TIGHT)
            assert abs(lhs - rhs) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            jacobi_triple_product_check(0.0, 0.1)
        with pytest.raises(DomainError):
            jacobi_triple_product_check(1.0, 1.0)


class TestEta:
    def test_real_positive_at_i(self):
        value = eta(1j, TIGHT)
        assert abs(value.imag) < 1e-15
        assert value.real > 0
        # fixed point of the inversion law with multiplier one:
        # eta(i) = (-i * i)^{1/2} eta(i) trivially
        assert abs(value - cmath.sqrt(-1j * 1j) * value) < 1e-15

    def test_inversion_self_check_at_2i(self):
        # eta(-1/tau) = sqrt(-i tau) eta(tau) at tau = 2i
        lhs = eta(0.5j, TIGHT)
        rhs = cmath.sqrt(-1j * 2j) * eta(2j, TIGHT)
        assert abs(lhs - rhs) < 1e-12

    def test_matches_extended_precision_product(self):
        tau = 0.5 + 0.866j
        oracle = mp_eta_direct(tau)
        value = eta(tau, TIGHT)
        assert abs(value - oracle) <= 1e-13 * abs(oracle)

    def test_vectorized_branch_matches_scalar(self):
        # push the factor count over the numpy cutoff and compare to mpmath
        tau = 0.37 + 0.004j
        oracle = mp_eta_direct(tau, terms=3000, dps=40)
        value = eta(tau, TruncationControl(tolerance=1e-13))
        assert abs(value - oracle) <= 1e-11 * abs(oracle)

    def test_long_products_match_qp(self):
        # Im tau in [3e-4, 3e-3]: ~1500 to ~15000 factors
        rng = random.Random(43)
        for _ in range(24):
            tau = complex(rng.uniform(-2, 2), 10 ** rng.uniform(math.log10(3e-4), math.log10(3e-3)))
            info = eta_info(tau)
            assert info.terms >= 1000
            with mp.workdps(30):
                t = mp.mpc(tau)
                oracle = complex(mp.exp(1j * mp.pi * t / 12) * mp.qp(mp.exp(2j * mp.pi * t)))
            assert abs(info.value - oracle) <= 1e-10 * abs(oracle)


def _cell_point(rng, tau):
    """A z in the centered cell, off the zero lattice (keeps checks conditioned)."""
    while True:
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5) * tau.imag)
        if lattice_distance(z, tau) >= 0.05:
            return z


class TestPeriodicity:
    def test_oddness(self):
        rng = random.Random(71)
        for _ in range(50):
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.4, 2.0))
            z = _cell_point(rng, tau)
            a = theta1_series(z, tau, TIGHT)
            b = theta1_series(-z, tau, TIGHT)
            assert abs(a + b) <= 1e-13 * abs(a)

    def test_z_period(self):
        rng = random.Random(73)
        for _ in range(50):
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.4, 2.0))
            z = _cell_point(rng, tau)
            a = theta1_series(z + 1, tau, TIGHT)
            b = -theta1_series(z, tau, TIGHT)
            assert abs(a - b) <= 1e-13 * max(abs(a), abs(b))

    def test_tau_shift(self):
        rng = random.Random(79)
        factor = cmath.exp(1j * math.pi / 4)
        for _ in range(50):
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.4, 2.0))
            z = _cell_point(rng, tau)
            a = theta1_series(z, tau + 1, TIGHT)
            b = factor * theta1_series(z, tau, TIGHT)
            assert abs(a - b) <= 1e-13 * max(abs(a), abs(b))

    def test_quasi_period(self):
        rng = random.Random(83)
        for _ in range(50):
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.4, 2.0))
            z = _cell_point(rng, tau)
            a = theta1_series(z + tau, tau, TIGHT)
            b = -cmath.exp(-1j * math.pi * tau - 2j * math.pi * z) * theta1_series(z, tau, TIGHT)
            assert abs(a - b) <= 1e-12 * max(abs(a), abs(b))

    def test_zeros_on_lattice(self):
        tau = 0.1 + 1.1j
        tol = 1e-12
        ctl = TruncationControl(tolerance=tol)
        for m in (-1, 0, 1):
            for n in (-1, 0, 1):
                assert abs(theta1_series(m + n * tau, tau, ctl)) < 10 * tol


class TestLogTheta1:
    def test_exponentiation_matches_series(self):
        for z, tau in [(0.2 + 0.1j, 1.5j), (0.3, 1j)]:
            log_value = log_theta1(z, tau, TIGHT)
            series = theta1_series(z, tau, TIGHT)
            assert abs(cmath.exp(log_value) - series) <= 1e-11 * abs(series)

    def test_large_im_tau_limit(self):
        # every tau-dependent log vanishes; only the nome-free n=1 third
        # factor log(1 - e^{-2 pi i z}) survives next to the closed terms
        z, tau = 0.3 + 0.05j, 40j
        expected = (
            -0.5j * math.pi
            + 1j * math.pi * z
            + 0.25j * math.pi * tau
            + cmath.log(1 - cmath.exp(-2j * math.pi * z))
        )
        assert abs(log_theta1(z, tau) - expected) < 1e-14

    def test_lattice_proximity_rejected(self):
        with pytest.raises(DomainError):
            log_theta1(1.0 + 1e-9, 1j)


class TestLogThetaResidueClasses:
    def test_k1_matches_log_theta1(self):
        params = TransformParams(H=0, h=0, k=1, v=2.0)
        lhs = log_theta1_by_residue_classes(params, 0.1, TIGHT)
        rhs = log_theta1(0.1, 2j, TIGHT)
        diff = (lhs - rhs) / (2j * math.pi)
        assert abs(diff - round(diff.real)) < 1e-10

    def test_k2_matches_log_theta1(self):
        params = TransformParams(H=1, h=1, k=2, v=1.5)
        z = 0.2 + 0.05j
        lhs = log_theta1_by_residue_classes(params, z, TIGHT)
        rhs = log_theta1(z, (1.5j + 1) / 2, TIGHT)
        diff = (lhs - rhs) / (2j * math.pi)
        assert abs(diff - round(diff.real)) < 1e-10

    def test_truncation_monotonicity(self):
        params = TransformParams(H=2, h=1, k=3, v=1.1)
        z = 0.15 + 0.04j
        coarse = log_theta1_by_residue_classes(params, z, TruncationControl(tolerance=1e-12))
        fine = log_theta1_by_residue_classes(params, z, TruncationControl(tolerance=1e-15))
        assert abs(coarse - fine) < 1e-11

    def test_divergent_region_rejected(self):
        params = TransformParams(H=0, h=0, k=1, v=0.5)
        with pytest.raises(DomainError):
            log_theta1_by_residue_classes(params, 0.2 + 0.6j)

    def test_branch_cut_rejected(self):
        # purely imaginary z with Im z > 0 puts a geometric head on [1, inf)
        params = TransformParams(H=0, h=0, k=1, v=2.0)
        with pytest.raises(DomainError):
            log_theta1_by_residue_classes(params, 0.4j)


class TestLatticeDistance:
    def test_at_lattice_point(self):
        tau = 0.3 + 1.2j
        assert lattice_distance(2 + tau, tau) < 1e-15

    def test_generic_point(self):
        tau = 1j
        assert abs(lattice_distance(0.5 + 0.5j, tau) - abs(0.5 + 0.5j)) < 1e-15

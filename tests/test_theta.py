import cmath
import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mp_eta_direct, mp_log_theta1_direct, mp_theta1_direct, mp_theta1_jtheta
from thetamod import (
    DomainError,
    ThetamodError,
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
    theta1_fast_info,
    theta1_product,
    theta1_series,
    theta1_series_info,
)
from thetamod import theta
from thetamod.theta import DEFAULT_CONTROL, _triple_factors

TIGHT = TruncationControl(tolerance=1e-15)


class TestTruncationControl:
    def test_defaults_valid(self):
        TruncationControl()

    def test_bad_tolerance(self):
        with pytest.raises(ValidationError):
            TruncationControl(tolerance=1e-17)


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

    def test_non_finite_z_raises_domain_error(self):
        with pytest.raises(DomainError, match="z must be finite"):
            theta1_series_info(float("inf"), 1j)

    def test_near_overflowing_im_tau_returns_finite(self):
        # pi Im tau overflows to inf; the cutoff works in |Im z| / Im tau and stays finite
        for info in (theta1_series_info(0.3, 1e308j), theta1_fast_info(0.3, 1e308j)):
            assert info.value == 0 and math.isfinite(info.error_bound)

    def test_im_tau_near_underflow_hits_the_term_cap(self):
        # the cutoff starts near 1e150 pairs, where n + 1 == n in floats; it is capped
        # before any loop, so this raises at once
        with pytest.raises(TruncationError, match=r"needs \d.* terms .* \(cap 200000\)"):
            theta1_series_info(0.2, 0.3 + 1e-300j)

    def test_max_terms_exhaustion(self):
        # the tolerance root alone asks for ~5.9e5 terms; the cap is 200 000.
        # The cutoff starts at that root, so this raises at once.
        with pytest.raises(TruncationError, match=r"needs \d+ terms .* \(cap 200000\)"):
            theta1_series(0.2, 0.3 + 1e-10j)

    def test_term_cap_message_counts_only_what_it_knows(self):
        # at 1e-9 the tolerance root lies below the cap and the tail loop stops at it: the need is
        # past the cap, not 200002; at 1e-12 the root itself lies past the cap and is the count
        with pytest.raises(TruncationError, match=r"needs more than 200000 terms .* \(cap 200000\)"):
            theta1_series_info(0.1, 0.1 + 1e-9j)
        with pytest.raises(TruncationError, match=r"needs 5931349 terms .* \(cap 200000\)"):
            theta1_series_info(0.1, 0.1 + 1e-12j)

    def test_lower_half_plane_rejected(self):
        with pytest.raises(DomainError):
            theta1_series(0.1, -1j)

    @pytest.mark.parametrize(
        "z, tau",
        [
            (0.3 + 0.1j, 0.1 + 1e-4j),  # 2043 pairs; |value| ~1e104, largest term ~e^314
            (0.3 + 1.5j, 0.1 + 0.02j),  # 153 pairs; sin((2n+1) pi z) alone overflows
            (0.3 + 4j, 0.1 + 0.27j),  # 31 pairs; sin((2n+1) pi z) alone overflows
        ],
    )
    def test_terms_past_sine_overflow_within_bound(self, z, tau):
        # each term is formed as one exponential, so a sine factor that would
        # overflow on its own does not; the bound is absolute and, where the
        # terms cancel, may exceed |value|
        info = theta1_series_info(z, tau)
        oracle = mp_theta1_direct(z, tau, terms=info.terms, dps=80)
        assert abs(info.value - oracle) <= info.error_bound

    def test_overflowing_largest_term_raises_truncation_error(self):
        # the largest term is ~e^{pi 16 / 0.02} = e^2513
        with pytest.raises(TruncationError, match="theta1_fast"):
            theta1_series_info(0.3 + 4j, 0.1 + 0.02j)

    def test_seeded_points_within_bound(self):
        # |Im z| up to 20 Im tau, where the terms cancel by many digits; a point
        # may raise only where its largest term e^{pi (Im z)^2 / Im tau} nears
        # the top of double range
        rng = random.Random(71)
        evaluated = 0
        for _ in range(60):
            im_tau = 10 ** rng.uniform(-2, 0)
            tau = complex(rng.uniform(-2, 2), im_tau)
            z = complex(rng.uniform(-1, 1), rng.uniform(-20, 20) * im_tau)
            try:
                info = theta1_series_info(z, tau)
            except TruncationError:
                assert math.pi * z.imag**2 / im_tau > 650
                continue
            evaluated += 1
            oracle = mp_theta1_direct(z, tau, terms=info.terms)
            assert abs(info.value - oracle) <= info.error_bound
        assert evaluated >= 50

    @pytest.mark.parametrize(
        "z, tau",
        [  # law-sweep image points with Re tau > 1, where the bound is tightest
            (-0.1689658269669927 - 0.0002910410860099922j, 2.350459651729203 + 0.0007033217923440839j),
            (-0.4016043572354526 + 0.00042963414177040436j, 1.611841247497485 + 0.0009070174956209449j),
            (0.3891682534458525 - 1.5323345227354762e-05j, 2.314194003212528 + 0.0003077735154994278j),
            (-0.15194965898249535 + 0.0003648037833018942j, 2.1058400860556543 + 0.0008673990317249463j),
        ],
    )
    def test_error_bound_holds_at_large_re_tau(self, z, tau):
        info = theta1_series_info(z, tau)
        assert abs(info.value - mp_theta1_direct(z, tau, terms=600)) <= info.error_bound

    def test_huge_re_tau_is_translated_exactly(self):
        # 1e308 is an integer divisible by 8, so theta1(z, 1e308 + i) = theta1(z, i)
        info = theta1_series_info(0.2, 1e308 + 1j)
        assert abs(info.value - mp_theta1_direct(0.2, 1j)) <= info.error_bound

    @pytest.mark.parametrize("im_tau, pairs", [(0.0145, 32), (0.0144, 33)])
    def test_pair_count_and_bound(self, im_tau, pairs):
        z, tau = 0.23 + 0.1j, 0.31 + 1j * im_tau
        info = theta1_series_info(z, tau)
        assert info.terms == 2 * pairs
        oracle = mp_theta1_direct(z, tau, terms=400)
        assert abs(info.value - oracle) <= info.error_bound + 1e-15 * abs(oracle)


def _cutoff_with_ratio_at_most_half(t: complex, z: complex, ctl: TruncationControl):
    """_series_cutoff at lead 0 as it was when its start also forced rho <= 1/2: (N, bound), or None where it
    raised (past the cap, or a peak term past double range)."""
    a, r = math.pi * t.imag, abs(z.imag) / t.imag
    log_tol, peak = math.log(ctl.tolerance), math.pi * abs(z.imag) * r
    if peak - log_tol > 690.0:
        return None
    start = max(0.0, r + math.sqrt(max(0.0, r * r - log_tol / a)) - 1.5, r + math.log(2.0) / (2.0 * a) - 2.0)
    n = math.ceil(min(start, theta._MAX_TERMS // 2))
    while n < theta._MAX_TERMS // 2 and -a * (n + 1.5) * (n + 1.5 - 2.0 * r) >= log_tol:
        n += 1
    if n >= theta._MAX_TERMS // 2:
        return None
    x_p = max(0.5, r)
    exponent = math.pi * (abs(t) * x_p * x_p + 2.0 * x_p * abs(z))
    roundoff = theta._running_error(2 * n + 2, exponent, math.exp(min(695.0, peak)))
    return n, _omitted_tail(t, z, n) + roundoff


def _omitted_tail(t: complex, z: complex, n: int) -> float:
    """2 t_{N+1} / (1 - rho(N+1)), both tails of the series at lead 0 past pair N."""
    a, r = math.pi * t.imag, abs(z.imag) / t.imag
    return 2.0 * math.exp(-a * (n + 1.5) * (n + 1.5 - 2.0 * r)) / (1.0 - math.exp(-2.0 * a * (n + 2 - r)))


class TestSeriesCutoff:
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(
        log_im=st.floats(-10.0, 1.0),
        re_t=st.floats(-0.5, 0.5),
        re_z=st.floats(-1.0, 1.0),
        im_z_share=st.floats(-10.0, 10.0),
        log_tol=st.floats(-16.0, -3.0),
    )
    def test_never_longer_than_the_ratio_rule(self, log_im, re_t, re_z, im_z_share, log_tol):
        t, ctl = complex(re_t, 10.0**log_im), TruncationControl(tolerance=10.0**log_tol)
        z = complex(re_z, im_z_share * t.imag)
        old = _cutoff_with_ratio_at_most_half(t, z, ctl)
        try:
            n, bound = theta._series_cutoff(t, z, 0j, ctl)
        except TruncationError:
            assert old is None  # the old rule, never shorter, is past the cap too (or the peak overflows both)
            return
        assert _omitted_tail(t, z, n) <= 4.0 * ctl.tolerance
        if old is None:
            return
        assert n <= old[0]
        a, r = math.pi * t.imag, abs(z.imag) / t.imag
        root = r + math.sqrt(r * r - math.log(ctl.tolerance) / a) - 1.5
        if root >= r + math.log(2.0) / (2.0 * a) - 2.0:
            assert (n, bound) == old  # where rho <= 1/2 did not bind, nothing moves, the bound to the bit

    def test_long_direct_series_stops_at_its_tail(self):
        # the rule that forced rho <= 1/2 summed 22 062 terms here; the tail is within 4 tolerance after 1946
        assert theta1_series_info(0.1, 0.1 + 1e-5j).terms <= 2000


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

    @pytest.mark.parametrize("z, tau", [(0.3, 250j), (0.3 + 20j, 100j)])
    def test_extreme_nome_matches_the_series(self, z, tau):
        # Q^2 = e^{-500 pi} underflows to 0 while theta1 = 8.6e-86 is a finite double; at tau = 100i
        # |w^-2|/|Q^2| = e^{240 pi} overflows, though every factor is in range
        series = theta1_series(z, tau)
        assert abs(theta1_product(z, tau) - series) <= 1e-14 * abs(series)
        assert abs(cmath.exp(log_theta1(z, tau)) - series) <= 1e-14 * abs(series)

    def test_factor_outside_double_range_raises_domain_error(self):
        # w^{-2} = e^{600 pi} overflows
        with pytest.raises(DomainError, match=r"at z=300j, tau=1j"):
            theta1_product(300j, 1j)


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

    def test_overflowing_left_side_raises_truncation_error(self):
        # the largest term w^{2n} q^{n^2}, near n = -100, is ~e^6880
        with pytest.raises(TruncationError, match="jacobi_triple_product_check at w=") as info:
            jacobi_triple_product_check(1e-30, 0.5)
        assert "theta1_fast" not in str(info.value)

    @pytest.mark.parametrize("w, q", [(1e-300, 0.999999), (1e-200, 0.5)])
    def test_underflowing_w_squared_raises_truncation_error(self, w, q):
        # w^2 rounds to 0, so z = log(-w^2/q)/(2 pi i) is log(0), which used to raise a raw ValueError
        with pytest.raises(TruncationError, match=f"jacobi_triple_product_check at w=\\({w}\\+0j\\)"):
            jacobi_triple_product_check(w, q)

    def test_vanishing_product_nome_gives_one(self):
        # q = 1e-300 puts Im tau near 220, where Q^2 = e^{2 pi i tau} underflows to 0; both sides are 1
        lhs, rhs = jacobi_triple_product_check(0.5, 1e-300)
        assert abs(lhs - 1) <= 1e-15 and abs(rhs - 1) <= 1e-15

    def test_large_terms_in_range(self):
        # w^{-2n} reaches ~1e212 before q^{n^2} damps it; every term stays in range
        with mp.workdps(40):
            oracle = complex(mp.fsum(mp.mpf(1e-8) ** (2 * n) * mp.mpf(0.5) ** (n * n) for n in range(-80, 81)))
        lhs, rhs = jacobi_triple_product_check(1e-8, 0.5)
        assert abs(lhs - oracle) <= 1e-13 * abs(oracle)
        assert abs(rhs - oracle) <= 1e-13 * abs(oracle)

    @pytest.mark.parametrize(
        "w, q",
        [
            (1.3, 0.45),
            (0.8 + 0.3j, -0.5),
            (cmath.exp(0.7j), 0.6 * cmath.exp(2.1j)),
            (0.6 - 0.9j, -0.3 + 0.55j),
        ],
    )
    def test_left_side_matches_extended_precision_sum(self, w, q):
        with mp.workdps(40):
            ww, qq = mp.mpc(w), mp.mpc(q)
            oracle = complex(mp.fsum(ww ** (2 * n) * qq ** (n * n) for n in range(-80, 81)))
        lhs, _ = jacobi_triple_product_check(w, q, TIGHT)
        assert abs(lhs - oracle) <= 1e-13 * abs(oracle)

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

    @pytest.mark.parametrize("b", [1, -3, 8, 25, 40])
    def test_integer_translation(self, b):
        # eta(tau + b) = e^{i pi b/12} eta(tau); Re tau = 0.25 keeps tau + b exact
        tau = 0.25 + 0.8j
        expected = cmath.exp(1j * math.pi * b / 12) * eta(tau, TIGHT)
        assert abs(eta(tau + b, TIGHT) - expected) <= 1e-14 * abs(expected)

    def test_huge_re_tau_is_translated_exactly(self):
        b = int(1e308)
        expected = cmath.exp(1j * math.pi * (b % 24) / 12) * mp_eta_direct(1j)
        assert abs(eta(1e308 + 1j) - expected) <= 1e-14 * abs(expected)

    def test_near_axis_series_matches_product(self):
        tau = 0.37 + 0.004j
        oracle = mp_eta_direct(tau, terms=3000, dps=40)
        value = eta(tau, TruncationControl(tolerance=1e-13))
        assert abs(value - oracle) <= 1e-11 * abs(oracle)

    def test_long_products_match_qp(self):
        # Im tau in [3e-4, 3e-3]: the product took ~1500 to ~15000 factors; the
        # series runs at the reduced point, Im tau' >= sqrt(3)/2, in a few terms
        rng = random.Random(43)
        for _ in range(24):
            tau = complex(rng.uniform(-2, 2), 10 ** rng.uniform(math.log10(3e-4), math.log10(3e-3)))
            info = eta_info(tau)
            assert info.terms <= 8
            with mp.workdps(30):
                t = mp.mpc(tau)
                oracle = complex(mp.exp(1j * mp.pi * t / 12) * mp.qp(mp.exp(2j * mp.pi * t)))
            assert abs(info.value - oracle) <= 1e-10 * abs(oracle)

    def test_error_bound_on_seeded_points(self):
        # the sample on which the product's tail-only bound missed 108 times
        rng = random.Random(83)
        for _ in range(400):
            tau = complex(rng.uniform(-3, 3), 10 ** rng.uniform(-3, 1))
            info = eta_info(tau)
            with mp.workdps(30):
                oracle = complex(mp.eta(mp.mpc(tau)))
            assert abs(info.value - oracle) <= info.error_bound

    @pytest.mark.parametrize("tau", [1.4992174306985158 + 0.0017564048440257658j,
                                     -2.9985558208489986 + 0.005344113690653349j, 0.3 + 1e-5j])
    def test_relative_precision_near_cusps(self, tau):
        # |eta| is 5e-13, 2e-19 and 2e-112 here, far below the terms of a series at tau itself
        with mp.workdps(30):
            oracle = complex(mp.eta(mp.mpc(tau)))
        assert abs(eta(tau) - oracle) <= 1e-11 * abs(oracle)

    @pytest.mark.parametrize("tau", [1e3j, 0.4 + 1e20j, 1e200j, 1e300j])
    def test_large_im_tau_within_bound(self, tau):
        # theta1(tau, 3 tau) alone would overflow from Im tau ~ 900; eta is
        # e^{-pi Im tau/12} in size, 0 once that underflows
        info = eta_info(tau)
        with mp.workdps(30):
            oracle = complex(mp.exp(1j * mp.pi * mp.mpc(tau) / 12))
        assert cmath.isfinite(info.value) and math.isfinite(info.error_bound)
        assert abs(info.value - oracle) <= info.error_bound

    def test_im_tau_1e308_names_its_own_tau(self):
        try:
            info = eta_info(1e308j)
        except ThetamodError as exc:
            assert "tau=1e+308j" in str(exc)
        else:
            assert cmath.isfinite(info.value) and math.isfinite(info.error_bound)


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

    def test_translation_phases_are_exact(self):
        # theta1(z, tau + b) = e^{i pi b/4} theta1(z, tau): eight entries, each part 0, +-1 or +-sqrt(1/2)
        assert len(theta._ROOTS8) == 8
        exact = {0.0, 1.0, -1.0, math.sqrt(0.5), -math.sqrt(0.5)}
        for b, root in enumerate(theta._ROOTS8):
            assert root.real in exact and root.imag in exact, b
            assert abs(root - cmath.exp(1j * math.pi * b / 4)) < 1e-15, b

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

    @pytest.mark.parametrize("h, k, H", [(0, 1, 0), (3, 7, 2)])
    def test_class_terms_in_range_where_e_2_pi_i_z_overflows(self, h, k, H):
        # e^{2 pi i z} = e^{300 pi} overflows at Im z = -150, but every class term a_mu e^{2 pi i z} is in range:
        # at k = 1 it is e^{-300 pi}, at k = 7 the largest is e^{2 pi (150 - 300/7)}
        params = TransformParams(H=H, h=h, k=k, v=300.0)
        z = 0.2 - 150j
        expected = mp_log_theta1_direct(z, (h + 300j) / k)  # log|theta1| is 236 and 1649: theta1 leaves double range
        diff = log_theta1_by_residue_classes(params, z, TIGHT) - expected
        assert abs(complex(diff.real, math.remainder(diff.imag, 2 * math.pi))) <= 1e-14 * abs(expected)

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

    def test_vanishing_re_v_raises_truncation_error(self):
        # e^{-2 pi v} rounds to 1 here; the cap divides by 1 - e^{-2 pi v}
        params = TransformParams(H=0, h=0, k=1, v=1e-18)
        with pytest.raises(TruncationError):
            log_theta1_by_residue_classes(params, 0.1)

    def test_underflowing_tail_target_raises_truncation_error(self):
        # the cut's target tolerance (1 - r) underflows to 0 at Re v = 1e-320, where log(0) used to escape
        params = TransformParams(H=1, h=1, k=2, v=1e-320)
        with pytest.raises(TruncationError, match="cap 200000"):
            log_theta1_by_residue_classes(params, 0.2)

    def test_holds_where_a_geometric_head_sits_on_the_branch_cut(self):
        # purely imaginary z with Im z > 0 puts a geometric head on (1, inf): -log(1 - a) takes the cut's
        # +i pi side, and the expansion holds modulo 2 pi i either way
        params = TransformParams(H=0, h=0, k=1, v=2.0)
        diff = log_theta1_by_residue_classes(params, 0.4j, TIGHT) - mp_log_theta1_direct(0.4j, 2j, dps=40)
        assert abs(complex(diff.real, math.remainder(diff.imag, 2 * math.pi))) < 1e-14


class TestLatticeDistance:
    def test_at_lattice_point(self):
        tau = 0.3 + 1.2j
        assert lattice_distance(2 + tau, tau) < 1e-15

    def test_generic_point(self):
        tau = 1j
        assert abs(lattice_distance(0.5 + 0.5j, tau) - abs(0.5 + 0.5j)) < 1e-15

    def test_lattice_index_outside_double_range_raises_domain_error(self):
        # Im z / Im tau = 1e600 is no integer in double range
        with pytest.raises(DomainError, match="tau=1e-300j"):
            lattice_distance(1e300 + 1e300j, 1e-300j)

import cmath
import math
import random
import re
from fractions import Fraction

import mpmath as mp
import pytest

from thetamod import (
    IDENTITY,
    S_INVERSION,
    DomainError,
    ModularMatrix,
    NonConvergenceError,
    ValidationError,
    moebius_apply,
    neg_mod_inverse,
    principal_power,
    reduce_to_fundamental_domain,
    transform_params_from_matrix,
)
from thetamod import modular
from thetamod.modular import _affine
from thetamod.transform import random_modular_matrix


class TestModularMatrix:
    def test_identity(self):
        mat = ModularMatrix(1, 0, 0, 1)
        assert mat == IDENTITY

    def test_inversion(self):
        mat = ModularMatrix(0, -1, 1, 0)
        assert mat == S_INVERSION
        assert mat.inverse() == ModularMatrix(0, 1, -1, 0)

    def test_unit_determinant_accepted(self):
        ModularMatrix(2, 1, 1, 1)  # det = 2 - 1 = 1

    def test_bad_determinant_rejected(self):
        with pytest.raises(ValidationError):
            ModularMatrix(2, 1, 1, 2)
        with pytest.raises(ValidationError):
            ModularMatrix(1, 0, 0, -1)

    def test_non_integer_rejected(self):
        with pytest.raises(ValidationError):
            ModularMatrix(1.0, 0, 0, 1)

    def test_huge_entries_stay_exact(self):
        # arbitrary-precision integers: no wraparound at any size
        n = 10**30
        mat = ModularMatrix(1, n, 0, 1) @ ModularMatrix(1, 0, n, 1)
        assert mat.a * mat.d - mat.b * mat.c == 1

    def test_product_and_inverse(self):
        rng = random.Random(11)
        for _ in range(50):
            m1 = random_modular_matrix(rng)
            m2 = random_modular_matrix(rng)
            prod = m1 @ m2
            assert prod.a * prod.d - prod.b * prod.c == 1
            assert m1 @ m1.inverse() == IDENTITY


class TestMoebius:
    def test_identity_fixed(self):
        tau = 0.3 + 1.2j
        assert moebius_apply(IDENTITY, tau) == tau

    def test_inversion_fixes_i(self):
        assert abs(moebius_apply(S_INVERSION, 1j) - 1j) < 1e-15

    def test_inversion_at_2i(self):
        assert abs(moebius_apply(S_INVERSION, 2j) - 0.5j) < 1e-15

    def test_lower_half_rejected(self):
        with pytest.raises(DomainError):
            moebius_apply(S_INVERSION, 0.5 - 1j)

    def test_composition(self):
        rng = random.Random(23)
        for _ in range(200):
            m1 = random_modular_matrix(rng)
            m2 = random_modular_matrix(rng)
            tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
            lhs = moebius_apply(m1 @ m2, tau)
            rhs = moebius_apply(m1, moebius_apply(m2, tau))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_imaginary_part_formula(self):
        rng = random.Random(29)
        for _ in range(200):
            mat = random_modular_matrix(rng)
            tau = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
            image = moebius_apply(mat, tau)
            expected = tau.imag / abs(mat.c * tau + mat.d) ** 2
            assert abs(image.imag - expected) <= 1e-12 * expected


    def test_cancelling_denominator_within_four_ulps(self):
        # c Re tau + d = 53 * 1.717... - 91 cancels ~4 digits; formed in floats
        # the image was off by 4.7e-13 relative
        mat, tau = ModularMatrix(46, -79, 53, -91), 1.7170549300777433 + 0.00014260379061306304j
        with mp.workdps(50):
            t = mp.mpc(tau)
            exact = (mat.a * t + mat.b) / (mat.c * t + mat.d)
            error = abs(mp.mpc(moebius_apply(mat, tau)) - exact) / abs(exact)
        assert error <= 4 * 2.0**-52

    def test_affine_real_part_is_correctly_rounded(self):
        rng = random.Random(41)
        for _ in range(300):
            tau = complex(rng.uniform(-3, 3), 10 ** rng.uniform(-8, 1))
            c = rng.choice([rng.randint(-100, 100), rng.randint(-10**30, 10**30)])
            # d near -c Re tau, so that the sum cancels
            d = -round(Fraction(tau.real) * c) + rng.randint(-3, 3)
            image = _affine(c, d, tau)
            assert image.real == float(Fraction(tau.real) * c + d)
            assert image.imag == c * tau.imag

    @pytest.mark.parametrize("mat, tau", [(ModularMatrix(10**300, -1, 1, 0), 1e308j),
                                          (ModularMatrix(1, 0, 10**300, 1), 1e10j)])
    def test_part_overflowing_to_inf_raises_domain_error(self, mat, tau):
        # p Im tau = 1e608 or 1e310 overflows to inf without raising OverflowError
        with pytest.raises(DomainError, match="leaves double range"):
            moebius_apply(mat, tau)


class TestPrincipalPower:
    def test_positive_real_root(self):
        assert abs(principal_power(4, 0.5) - 2) < 1e-15

    def test_negative_real_root_is_plus_i(self):
        # Arg(-1) = +pi by the (-pi, pi] convention
        assert abs(principal_power(-1, 0.5) - 1j) < 1e-15
        assert abs(principal_power(complex(-1, -0.0), 0.5) - 1j) < 1e-15

    def test_one_minus_i_root(self):
        # Arg(1 - i) = -pi/4, so the root is 2^{1/4} e^{-i pi/8}
        expected = 2 ** 0.25 * cmath.exp(-1j * math.pi / 8)
        assert abs(principal_power(1 - 1j, 0.5) - expected) < 1e-15

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            principal_power(0, 0.5)

    def test_power_outside_double_range_raises_domain_error(self):
        with pytest.raises(DomainError, match="leaves double range"):
            principal_power(1e308, 2)

    def test_square_of_root_is_identity(self):
        rng = random.Random(31)
        for _ in range(1000):
            # include points hugging the negative real axis from below
            if rng.random() < 0.2:
                x = complex(-rng.uniform(0.1, 10), -rng.uniform(1e-14, 1e-8))
            else:
                x = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if x == 0:
                continue
            root = principal_power(x, 0.5)
            assert abs(root * root - x) <= 1e-14 * abs(x)


class TestFundamentalDomain:
    @staticmethod
    def _assert_reduced(tau, mat, tau_red):
        assert abs(tau_red.real) <= 0.5 + 1e-9
        assert abs(tau_red) >= 1.0 - 1e-9
        replay = moebius_apply(mat, tau)
        assert abs(replay - tau_red) <= 1e-12 * max(1.0, abs(tau_red))
        assert tau_red.imag >= tau.imag - 1e-12

    def test_already_reduced(self):
        mat, tau_red, _ = reduce_to_fundamental_domain(1j)
        self._assert_reduced(1j, mat, tau_red)

    def test_half_i_inverts_to_2i(self):
        mat, tau_red, _ = reduce_to_fundamental_domain(0.5j)
        assert abs(tau_red - 2j) < 1e-14
        self._assert_reduced(0.5j, mat, tau_red)

    def test_large_offset_point(self):
        tau = 5.3 + 0.8j
        mat, tau_red, _ = reduce_to_fundamental_domain(tau)
        self._assert_reduced(tau, mat, tau_red)
        assert tau_red.imag >= 0.8

    def test_random_points(self):
        rng = random.Random(37)
        for _ in range(300):
            tau = complex(rng.uniform(-12, 12), 10 ** rng.uniform(-3.2, 1.0))
            mat, tau_red, _ = reduce_to_fundamental_domain(tau)
            self._assert_reduced(tau, mat, tau_red)

    def test_image_is_the_matrix_image_bit_for_bit(self):
        # Im tau log-uniform in [1e-12, 1e2], |Re tau| <= 3: the returned image is moebius_apply of the
        # returned matrix, to the bit, and lies in the domain
        rng = random.Random(71)
        for _ in range(2000):
            tau = complex(rng.uniform(-3, 3), 10 ** rng.uniform(-12, 2))
            mat, tau_red, _ = reduce_to_fundamental_domain(tau)
            assert tau_red == moebius_apply(mat, tau)
            assert mat.c > 0 or (mat.c == 0 and mat.a == 1)
            assert abs(tau_red.real) <= 0.5 + 1e-12 and 1.0 - 1e-12 <= abs(tau_red) < math.inf

    def test_denominator_is_the_signed_matrix_denominator_bit_for_bit(self):
        # half the points have Re tau = p/q, where c Re tau + d is often exactly 0 and the negated
        # denominator must keep that zero +0.0, as _affine(c, d, tau) of the signed matrix does
        rng = random.Random(19)
        for i in range(20000):
            re = rng.uniform(-3, 3) if i % 2 else rng.randint(-36, 36) / rng.randint(1, 12)
            tau = complex(re, 10 ** rng.uniform(-6, 1))
            mat, image, den = reduce_to_fundamental_domain(tau)
            assert image == moebius_apply(mat, tau)
            expected = _affine(mat.c, mat.d, tau)
            assert (den.real.hex(), den.imag.hex()) == (expected.real.hex(), expected.imag.hex())

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(modular, "_GAUSS_STEPS", 5)
        with pytest.raises(NonConvergenceError, match="within 5 float Gauss steps"):
            reduce_to_fundamental_domain(0.4142135623730951 + 1e-300j)

    def test_image_off_the_upper_half_plane_names_the_input(self):
        # at Im tau = 1e-300 the float loop settles on a matrix whose exact
        # image has a negative imaginary part after rounding
        with pytest.raises(NonConvergenceError, match=r"reduction of tau=\(0\.3\+1e-300j\)"):
            reduce_to_fundamental_domain(0.3 + 1e-300j)

    @pytest.mark.parametrize("tau", [0.2 + 5e-324j, 0.1 + 1e-300j, 0.5 + 1e-320j])
    def test_image_outside_the_domain_names_the_input(self, tau):
        # the float loop settles where the exact image is -3.6e15+1.6e-291i,
        # -1.8e15+3.2e-268i and -0.5+inf i: in the upper half plane, not in the domain
        with pytest.raises(NonConvergenceError, match=re.escape(f"reduction of tau={tau}")):
            reduce_to_fundamental_domain(tau)


class TestTransformParams:
    def test_inversion_matrix(self):
        tau = 0.2 + 0.9j
        params = transform_params_from_matrix(S_INVERSION, tau)
        assert (params.H, params.k, params.h) == (0, 1, 0)
        assert abs(params.v - (-1j * tau)) < 1e-15

    def test_lower_triangular(self):
        tau = 0.1 + 1.4j
        params = transform_params_from_matrix(ModularMatrix(1, 0, 1, 1), tau)
        assert (params.H, params.k, params.h) == (1, 1, -1)
        assert abs(params.v - (-1j * (tau + 1))) < 1e-15

    def test_generic_matrix_at_i(self):
        params = transform_params_from_matrix(ModularMatrix(2, 1, 1, 1), 1j)
        assert (params.H, params.k, params.h) == (2, 1, -1)
        assert abs(params.v - (1 - 1j)) < 1e-15

    def test_nonpositive_c_rejected(self):
        with pytest.raises(ValidationError):
            transform_params_from_matrix(ModularMatrix(1, 1, 0, 1), 1j)
        with pytest.raises(ValidationError):
            transform_params_from_matrix(ModularMatrix(0, 1, -1, 0), 1j)

    def test_entry_outside_double_range_raises_domain_error(self):
        # c tau + d with c = 10^400 has no double
        with pytest.raises(DomainError, match=r"tau=\(0\.5\+1j\)"):
            transform_params_from_matrix(ModularMatrix(1, 0, 10**400, 1), 0.5 + 1j)
        # c Im tau = 1e310 overflows to inf without raising OverflowError
        with pytest.raises(DomainError, match=r"tau=\(0\.5\+10000000000j\)"):
            transform_params_from_matrix(ModularMatrix(1, 0, 10**300, 1), 0.5 + 1e10j)

    def test_congruence_always_holds(self):
        rng = random.Random(41)
        for _ in range(300):
            mat = random_modular_matrix(rng)
            params = transform_params_from_matrix(mat, 0.3 + 1.1j)
            assert (params.H * params.h + 1) % params.k == 0
            assert math.gcd(params.h, params.k) == 1


class TestNegModInverse:
    def test_small_cases(self):
        assert neg_mod_inverse(1, 2) == 1
        assert neg_mod_inverse(1, 3) == 2
        assert neg_mod_inverse(7, 1) == 0
        assert neg_mod_inverse(-3, 1) == 0

    def test_not_coprime(self):
        with pytest.raises(ValidationError, match="h=2 and k=4 must be coprime"):
            neg_mod_inverse(2, 4)

    def test_random_pairs(self):
        rng = random.Random(43)
        for _ in range(300):
            k = rng.randint(1, 500)
            h = rng.randint(-500, 500)
            if math.gcd(h, k) != 1:
                continue
            inv = neg_mod_inverse(h, k)
            assert 0 <= inv < k
            assert (inv * h + 1) % k == 0

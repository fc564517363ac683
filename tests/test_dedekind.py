import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXTREME_TAUS, jacobi_symbol, petersson_eta_phase
from thetamod import (
    ModularMatrix,
    S_INVERSION,
    ThetamodError,
    ValidationError,
    dedekind_sum_fast,
    dedekind_sum_naive,
    eta,
    eta_multiplier,
    moebius_apply,
    principal_power,
    reduce_to_fundamental_domain,
    theta_multiplier,
    theta1_series,
)
from thetamod.transform import random_modular_matrix, random_tau, random_z


def coprime_pairs(k_max):
    for k in range(1, k_max + 1):
        for h in range(1, k) if k > 1 else [0]:
            if math.gcd(h, k) == 1:
                yield h, k


class TestDedekindSums:
    def test_denominator_one_is_zero(self):
        assert dedekind_sum_naive(5, 1) == 0
        assert dedekind_sum_fast(5, 1) == 0

    def test_one_third(self):
        # r=1: (1/3)(1/3 - 1/2) = -1/18; r=2: (2/3)(2/3 - 1/2) = 1/9
        assert dedekind_sum_naive(1, 3) == Fraction(1, 18)
        assert dedekind_sum_fast(1, 3) == Fraction(1, 18)

    def test_one_half(self):
        assert dedekind_sum_naive(1, 2) == 0

    def test_fast_matches_naive_five_sevenths(self):
        assert dedekind_sum_fast(5, 7) == dedekind_sum_naive(5, 7)

    def test_not_coprime_rejected(self):
        with pytest.raises(ValidationError, match="h=2 and k=4 must be coprime"):
            dedekind_sum_naive(2, 4)
        with pytest.raises(ValidationError, match="h=3 and k=9 must be coprime"):
            dedekind_sum_fast(3, 9)

    def test_bad_k_rejected(self):
        with pytest.raises(ValidationError):
            dedekind_sum_naive(1, 0)

    def test_negative_h_reduces_mod_k(self):
        assert dedekind_sum_naive(-1, 3) == dedekind_sum_naive(2, 3)
        assert dedekind_sum_fast(-4, 7) == dedekind_sum_naive(3, 7)

    def test_fast_equals_naive_exactly(self):
        # every coprime pair with k <= 120 and h in [-k, 2k): both reductions of h, and k = 1
        pairs = [(h, k) for k in range(1, 121) for h in range(-k, 2 * k) if math.gcd(h, k) == 1]
        assert len(pairs) == 13158
        assert [(h, k) for h, k in pairs if dedekind_sum_fast(h, k) != dedekind_sum_naive(h, k)] == []

    def test_reciprocity(self):
        for h, k in coprime_pairs(40):
            if not 1 <= h < k:
                continue
            lhs = dedekind_sum_naive(h, k) + dedekind_sum_naive(k, h)
            rhs = Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k)
            assert lhs == rhs

    def test_oddness(self):
        for h, k in coprime_pairs(40):
            if k == 1:
                continue
            assert dedekind_sum_naive(k - h, k) == -dedekind_sum_naive(h, k)


class TestMultipliers:
    def test_inversion_eta_multiplier_is_one(self):
        eps = eta_multiplier(S_INVERSION)
        assert eps.phase == 0
        assert abs(eps.value - 1) < 1e-15

    def test_lower_triangular_eta_multiplier(self):
        eps = eta_multiplier(ModularMatrix(1, 0, 1, 1))
        assert eps.phase == Fraction(1, 6)

    def test_inversion_theta_multiplier_is_minus_i(self):
        eps1 = theta_multiplier(S_INVERSION)
        assert eps1.phase == Fraction(-1, 2)
        assert abs(eps1.value + 1j) < 1e-15

    def test_lower_triangular_theta_multiplier_is_one(self):
        # 3 * (1/6) - 1/2 = 0
        eps1 = theta_multiplier(ModularMatrix(1, 0, 1, 1))
        assert eps1.phase == 0

    def test_unit_modulus(self):
        rng = random.Random(47)
        for _ in range(100):
            mat = random_modular_matrix(rng)
            assert abs(abs(eta_multiplier(mat).value) - 1) < 1e-15
            assert abs(abs(theta_multiplier(mat).value) - 1) < 1e-15

    def test_negative_c_rejected(self):
        for mat in (ModularMatrix(0, 1, -1, 0), ModularMatrix(-1, 0, -3, -1)):
            with pytest.raises(ValidationError, match="c >= 0"):
                eta_multiplier(mat)
            with pytest.raises(ValidationError, match="c >= 0"):
                theta_multiplier(mat)

    def test_measured_eta_multiplier(self):
        # the multiplier must reproduce the measured ratio of the eta law
        rng = random.Random(53)
        for _ in range(25):
            mat = random_modular_matrix(rng)
            tau = random_tau(rng)
            den = mat.c * tau + mat.d
            measured = eta(moebius_apply(mat, tau)) / (
                principal_power(-1j * den, 0.5) * eta(tau)
            )
            assert abs(measured - eta_multiplier(mat).value) < 1e-10

    def test_measured_theta_multiplier(self):
        import cmath

        rng = random.Random(59)
        for _ in range(25):
            mat = random_modular_matrix(rng)
            tau = random_tau(rng)
            z = random_z(rng, tau)
            den = mat.c * tau + mat.d
            lhs = theta1_series(z / den, moebius_apply(mat, tau))
            measured = lhs / (
                principal_power(-1j * den, 0.5)
                * cmath.exp(1j * math.pi * mat.c * z * z / den)
                * theta1_series(z, tau)
            )
            assert abs(measured - theta_multiplier(mat).value) < 1e-9


def descent_sum(h, k):
    """s(h, k) by the reciprocity descent in Fractions: the reference for the integer identity."""
    h %= k
    total, sign = Fraction(0), 1
    while h:
        total += sign * (Fraction(h * h + k * k + 1, 12 * h * k) - Fraction(1, 4))
        h, k = k % h, h
        sign = -sign
    return total


def reduced_phase(phase):
    phase %= 2
    return phase - 2 if phase > 1 else phase


def seeded_matrices(count, seed):
    """Matrices with c and |d| up to 1e9: c = 1, both parities of c, and negative d."""
    rng = random.Random(seed)
    for i in range(count):
        c = 1 if i % 100 == 0 else 2 * int(10 ** rng.uniform(0, 8.6)) if i % 2 else int(10 ** rng.uniform(0, 9))
        d = rng.randint(-10**9, 10**9) if i % 3 else rng.randint(-50, 50)
        while math.gcd(d, c) != 1:
            d += 1
        a = pow(d, -1, c) if c > 1 else rng.randint(-5, 5)
        yield ModularMatrix(a, (a * d - 1) // c, c, d)


def definitional_phases(mat):
    """(eta, theta) phases: (a + d)/(12 c) + s(-d, c) and three times it less 1/2, both mod 2 into (-1, 1].

    At c = 0, A tau = tau + b d, so eta(A tau) = e^{i pi b d/12} eta(tau), and the law's factor
    (-i d)^{1/2} has phase Arg(-i d)/(2 pi) = -d/4 on the principal branch: eps = e^{i pi (b d/12 + d/4)}.
    """
    if mat.c == 0:
        eta_phase = reduced_phase(Fraction(mat.b * mat.d, 12) - Fraction(-mat.d, 4))
    else:
        eta_phase = reduced_phase(Fraction(mat.a + mat.d, 12 * mat.c) + descent_sum(-mat.d, mat.c))
    return eta_phase, reduced_phase(3 * eta_phase - Fraction(1, 2))


def test_multipliers_equal_the_definitional_phase():
    mats = list(seeded_matrices(3000, 67))
    assert {m.c % 2 for m in mats} == {0, 1} and min(m.d for m in mats) < 0 and min(m.c for m in mats) == 1
    for mat in mats:
        assert (eta_multiplier(mat).phase, theta_multiplier(mat).phase) == definitional_phases(mat)


HUGE = 10**400


def test_integer_paths_return_exact_values_or_raise_library_errors():
    # huge pairs, k = 1, h = 0 (mod k), bools, non-coprime pairs, k < 0 and a float h
    sums = [(HUGE + 1, HUGE), (-HUGE - 1, HUGE), (HUGE, HUGE + 1), (0, 1), (7, 1), (-3, 1), (0, 5), (5, 5), (-10, 5),
            (True, 3), (1, True), (2, 4), (2**64, 2**65), (3, -7), (1.0, 3)]
    # entries of size 10**400, c = 1 with negative d, c = 0 with both signs of d and a huge b, and c < 0 (rejected)
    entries = [(1, 0, HUGE, 1), (HUGE, HUGE - 1, HUGE + 1, HUGE), (0, -1, 1, -HUGE), (1, 0, 1, 1), (-4, -1, 1, 0),
               (2, 1, 1, 1), (1, 3, 0, 1), (-1, 7, 0, -1), (1, HUGE, 0, 1), (-1, -HUGE - 5, 0, -1), (0, 1, -1, 0)]
    calls = [(dedekind_sum_fast, args) for args in sums]
    calls += [(f, (ModularMatrix(*e),)) for e in entries for f in (eta_multiplier, theta_multiplier)]
    calls += [(reduce_to_fundamental_domain, (tau,)) for tau in EXTREME_TAUS]
    failures, inexact, rejected_matrices = [], [], set()
    for f, args in calls:
        try:
            result = f(*args)
        except ThetamodError:
            if f in (eta_multiplier, theta_multiplier):
                rejected_matrices.add(args[0].entries())
            continue
        except Exception as exc:  # noqa: BLE001 - any other exception is the failure being counted
            failures.append(f"{f.__name__}{args}: {type(exc).__name__}: {exc}")
            continue
        if f is dedekind_sum_fast:
            exact = result == descent_sum(*args)
        elif f is reduce_to_fundamental_domain:
            exact = result[1] == moebius_apply(result[0], *args)
        else:
            exact = result.phase == definitional_phases(*args)[f is theta_multiplier]
        if not exact:
            inexact.append(f"{f.__name__}{args}: {result!r}")
    assert failures == []
    assert inexact == []
    assert rejected_matrices == {(0, 1, -1, 0)}


@pytest.mark.parametrize("n", [3, 5, 7, 11, 13, 97, 101, 1009])
def test_jacobi_symbol_is_eulers_criterion_at_primes(n):
    assert [jacobi_symbol(a, n) for a in range(-n, 2 * n)] == [
        {0: 0, 1: 1, n - 1: -1}[pow(a, (n - 1) // 2, n)] for a in range(-n, 2 * n)]


@st.composite
def matrices_of_parity(draw, parity: int) -> ModularMatrix:
    """A = (a, b; c, d) with c > 0 of the given parity and |a|, |b|, c, |d| up to about 10**300:
    c/2 and |d| have about n digits for an n drawn from 1..300, so large and small sizes both occur."""
    digits = st.sampled_from(range(1, 301))
    n = draw(digits)
    c = 2 * draw(st.integers(10 ** (n - 1) - parity, 10**n)) + parity
    n = draw(digits)
    d = draw(st.integers(10 ** (n - 1) - 1, 10**n)) * draw(st.sampled_from((1, -1)))
    while math.gcd(c, d) != 1:  # the next d coprime to c, a few steps on
        d += 1
    a = pow(d, -1, c) - draw(st.integers(0, 1)) * c
    return ModularMatrix(a, (a * d - 1) // c, c, d)


def assert_petersson_phases(mat: ModularMatrix) -> None:
    """eta's phase against Petersson's form, theta's against -i eps^3, exactly as Fractions mod 2."""
    eta_phase = petersson_eta_phase(*mat.entries())
    assert (eta_multiplier(mat).phase - eta_phase) % 2 == 0
    assert (theta_multiplier(mat).phase - (3 * eta_phase - Fraction(1, 2))) % 2 == 0


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_multipliers_equal_petersson_closed_form(parity, data):
    assert_petersson_phases(data.draw(matrices_of_parity(parity)))


def test_multipliers_equal_petersson_closed_form_at_small_c():
    # every coprime (c, d) with 1 <= c <= 24 and |d| <= 24, where hypothesis draws few
    for c in range(1, 25):
        for d in range(-24, 25):
            if math.gcd(c, d) == 1:
                a = pow(d, -1, c)
                assert_petersson_phases(ModularMatrix(a, (a * d - 1) // c, c, d))


def test_eta_multiplier_is_a_cocycle():
    # eta(AB tau) by the law for AB, and by the laws for A at B tau and for B at tau, agree: with
    # X = c_A (B tau) + d_A, Y = c_B tau + d_B and Z = c_M tau + d_M for M = +-AB signed to c >= 0,
    # eps(M) = eps(A) eps(B) s where s = (-iX)^{1/2} (-iY)^{1/2} / (-iZ)^{1/2}, principal roots
    rng = random.Random(5)
    mismatches, quarter_turns = [], set()
    for _ in range(2000):
        a, b = random_modular_matrix(rng), random_modular_matrix(rng)
        m = a @ b if (a @ b).c >= 0 else -(a @ b)
        tau = random_tau(rng)
        x, y, z = a.c * moebius_apply(b, tau) + a.d, b.c * tau + b.d, m.c * tau + m.d
        s = cmath.sqrt(-1j * x) * cmath.sqrt(-1j * y) / cmath.sqrt(-1j * z)
        turns = 4 * cmath.phase(s) / math.pi
        assert abs(turns - round(turns)) < 1e-9
        quarter_turns.add(round(turns))
        defect = eta_multiplier(m).phase - eta_multiplier(a).phase - eta_multiplier(b).phase
        if (defect - Fraction(round(turns), 4)) % 2:
            mismatches.append((a, b))
    assert mismatches == []
    assert quarter_turns == {-1, 1}  # s is e^{+-i pi/4}, both signs drawn

"""Sine products, Psi statistic, cotangent derivatives, Euler-Maclaurin."""

import math
from math import gcd

import mpmath
import pytest
from mpmath import mp, mpc, mpf, pi

from pfrac.dilog import clausen
from pfrac.refdata import PSI_211, U_CONST
from pfrac.series import inv, mul
from pfrac.sine_products import (EMConfig, _sine_factors, cot_derivative,
                                 em_product_estimate, em_remainder, g_ell,
                                 minimal_pair, psi, r_delta, s_wave_sum,
                                 sine_product, t_l_bound, zero_pairs)

PREC = 256


# -- sine products ---------------------------------------------------------------

def test_empty_product_is_one():
    v = sine_product(3, 7, 0, PREC)
    assert v.logAbs.value == 0 and v.sign == 1


def test_exact_unit_factor():
    # 2 sin(pi/6) = 1
    v = sine_product(1, 6, 1, PREC)
    assert abs(v.logAbs.value) < mpf(2) ** -240 and v.sign == 1


def test_full_product_closed_form(rng):
    # prod^{-1}(h/k)_{k-1} = (-1)^{(h-1)(k-1)/2} / k
    with mp.workprec(300):
        for _ in range(10):
            k = rng.randint(3, 40)
            h = rng.choice([h for h in range(1, k) if gcd(h, k) == 1])
            v = sine_product(h, k, k - 1, PREC)
            recip = v.sign * mpmath.exp(-v.logAbs.value)
            want = (-1) ** (((h - 1) * (k - 1)) // 2) / mpf(k)
            assert abs(recip - want) < mpf(2) ** -220


def test_sine_product_rejects_zero_factor():
    with pytest.raises(ValueError):
        sine_product(1, 6, 6)
    with pytest.raises(ValueError):
        sine_product(2, 6, 1)  # not reduced


def _log_sine_factors(h, k, m, prec):
    """Oracle: (log|2 sin(pi j h/k)|, sign) for j = 1..m, one sin and one log
    per factor, with the argument reduced exactly to pi r/k, 0 < r < k."""
    with mp.workprec(prec):
        return [(mpmath.log(2 * mpmath.sin(pi * mpf((j * h) % k) / k)),
                 -1 if (j * h) // k % 2 else 1) for j in range(1, m + 1)]


def test_sine_factors_meet_precision_contract():
    # value at p bits vs the log/sin oracle at p + 64 bits, relative 2^(16-p),
    # for h near 1, k/2 and k-1: there j h/k comes within 1/k of an integer
    # (j = k-1, 2 and 1), where the factor is smallest and rotation error
    # counts most
    for k in (12, 211, 600, 997, 1000):
        hs = [h for h in (1, 2, k // 2 - 1, k // 2, k // 2 + 1, k - 2, k - 1)
              if gcd(h, k) == 1]
        for h in hs:
            for p in (64, 256):
                ref = _log_sine_factors(h, k, k - 1, p + 64)
                tol = mpf(2) ** (16 - p)
                with mp.workprec(p + 64):
                    for f, (log_abs, sign) in zip(_sine_factors(h, k, k - 1, p), ref):
                        assert (f > 0) == (sign > 0)
                        assert abs(mpmath.log(abs(f)) - log_abs) <= tol
                    for m in (1, k // 2, k - 1):
                        v = sine_product(h, k, m, p)
                        want = mpmath.fsum(la for la, _ in ref[:m])
                        assert v.sign == math.prod(sg for _, sg in ref[:m])
                        assert abs(v.logAbs.value - want) <= tol


# -- Psi and the congruence statistics ---------------------------------------------

def test_psi_published_values():
    for h, want in ((1, "0.148849"), (2, "0.0697363"), (105, "0.0696573")):
        assert abs(psi(h, 211, 192).value - mpf(want)) < mpf("1e-6")


def test_psi_against_full_figure_data():
    for h, want in PSI_211:
        assert abs(float(psi(h, 211, 128).value) - want) < 5e-6


def test_exactly_six_h_exceed_u():
    above = [h for h, _ in PSI_211 if float(psi(h, 211, 128).value) > U_CONST]
    assert above == [1, 2, 105, 106, 209, 210]


def test_minimal_pair_examples():
    for k in (17, 100, 211):
        assert minimal_pair(1, k).D == 1
        assert minimal_pair(k - 1, k).D == 1
    assert minimal_pair(2, 211).D == 2
    mp_ = minimal_pair(2, 211)
    assert (mp_.beta0 * 2 - mp_.gamma0) % 211 == 0


def test_zero_pairs_structure():
    zp = zero_pairs(3, 10)
    assert all(1 <= g < 10 and 1 <= abs(b) < 10 and (b * 3 - g) % 10 == 0
               for b, g in zp)
    assert len(zp) == 18


# -- cotangent derivatives ----------------------------------------------------------

def test_cot_derivative_first_identity(rng):
    with mp.workprec(300):
        for _ in range(8):
            z = mpc(rng.uniform(0.1, 2.9), rng.uniform(-1.5, 1.5))
            lhs = cot_derivative(1, z, PREC).value
            assert abs(lhs + 1 + mpmath.cot(z) ** 2) < mpf(2) ** -230


def test_cot_derivative_vs_series_oracle():
    # oracle: cot(z0 + eps) = cos/sin as a ratio of shifted Taylor series,
    # differentiated termwise
    with mp.workprec(300):
        z0 = mpc("0.7", "0.4")
        n = 8
        c0, s0 = mpmath.cos(z0), mpmath.sin(z0)
        cos_c, sin_c = [], []
        for i in range(n):
            f = mpmath.factorial(i)
            cos_c.append((c0, -s0, -c0, s0)[i % 4] / f)
            sin_c.append((s0, c0, -s0, -c0)[i % 4] / f)
        with mp.workprec(280):
            cot = mul(cos_c, inv(sin_c, n), n)
        for order in (1, 2, 3):
            want = cot[order] * mpmath.factorial(order)
            got = cot_derivative(order, z0, PREC).value
            assert abs(got - want) < mpf(2) ** -230


def test_cot_derivative_bound_spotcheck():
    # |cot^(k)(pi z)| <= delta_{0k} + (k!/pi^{k+1}) (4.01/|y|)^{k+1} e^{-pi |y|}
    with mp.workprec(200):
        for k in range(9):
            for x in (mpf("0.1"), mpf("0.37"), mpf("0.5")):
                for y in (mpf(1), mpf("1.7"), mpf(3)):
                    z = mpc(x, y)
                    bound = ((1 if k == 0 else 0)
                             + mpmath.factorial(k) / pi ** (k + 1)
                             * (mpf("4.01") / y) ** (k + 1) * mpmath.exp(-pi * y))
                    assert abs(cot_derivative(k, pi * z, 192).value) <= bound


def test_cot_derivative_pole():
    with pytest.raises(ValueError):
        cot_derivative(2, 0)
    with pytest.raises(ValueError):
        g_ell(1, 3)


# -- g_l -----------------------------------------------------------------------------

def test_g1_closed_form(rng):
    with mp.workprec(300):
        for _ in range(6):
            z = mpc(rng.uniform(0.1, 0.9), rng.uniform(-0.9, 0.9))
            want = pi * 1j * z / 6 * (-mpf(1) / 2 + 1 / (1 - mpmath.exp(2j * pi * z)))
            assert abs(g_ell(1, z, PREC).value - want) < mpf(2) ** -220


def test_g1_real_on_imaginary_axis_and_reflection(rng):
    # both closed forms agree: on z = i t the factor pi i z/6 is real and so
    # is 1/(1 - e^{2 pi i z}), hence g1(i t) is real; across the imaginary
    # axis g1(-conj(z)) = conj(g1(z))
    with mp.workprec(280):
        for t in ("0.2", "0.5", "1.1"):
            v = g_ell(1, mpc(0, mpf(t)), PREC).value
            assert abs(v.imag) < mpf(2) ** -230
        for _ in range(5):
            z = mpc(rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.9))
            a = g_ell(1, -mpmath.conj(z), PREC).value
            b = mpmath.conj(g_ell(1, z, PREC).value)
            assert abs(a - b) < mpf(2) ** -220


def test_g_tail_decays_with_truncation_depth():
    # sum_{l>=d} g_l(z)/N^{2l-1} shrinks like N^{1-2d}: compare depth d and d+3
    with mp.workprec(220):
        z = mpc("1.25", "0.2")
        N = 200
        def tail(d, L=10):
            return mpmath.fsum(g_ell(l, z, 200).value / mpf(N) ** (2 * l - 1)
                               for l in range(d, L))
        assert abs(tail(5)) < abs(tail(2)) * mpf(10) ** -5
        assert abs(tail(2)) < mpf(N) ** -3 * 10


# -- root-of-unity identities ---------------------------------------------------------

def test_product_of_one_minus_roots_is_k():
    with mp.workprec(200):
        for k in range(2, 51):
            for h in range(1, k):
                if gcd(h, k) != 1:
                    continue
                zeta = mpmath.exp(2j * pi * mpf(h) / k)
                prod = mpc(1)
                for j in range(1, k):
                    prod *= (1 - zeta ** j)
                assert abs(prod - k) < mpf(2) ** -160 * k


def test_reciprocal_factor_phase_identity(rng):
    # prod_{j<=m} 1/(1-zeta^j) = e^{(pi i m/2)(1 - h(m+1)/k)} prod^{-1}(h/k)_m
    with mp.workprec(300):
        for _ in range(8):
            k = rng.randint(5, 60)
            h = rng.choice([h for h in range(1, k) if gcd(h, k) == 1])
            m = rng.randint(1, k - 1)
            zeta = mpmath.exp(2j * pi * mpf(h) / k)
            lhs = mpc(1)
            for j in range(1, m + 1):
                lhs /= (1 - zeta ** j)
            sp = sine_product(h, k, m, PREC)
            rhs = (mpmath.exp(pi * 1j * m / 2 * (1 - mpf(h) * (m + 1) / k))
                   * sp.sign * mpmath.exp(-sp.logAbs.value))
            assert abs(lhs - rhs) < mpf(2) ** -200 * abs(lhs)


# -- bounds ----------------------------------------------------------------------------

def _c_of_h(h):
    return math.sqrt(h) / 2 * math.exp(math.pi ** 2 * h / 18 + 1 / 6)


def test_reciprocal_product_clausen_bound():
    # prod^{-1}(h/k)_m <= c(h) exp((k/(2 pi h)) Cl2(2 pi m h/k)), 1 <= m < k/h
    for h in range(1, 6):
        for k in range(h + 1, 151):
            if gcd(h, k) != 1:
                continue
            loginv = 0.0
            for m in range(1, (k - 1) // h + 1):
                loginv -= math.log(2 * abs(math.sin(math.pi * m * h / k)))
                cl = float(clausen(2 * pi * m * h / mpf(k), 64).value)
                bound = math.log(_c_of_h(h)) + k / (2 * math.pi * h) * cl
                assert loginv <= bound + 1e-9


def test_reciprocal_product_small_in_upper_range():
    # prod^{-1}(h/k)_m <= c(h) for k/(2h) <= m < k/h
    for h in range(1, 6):
        for k in range(h + 1, 151):
            if gcd(h, k) != 1:
                continue
            loginv = 0.0
            for m in range(1, (k - 1) // h + 1):
                loginv -= math.log(2 * abs(math.sin(math.pi * m * h / k)))
                if m * 2 * h >= k:
                    assert loginv <= math.log(_c_of_h(h)) + 1e-9


def test_exponential_moment_bound():
    # sum_l l^k e^{-c l} <= k! (2/c)^{k+1}
    for k in range(7):
        for c in (0.5, 1.0, 2.0):
            total, l = 0.0, 1
            while True:
                term = l ** k * math.exp(-c * l)
                total += term
                if l > 10 and term < 1e-18:
                    break
                l += 1
            assert total <= math.factorial(k) * (2 / c) ** (k + 1)


# -- Euler-Maclaurin machinery -----------------------------------------------------------

def test_t_l_bound_value():
    with mp.workprec(200):
        want = pi ** 3 / 2 * (1 / (2 * pi * mpmath.e))
        assert abs(t_l_bound(1, 1, 192).value - want) < mpf(2) ** -180


def test_em_remainder_below_rigorous_bound():
    for (h, k, m, L) in ((1, 97, 13, 6), (1, 200, 40, 8), (3, 101, 15, 5)):
        T = em_remainder(h, k, m, L, 192).value
        assert abs(T) <= t_l_bound(L, m, 192).value


def test_em_product_estimate_accuracy():
    # main-term estimate vs the exact product at (h,k,m) = (1,400,150):
    # relative error below e^{s W / h} / prod^{-1} with W = 0.031
    with mp.workprec(320):
        cfg = EMConfig(delta_param=0.006, W=0.031, s=400)
        est = em_product_estimate(1, 400, 150, cfg, 256).value
        sp = sine_product(1, 400, 150, 300)
        exact_inv = mpmath.exp(-sp.logAbs.value) * sp.sign
        bound = mpmath.exp(mpf(400) * mpf("0.031")) / exact_inv
        assert abs(est / exact_inv - 1) < bound
        assert abs(est / exact_inv - 1) < mpf("1e-18")


def test_em_product_estimate_validates_parameters():
    cfg = EMConfig(delta_param=0.006, W=0.05, s=400)
    with pytest.raises(ValueError, match="m <= k/"):
        em_product_estimate(1, 300, 160, cfg)
    with pytest.raises(ValueError, match="Delta s/h <= m"):
        em_product_estimate(1, 300, 1, cfg)
    with pytest.raises(ValueError, match="0 < h < k <= s"):
        em_product_estimate(1, 500, 100, cfg)
    with pytest.raises(ValueError, match="R_Delta <= s/h"):
        em_product_estimate(7, 60, 5, EMConfig(delta_param=0.006, W=0.05, s=60))


def test_r_delta_published_values():
    for d, want in ((0.0079, 51.9), (0.007, 72.6), (0.006, 130.7),
                    (0.005, 665.2), (0.00477, 11701.6)):
        assert abs(float(r_delta(d)) - want) / want < 2e-3


# -- wave sums ---------------------------------------------------------------------------

def test_wave_sum_approximates_log_product():
    # (1/k) log|prod(h/k)_m| ~ S(m;h,k)/(2 pi) within O(log^2 k / k)
    h, k, m = 3, 101, 40
    sp = sine_product(h, k, m, 192)
    lhs = float(sp.logAbs.value) / k
    rhs = float(s_wave_sum(m, h, k, 192).value) / (2 * math.pi)
    assert abs(lhs - rhs) <= math.log(k) ** 2 / k


def test_psi_envelope_with_fitted_tau():
    # Psi(h/k) <= Cl2(pi/3)/(2 pi D(h,k)) + tau log(k)/sqrt(k); tau is an
    # empirical constant, asserted to stay in a sane range on a prime sample
    cl_max = float(clausen(pi / 3, 64).value)
    tau = -math.inf
    for k in (101, 199, 307, 397):
        for h in range(1, k):
            p = float(psi(h, k, 64).value)
            env = cl_max / (2 * math.pi * minimal_pair(h, k).D)
            tau = max(tau, (p - env) * math.sqrt(k) / math.log(k))
    # the envelope already holds with a modest constant on this sample
    assert tau < 2


def test_em_config_invariant():
    EMConfig(delta_param=0.006, W=0.05)
    with pytest.raises(ValueError):
        EMConfig(delta_param=0.006, W=0.01)  # Delta log(1/Delta) > W
    with pytest.raises(ValueError):
        EMConfig(delta_param=0.02, W=0.2)

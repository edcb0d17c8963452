"""Sine products, Psi statistic, cotangent derivatives, Euler-Maclaurin.

The sine products, cotangent derivatives and g_l are held to their contracts
at the kernels every caller shares: `_sine_product`, the closed form of
`_cot_orders` that the pole series' cot table and `_g_sum` read, `_g_sweep`
and `_g_sum`, the last against the single g_l of the one before, which
stand on the derivative polynomials P_j(cot) instead.  `cot_orders` and
`g_ell` below run them with the 16 guard bits a public caller adds."""

import math
from math import gcd

import mpmath
import numpy as np
import pytest
from mpmath import mp, mpc, mpf, pi

from pfrac import sine_products
from pfrac.dilog import clausen
from pfrac.fixed import unfix
from pfrac.precision import HPReal, PrecisionLossError, tolerance
from pfrac.refdata import PSI_211, U_CONST
from pfrac.series import inv, mul
from pfrac.sequences import stirling2
from pfrac.sine_products import (SCREEN_MAX_L, _cl2_float, _cot_bits, _cot_orders, _cot_weights,
                                 _em_main_log, _g_sum, _g_sweep, _min_pair_product, _phase,
                                 _phase_bits, _sine_factors, _sine_product, em_length,
                                 em_remainder, em_remainder_scan, psi, psi_table, t_l_bound)

PREC = 256


def cot_orders(n, z, prec=PREC):
    """[cot(z), ..., cot^{(n)}(z)] from the closed form of `_cot_orders` at
    the `_cot_bits` of prec + 16 bits, with b = 1/(e^{2isz} - 1),
    s = sign Im z, formed as `_g_sum` forms it."""
    z = mpc(z)
    s = 1 if z.imag >= 0 else -1
    F = _cot_bits(prec + 16, n)
    with mp.workprec(F):
        b = 1 / (mpmath.exp(2j * s * z) - 1)
        return [unfix(*order) for order in _cot_orders(n, s, b, F)]


def g_ell(ell, z, prec=PREC):
    """g_l(z) = -(B_{2l}/(2l)!) (pi z)^{2l-1} cot^{(2l-2)}(pi z): the last entry of one g sweep."""
    with mp.workprec(prec + 16):
        return _g_sweep(ell, mpc(z))[-1]


# -- sine products ---------------------------------------------------------------

def test_empty_product_is_one():
    assert _sine_product(3, 7, 0, PREC) == 1


def test_exact_unit_factor():
    # 2 sin(pi/6) = 1
    with mp.workprec(300):
        assert abs(_sine_product(1, 6, 1, PREC) - 1) < mpf(2) ** -240


def test_full_product_closed_form(rng):
    # prod^{-1}(h/k)_{k-1} = (-1)^{(h-1)(k-1)/2} / k
    with mp.workprec(300):
        for _ in range(10):
            k = rng.randint(3, 40)
            h = rng.choice([h for h in range(1, k) if gcd(h, k) == 1])
            recip = 1 / _sine_product(h, k, k - 1, PREC)
            want = (-1) ** (((h - 1) * (k - 1)) // 2) / mpf(k)
            assert abs(recip - want) < mpf(2) ** -220


def test_phase_within_one_unit():
    # every e^{i pi M/(2k)}, M < 4k, within one unit of 2^-T in modulus
    for k in (1, 2, 3, 4, 7, 12, 97):
        for wprec in (64, 300):
            T = _phase_bits(k, wprec)
            with mp.workprec(T + 32):
                for M in range(4 * k):
                    z = mpmath.expjpi(mpf(M) / (2 * k)) * 2 ** T
                    assert abs(mpc(*_phase(k, M, T)) - z) <= 1, (k, wprec, M)


def test_sine_product_rejects_zero_factor():
    # em_remainder, the one public caller that takes (h, k, m) as given
    with pytest.raises(ValueError, match="need m <= 5, got 6"):
        em_remainder(1, 6, 6, 2)
    with pytest.raises(ValueError, match=r"need \(h, k\) = 1, got \(2, 6\)"):
        em_remainder(2, 6, 1, 2)  # not reduced


def test_em_remainder_refuses_m_zero():
    # T_L(0) has no finite value: the main term's lead is log(h/(2k sin 0))
    with pytest.raises(ValueError, match="need m >= 1, got 0"):
        em_remainder(1, 7, 0, 2, 64)


@pytest.mark.parametrize("size", [0, -3])
def test_scans_refuse_a_size_below_their_range(size):
    # refused on entry, not by a division by zero in the scan's grid or by
    # an empty table
    with pytest.raises(ValueError, match="need h >= 1"):
        em_remainder_scan(size)
    with pytest.raises(ValueError, match="need s >= 1"):
        em_remainder_scan(1, size)
    for k in (size, 1):
        with pytest.raises(ValueError, match="need k >= 2"):
            psi_table(k)


def _log_sine_factors(h, k, m, prec):
    """Oracle: (log|2 sin(pi j h/k)|, sign) for j = 1..m, one sin and one log
    per factor, with the argument reduced exactly to pi r/k, 0 < r < k."""
    with mp.workprec(prec):
        return [(mpmath.log(2 * mpmath.sin(pi * mpf((j * h) % k) / k)),
                 -1 if (j * h) // k % 2 else 1) for j in range(1, m + 1)]


def test_sine_factors_meet_precision_contract():
    # value at p bits vs the log/sin oracle at p + 64 bits, relative 2^(16-p),
    # for h near 1, k/2 and k-1: there j h/k comes within 1/k of an integer
    # (j = k-1, 2 and 1), where the factor is smallest and recurrence error
    # counts most.  The integer product kernel is held to the same contract
    # at p itself, sign exactly, on both sides of its switch to the shorter
    # complement k - 1 - m (m = 2k/3 and k - 2 walk the complement).
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
                    for m in (1, k // 2, 2 * k // 3, k - 2, k - 1):
                        want = mpmath.fsum(la for la, _ in ref[:m])
                        sign = math.prod(sg for _, sg in ref[:m])
                        prod = _sine_product(h, k, m, p)
                        assert (prod > 0) == (sign > 0)
                        assert abs(mpmath.log(abs(prod)) - want) <= tol


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


@pytest.mark.parametrize("p", [64, 128])
@pytest.mark.parametrize("k", [97, 211, 397])
def test_psi_meets_precision_contract(k, p):
    # the fixed-point walk at p bits against the same walk 128 bits higher,
    # absolute 2^(16-p), for every h
    with mp.workprec(p + 160):
        for h in range(1, k):
            if gcd(h, k) == 1:
                assert abs(psi(h, k, p).value - psi(h, k, p + 128).value) <= tolerance(p)


def test_psi_matches_an_mpf_walk():
    # reference: the mpf walk with one sin and one log per factor, at k = 97
    # for every h
    k, p = 97, 128
    with mp.workprec(p + 64):
        logs = [mpmath.log(2 * mpmath.sin(pi * r / k)) for r in range(1, k)]
        for h in range(1, k):
            acc = best = mpf(0)
            for j in range(1, k):
                acc -= logs[j * h % k - 1]
                best = max(best, acc)
            assert abs(psi(h, k, p).value - best / k) <= tolerance(p)


def test_minimal_pair_product_matches_brute_force():
    # the walk over the convergents of h/k against a generator over every
    # beta, up to a few h at k = 2797, the cap of pfrac psi
    for k in (2, 10, 97, 100, 211, 397, 2797):
        for h in range(1, k) if k < 2797 else (1, 2, 1398, 1399, 1728, 2795):
            if gcd(h, k) == 1:
                want = min(abs(b) * (b * h % k) for b in range(1 - k, k) if b)
                got = _min_pair_product(h, k)
                assert type(got) is int and got == want


def test_minimal_pair_examples():
    # D(h, k), the minimal |beta gamma| that psi_table reports
    for k in (17, 100, 211):
        assert _min_pair_product(1, k) == 1
        assert _min_pair_product(k - 1, k) == 1
    assert _min_pair_product(2, 211) == 2
    assert _min_pair_product(3, 10) == 3  # beta = 1, gamma = 3 and beta = -3, gamma = 1


# -- cotangent derivatives ----------------------------------------------------------

def test_cot_weights_match_stirling2():
    # the rows of the closed form's recurrence are a_{j,r} = (r-1)! S(j+1, r)
    # from the explicit sum of the Stirling set numbers
    rows = _cot_weights(30)
    assert len(rows) == 31
    for j, row in enumerate(rows):
        assert row == tuple(math.factorial(r - 1) * stirling2(j + 1, r) for r in range(1, j + 2))


def test_cot_derivative_first_identity(rng):
    with mp.workprec(300):
        for _ in range(8):
            z = mpc(rng.uniform(0.1, 2.9), rng.uniform(-1.5, 1.5))
            lhs = cot_orders(1, z)[1]
            assert abs(lhs + 1 + mpmath.cot(z) ** 2) < mpf(2) ** -230


def test_cot_derivative_vs_series_oracle():
    # oracle: cot(z0 + eps) = cos/sin as a ratio of shifted Taylor series,
    # differentiated termwise; the closed form gives every order <= 24 from one b
    with mp.workprec(340):
        z0 = mpc("0.7", "0.4")
        n = 25
        c0, s0 = mpmath.cos(z0), mpmath.sin(z0)
        cos_c, sin_c = [], []
        for i in range(n):
            f = mpmath.factorial(i)
            cos_c.append((c0, -s0, -c0, s0)[i % 4] / f)
            sin_c.append((s0, c0, -s0, -c0)[i % 4] / f)
        with mp.workprec(320):
            cot = mul(cos_c, inv(sin_c, n), n)
        for order in (1, 2, 3):
            want = cot[order] * mpmath.factorial(order)
            got = cot_orders(order, z0)[order]
            assert abs(got - want) < mpf(2) ** -230
        # below the real axis the closed form takes the e^{-2iz} mirror;
        # cot(conj z) = conj cot(z)
        sweep = cot_orders(n - 1, z0)
        mirror = cot_orders(n - 1, mpmath.conj(z0))
        assert len(sweep) == len(mirror) == n
        for order, (got, got_conj) in enumerate(zip(sweep, mirror)):
            want = cot[order] * mpmath.factorial(order)
            assert abs(got - want) <= tolerance(PREC) * abs(want)
            assert abs(got_conj - mpmath.conj(want)) <= tolerance(PREC) * abs(want)


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
                    assert abs(cot_orders(k, pi * z, 192)[k]) <= bound


@pytest.mark.parametrize("p", [64, 192])
def test_g_sweep_keeps_its_label_where_cot_is_near_i(p):
    # cot(pi z) is near -+i at 0.3 +- 1.2i, where 1 + c^2 divides every
    # P_j(c) with j >= 1, so P_22 cancels by tens of bits and the first
    # pass reruns; a 600-bit run of the same call is the oracle
    for z in (0.3 + 1.2j, 0.3 - 1.2j):
        got = g_ell(12, z, p)
        want = g_ell(12, z, 600)
        with mp.workprec(640):
            assert abs(got - want) <= tolerance(p) * abs(want), z


def test_g_sweep_reports_a_cancellation_to_zero():
    # at z = 1000i, cot(pi z) = -i coth(1000 pi) rounds to -i itself, so
    # P_2(c) = 2c(1 + c^2) is an exact 0 where g_2 is about e^{-2000 pi}:
    # both passes lose every bit, which is a loss of precision, not a value
    with mp.workprec(80), pytest.raises(PrecisionLossError, match="2 single terms g_l"):
        _g_sweep(2, mpc(0, 1000))


def test_cot_derivative_pole():
    # cot has its poles at the multiples of pi, so g_l at the integers z:
    # both routes to g_l refuse them before forming b or cot(pi z)
    for z in (0, 3, -2):
        with pytest.raises(ValueError, match="pole at integer z"):
            g_ell(1, z)
        with mp.workprec(64), pytest.raises(ValueError, match="pole at integer z"):
            _g_sum(2, mpc(z), 1)


# -- g_l -----------------------------------------------------------------------------

def test_g1_closed_form(rng):
    with mp.workprec(300):
        for _ in range(6):
            z = mpc(rng.uniform(0.1, 0.9), rng.uniform(-0.9, 0.9))
            want = pi * 1j * z / 6 * (-mpf(1) / 2 + 1 / (1 - mpmath.exp(2j * pi * z)))
            assert abs(g_ell(1, z) - want) < mpf(2) ** -220


def test_g1_real_on_imaginary_axis_and_reflection(rng):
    # both closed forms agree: on z = i t the factor pi i z/6 is real and so
    # is 1/(1 - e^{2 pi i z}), hence g1(i t) is real; across the imaginary
    # axis g1(-conj(z)) = conj(g1(z))
    with mp.workprec(280):
        for t in ("0.2", "0.5", "1.1"):
            v = g_ell(1, mpc(0, mpf(t)))
            assert abs(v.imag) < mpf(2) ** -230
        for _ in range(5):
            z = mpc(rng.uniform(0.05, 0.9), rng.uniform(0.05, 0.9))
            a = g_ell(1, -mpmath.conj(z))
            b = mpmath.conj(g_ell(1, z))
            assert abs(a - b) < mpf(2) ** -220


def test_g_tail_decays_with_truncation_depth():
    # sum_{l>=d} g_l(z)/N^{2l-1} shrinks like N^{1-2d}: compare depth d and d+3
    with mp.workprec(220):
        z = mpc("1.25", "0.2")
        N = 200
        def tail(d, L=10):
            return mpmath.fsum(g_ell(l, z, 200) / mpf(N) ** (2 * l - 1)
                               for l in range(d, L))
        assert abs(tail(5)) < abs(tail(2)) * mpf(10) ** -5
        assert abs(tail(2)) < mpf(N) ** -3 * 10


def _g_sum_oracle(lmax, z, n, prec):
    """sum_{l<=lmax} g_l(z)/n^{2l-1} summed in mpmath from `_g_sweep`'s
    single g_l at prec + 64 bits."""
    with mp.workprec(prec + 64):
        return mpmath.fsum(g / mpf(n) ** (2 * ell - 1)
                           for ell, g in enumerate(_g_sweep(lmax, mpc(z)), 1))


@pytest.mark.parametrize("p", [64, 216])
def test_g_sum_matches_the_sum_of_single_g(p):
    # on the contour of a3_quadrature at the N and L of v, with and without
    # the caller's e^{2 pi i z}, off the contour, where the sum cancels by
    # 67 and 80 bits and reruns (0.3 -+ 1.2i at n = 2 and 1), and at real
    # m theta for the main term of T_L, with m = 1 taking w^{2l-1} far below 1
    from pfrac.asymptotics import saddle_path
    verts = saddle_path(p)
    points = [(verts[e] + (verts[e + 1] - verts[e]) * mpf(t), N, em_length(0.006, N, 1) - 1)
              for N in (131, 219, 449) for e in range(3) for t in ("0.02", "0.5", "0.97")]
    points += [(mpc("0.3", "-1.2"), 2, 12), (mpc("0.3", "1.2"), 1, 12)]
    points += [(mpf(m * h) / k, m, L) for h, k, m, L in
               ((1, 211, 30, 24), (1, 400, 1, 24), (3, 500, 80, 9), (1, 211, 105, 11))]
    for z, n, lmax in points:
        want = _g_sum_oracle(lmax, z, n, p)
        with mp.workprec(p):
            got = [_g_sum(lmax, z, n)]
            if z.imag:
                got.append(_g_sum(lmax, z, n, mpmath.exp(2j * pi * z)))
        with mp.workprec(p + 64):
            for value in got:
                assert abs(value - want) <= tolerance(p) * abs(want), (z, n, lmax)


# -- root-of-unity identities ---------------------------------------------------------

def test_product_of_one_minus_roots_is_k():
    # prod_{j<k} (1 - zeta^j) = k for zeta = e^{2 pi i h/k}, in the signed
    # sines of the recurrence: the full-period product of _sine_factors is
    # (-1)^{(h-1)(k-1)/2} k, the identity _sine_product's complement walk
    # rests on
    p = 200
    for k in range(2, 51):
        for h in range(1, k):
            if gcd(h, k) != 1:
                continue
            with mp.workprec(p + 16):
                prod = mpmath.fprod(_sine_factors(h, k, k - 1, p))
            assert abs(prod - (-1) ** ((h - 1) * (k - 1) // 2) * k) <= tolerance(p) * k, (h, k)


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
            rhs = (mpmath.exp(pi * 1j * m / 2 * (1 - mpf(h) * (m + 1) / k))
                   / _sine_product(h, k, m, PREC))
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


def test_cl2_float_matches_clausen():
    # the screen's float64 Clausen series against the arbitrary-precision
    # one on a grid over (0, pi], where the screen evaluates it
    thetas = [pi * mpf(j) / 96 for j in range(1, 97)]
    got = _cl2_float(np.array([float(t) for t in thetas]))
    want = [float(clausen(t, 64).value) for t in thetas]
    assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps


def test_reciprocal_product_small_in_upper_range():
    # prod^{-1}(h/k)_m <= c(h) for k/(2h) <= m < k/h: a float64 check of
    # the paper's lemma itself, which has no pfrac route, since pfrac
    # evaluates these products (_sine_product) but never bounds them by c(h)
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
    # sum_l l^k e^{-c l} <= k! (2/c)^{k+1}: a float64 check of an
    # elementary bound, which has no pfrac route, since pfrac sums no such
    # moment
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


@pytest.mark.parametrize("p", [128, 256])
def test_em_remainder_keeps_its_label_through_cancellation(p):
    # log|prod| = -31.1 and T_L = 1.2e-51 at (1, 211, 30, 25): the difference
    # cancels about 174 bits; the 400-bit value is the oracle
    got = em_remainder(1, 211, 30, 25, p)
    want = em_remainder(1, 211, 30, 25, 400).value
    assert got.precision == p
    with mp.workprec(600):
        assert abs(got.value - want) <= tolerance(p) * abs(want)
        assert abs(want - mpf("1.197269039691e-51")) < mpf("1e-62")


@pytest.mark.parametrize("k", [10, 212])
def test_em_remainder_is_zero_where_m_theta_is_one_half(k):
    # at 2hm = k (so h = 1) T_L is an exact 0: |prod_{j<=k/2} 2 sin(pi j/k)|
    # = sqrt(2k) cancels the main term's (1/2) log(1/(2k)), Clausen's
    # integral vanishes at pi, and so does the sum over g_l at every real
    # half-integer, where no relative check could pass
    for L in (1, 3, 25):
        assert em_remainder(1, k, k // 2, L, 64) == HPReal(mpf(0), 64)
    with mp.workprec(256):
        lp = mpmath.log(_sine_product(1, k, k // 2, 256))
        main = mpmath.log(mpf(1) / (2 * k)) / 2 + k / (2 * pi) * clausen(pi, 256).value
        assert abs(lp + main) < mpf(2) ** -230
    with mp.workprec(64):
        for z in (mpf(k // 2) / k, mpf(-5) / 2, mpc(7, 0) / 2):
            assert _g_sum(12, z, k // 2) == 0
        with pytest.raises(ValueError, match="pole at integer z"):
            _g_sum(12, mpf(3), k // 2)


@pytest.mark.parametrize("lmax, z", [(12, mpc("-0.3", -5)), (16, mpc("-0.3", -10))])
def test_g_sum_rerun_reads_past_a_saturated_measure(lmax, z):
    # at 64 bits the first pass's cancellation figure reaches its own
    # fraction bits (110 of a true 128 bits at lmax = 12, 117 of 215 at
    # lmax = 16), so the rerun also takes the bits the figure could not
    # see; the same call at p + 200 bits is the oracle
    p = 64
    with mp.workprec(p + 200):
        want = _g_sum(lmax, z, 1)
    with mp.workprec(p):
        got = _g_sum(lmax, z, 1)
    with mp.workprec(p + 200):
        assert abs(got - want) <= tolerance(p) * abs(want)


def test_em_remainder_below_rigorous_bound():
    # t_l_bound is the oracle that bounds em_remainder, the scan's recheck route
    for (h, k, m, L) in ((1, 97, 13, 6), (1, 200, 40, 8), (3, 101, 15, 5)):
        T = em_remainder(h, k, m, L, 192).value
        assert abs(T) <= t_l_bound(L, m, 192).value


def test_em_product_estimate_accuracy():
    # the main term behind em_remainder, exp(_em_main_log), estimates the
    # reciprocal product at (h,k,m) = (1,400,150), L = em_length(0.006, 400, 1):
    # relative error below e^{s W / h} / prod^{-1} with W = 0.031
    with mp.workprec(320):
        est = mpmath.exp(_em_main_log(1, 400, 150, em_length(0.006, 400, 1), 256))
        exact_inv = 1 / _sine_product(1, 400, 150, 300)
        bound = mpmath.exp(mpf(400) * mpf("0.031")) / exact_inv
        assert abs(est / exact_inv - 1) < bound
        assert abs(est / exact_inv - 1) < mpf("1e-18")


def test_em_length_on_the_inputs_in_use():
    # the scan defaults, the 0.0079 edge, and v(z; N, sigma) at Delta = 0.006
    assert [em_length(0.006, 500, h) for h in (1, 3)] == [25, 8]
    assert em_length(0.0079, 500, 1) == 33
    assert [em_length(0.006, N, 1) for N in (131, 200, 249, 1000)] == [6, 10, 12, 51]


def test_delta_is_checked_at_every_entry_point():
    # em_remainder_scan is the one entry point that takes Delta
    with pytest.raises(ValueError, match=r"Delta must lie in \[0.00477, 0.0079\]"):
        em_remainder_scan(1, 100, 0.0045)


def test_em_remainder_scan_with_long_truncation():
    # L = 33 > 26 needs cotangent derivatives beyond order 50; m_lo = ceil(0.0079 * 500)
    L, m_lo = em_length(0.0079, 500, 1), 4
    pt, tmax = em_remainder_scan(1, 500, 0.0079)
    assert L == 33 and pt > 0
    assert tmax <= float(t_l_bound(L, m_lo, 64).value)


@pytest.mark.parametrize("args, want", [
    ((1, 500, 0.006), (144.73369375319896, 0.0017230999997561725)),
    ((3, 500, 0.006), (0.13335273022658856, 0.005026981793122776)),
    ((1, 500, 0.0079), (875.3527532609695, 0.0005237789880467858)),
])
def test_em_remainder_scan_floats_are_pinned(args, want):
    # both floats bit for bit; no step of the block screen (masked lanes
    # included) may overflow, divide by zero, underflow or meet an invalid
    # operation
    with np.errstate(all="raise"):
        assert em_remainder_scan(*args) == want


@pytest.mark.parametrize("block", [1, 10 ** 6])
def test_em_remainder_scan_does_not_depend_on_its_blocks(monkeypatch, block):
    # one k per block, and the whole grid in one block
    monkeypatch.setattr(sine_products, "_SCREEN_BLOCK", block)
    assert em_remainder_scan(3, 500, 0.006) == (0.13335273022658856, 0.005026981793122776)


def test_em_remainder_scan_refuses_what_float64_cannot_hold(monkeypatch):
    # Horner's P_j(cot x), j = 2L - 2, at the smallest grid point x = pi 0.00477
    # stays finite up to SCREEN_MAX_L and overflows one step later
    c = 1 / math.tan(math.pi * 0.00477)
    with np.errstate(over="ignore"):
        for L in (SCREEN_MAX_L, SCREEN_MAX_L + 1):
            acc = np.float64(0)
            for coef in np.array(sine_products._cot_polynomials(2 * L - 2)[-1], dtype=float)[::-1]:
                acc = acc * c + coef
            assert np.isfinite(acc) == (L == SCREEN_MAX_L)
    # L = 51 raises before the scan reads its first polynomial
    monkeypatch.setattr(sine_products, "_cot_polynomials", None)
    with pytest.raises(ValueError, match=f"need L <= {SCREEN_MAX_L}, got 51"):
        em_remainder_scan(1, 1000)


@pytest.mark.parametrize("screen", ["float64", "recheck every pair"])
def test_em_remainder_scan_matches_brute_force(monkeypatch, screen):
    # brute force over the whole grid (Delta s/h = 0.2, so m starts at 1) at
    # 192 bits; with the roundoff estimate raised, the screen trusts no pair
    # and every maximum comes from em_remainder's route, which forms each
    # recheck's sine product once (no pair here reruns past its cancellation)
    h, s, delta = 3, 100, 0.006
    L = em_length(delta, s, h)
    rechecks, products = [], []
    sine_product = sine_products._sine_product
    checked = sine_products._em_checked
    monkeypatch.setattr(sine_products, "_em_checked",
                        lambda *args: rechecks.append(args) or checked(*args))
    monkeypatch.setattr(sine_products, "_sine_product",
                        lambda *args: products.append(args) or sine_product(*args))
    if screen != "float64":
        monkeypatch.setattr(sine_products, "SCREEN_ROUNDOFF", 1.0)
    pt, tmax = em_remainder_scan(h, s, delta)
    assert (len(rechecks) > 0) == (screen != "float64")
    assert len(products) == len(rechecks)
    want_pt = want_t = mpf(0)
    for k in range(2, s + 1):
        if gcd(h, k) != 1:
            continue
        for m in range(1, k // (2 * h) + 1):
            T = abs(em_remainder(h, k, m, L, 192).value)
            with mp.workprec(208):
                lp = mpmath.log(abs(_sine_product(h, k, m, 208)))
            want_pt, want_t = max(want_pt, mpmath.exp(-lp) * T), max(want_t, T)
    assert abs(pt - want_pt) <= 1e-12 * want_pt
    assert abs(tmax - want_t) <= 1e-12 * want_t


def test_psi_envelope_with_fitted_tau():
    # Psi(h/k) <= Cl2(pi/3)/(2 pi D(h,k)) + tau log(k)/sqrt(k); tau is an
    # empirical constant, asserted to stay in a sane range on a prime sample
    cl_max = float(clausen(pi / 3, 64).value)
    tau = -math.inf
    for k in (101, 199, 307, 397):
        for h in range(1, k):
            p = float(psi(h, k, 64).value)
            env = cl_max / (2 * math.pi * _min_pair_product(h, k))
            tau = max(tau, (p - env) * math.sqrt(k) / math.log(k))
    # the envelope already holds with a modest constant on this sample
    assert tau < 2


"""Farey poles, residues, conversions, family sums, and the Laurent oracle."""

import hashlib
import math
import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd

import mpmath
import pytest
from mpmath import mp, mpc, mpf, pi

from pfrac import laurent, residues, sine_products
from pfrac.asymptotics import (_clenshaw_curtis, a3_quadrature, b_coeffs, evaluate_expansion,
                               path_positivity_check, u_weight, vstar_weight)
from pfrac.cli import IDENTITY_SIGMA_MAX
from pfrac.dilog import find_saddle, find_zero
from pfrac.fixed import man_exp
from pfrac.precision import GUARD_BITS, PrecisionLossError, set_default_precision, tolerance
from pfrac.residues import (P_RESTRICTED_MAX_N, FamilySelector, FareyFraction, _laurent_core,
                            a1_sum, c01l_exact, c_from_q, family_sum, farey, p_restricted,
                            principal_part, q01_exact, q_general, reconstruct_product,
                            residue_report, residue_sum)
from pfrac.sequences import bernoulli_over_factorial_fraction, bernoulli_table, stirling2
from pfrac.series import exp

PREC = 256


# -- Farey enumeration ------------------------------------------------------------

def test_farey_small():
    assert [(f.h, f.k) for f in farey(1)] == [(0, 1)]
    assert [(f.h, f.k) for f in farey(3)] == [(0, 1), (1, 3), (1, 2), (2, 3)]


def test_farey_count_totient_oracle():
    # |farey(N)| over [0, 1) equals sum_{k<=N} phi(k); sieve oracle
    N = 100
    phi = list(range(N + 1))
    for p in range(2, N + 1):
        if phi[p] == p:  # prime
            for mult in range(p, N + 1, p):
                phi[mult] -= phi[mult] // p
    assert len(farey(N)) == sum(phi[1:]) == 3044


def test_farey_sorted_reduced():
    fr = farey(30)
    assert all(gcd(f.h, f.k) == 1 for f in fr)
    vals = [mpf(f.h) / f.k for f in fr]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_farey_fraction_validation():
    with pytest.raises(ValueError):
        FareyFraction(2, 4)
    with pytest.raises(ValueError):
        FareyFraction(3, 3)


def test_farey_matches_the_validated_construction():
    # farey skips FareyFraction's checks, so each N <= 40 is held to the
    # checked fractions of every reduced h/k in [0, 1), sorted; the checks
    # still refuse a fraction from outside
    for N in range(1, 41):
        want = sorted((FareyFraction(h, k) for k in range(1, N + 1) for h in range(k)
                       if gcd(h, k) == 1), key=lambda f: Fraction(f.h, f.k))
        assert farey(N) == want, N
    for h, k in ((2, 4), (1, 0)):
        with pytest.raises(ValueError):
            FareyFraction(h, k)


# -- restricted partitions -----------------------------------------------------------

def _partitions_brute(N, n):
    """Enumerate partitions of n with at most N parts."""
    def rec(remaining, parts_left, max_part):
        if remaining == 0:
            return 1
        if parts_left == 0:
            return 0
        return sum(rec(remaining - p, parts_left - 1, p)
                   for p in range(min(remaining, max_part), 0, -1))
    return rec(n, N, n)


def test_p_restricted_examples():
    assert p_restricted(17, 0) == 1
    assert p_restricted(2, 4) == 3
    assert p_restricted(5, 5) == 7
    assert p_restricted(6, 4) == 5
    for N in range(7):
        for n in range(9):
            assert p_restricted(N, n) == _partitions_brute(N, n)
    # p_N(n) = p(n) once N >= n
    assert p_restricted(30, 30) == p_restricted(60, 30)


def test_p_restricted_refuses_n_beyond_its_cap():
    with pytest.raises(ValueError, match=f"need n <= {P_RESTRICTED_MAX_N}, got"):
        p_restricted(3, P_RESTRICTED_MAX_N + 1)


# -- simple and general residues --------------------------------------------------------

def _q_simple(h, k, sigma, N, prec=PREC):
    """Q_{h k sigma}(N) at a simple pole by the closed form alone, in plain
    mpmath (no fixed point, no sine-product kernel):
    ((-1)^{k+1}/k^2) e^{-pi i h (N^2+N-4 sigma)/(2k)} e^{(pi i/2)(2Nh+N+h+k-hk)}
    / prod_{j<=N-k} 2 sin(pi j h/k)."""
    with mp.workprec(prec + 32):
        phase = mpmath.exp(1j * pi * (mpf(-h * (N * N + N - 4 * sigma)) / (2 * k)
                                      + mpf(2 * N * h + N + h + k - h * k) / 2))
        return (-1) ** (k + 1) * phase / (k * k * _mp_sine_product(h, k, N - k, prec + 32))


@lru_cache(maxsize=None)
def _mp_sine_product(h, k, m, wp):
    """prod_{j<=m} 2 sin(pi j h/k) by mpmath's sin at wp bits; shared by
    every sigma of the pole."""
    with mp.workprec(wp):
        return mpmath.fprod(2 * mpmath.sin(pi * j * h / k) for j in range(1, m + 1))


def test_q_simple_at_k_equals_n():
    # at k = N the sine product is empty and the phase unimodular, so
    # |Q_{1 N sigma}(N)| = 1/N^2
    with mp.workprec(300):
        for N in (5, 9, 14):
            v = q_general(1, N, 3, N, PREC).value
            assert abs(abs(v) - mpf(1) / N ** 2) < mpf(2) ** -240


def test_q_simple_conjugate_pair(rng):
    # Q_{(k-h) k sigma} = conj Q_{h k sigma} for an integer sigma, the
    # identity _folded rests on, from two independent q_general calls
    with mp.workprec(300):
        for _ in range(8):
            N = rng.randint(6, 40)
            k = rng.randint(N // 2 + 1, N)
            sigma = rng.randint(-3, 5)
            h = rng.choice([h for h in range(1, k) if gcd(h, k) == 1])
            a = q_general(h, k, sigma, N, PREC).value
            b = q_general(k - h, k, sigma, N, PREC).value
            assert abs(b - mpmath.conj(a)) <= 2 * tolerance(PREC) * abs(a)


def test_q_simple_matches_q_general():
    with mp.workprec(300):
        assert abs(_q_simple(1, 7, 1, 9)
                   - q_general(1, 7, 1, 9, PREC).value) < mpf(2) ** -230
        for N in range(4, 21):
            for k in range(N // 2 + 1, N + 1):
                for h in (1, k - 1):
                    if not (1 <= h < k) or gcd(h, k) != 1:
                        continue
                    d = abs(_q_simple(h, k, 2, N)
                            - q_general(h, k, 2, N, PREC).value)
                    assert d < mpf(2) ** -220


def test_q_general_against_contour_oracle():
    # independent oracle: numerical contour integral around the pole
    with mp.workprec(320):
        def brute(h, k, sigma, N, rho=mpf("0.004"), M=256):
            a = mpf(h) / k
            tot = mpc(0)
            for m in range(M):
                z = a + rho * mpmath.exp(2j * pi * mpf(m) / M)
                den = mpc(1)
                for j in range(1, N + 1):
                    den *= (1 - mpmath.exp(2j * pi * j * z))
                tot += mpmath.exp(2j * pi * sigma * z) / den * (z - a)
            return 2j * pi * tot / M

        for (h, k, sigma, N) in ((0, 1, 1, 5), (1, 2, 1, 5), (1, 3, -2, 7),
                                 (2, 5, 3, 11), (1, 2, 2, 8)):
            got = q_general(h, k, sigma, N, PREC).value
            want = brute(h, k, sigma, N)
            assert abs(got - want) < mpf("1e-40")


def test_q01_real():
    with mp.workprec(280):
        for (N, sigma) in ((6, 1), (9, 3), (12, -2)):
            v = q_general(0, 1, sigma, N, PREC).value
            assert abs(v.imag) < mpf(2) ** -200 * (1 + abs(v.real))


def test_reflection_symmetry(rng):
    # Q_{h k (M - sigma)}(N) = (-1)^{N+1} Q_{(k-h) k sigma}(N), M = N(N+1)/2
    with mp.workprec(300):
        for _ in range(10):
            N = rng.randint(3, 16)
            fr = rng.choice(farey(N)[1:])
            sigma = rng.randint(-2, 6)
            M = N * (N + 1) // 2
            lhs = q_general(fr.h, fr.k, M - sigma, N, PREC).value
            rhs = ((-1) ** (N + 1)
                   * q_general((fr.k - fr.h) % fr.k, fr.k, sigma, N, PREC).value)
            assert abs(lhs - rhs) < mpf(2) ** -200 * (1 + abs(lhs))


def test_conjugation_through_double_poles(rng):
    # Q_{(k-h) k sigma} = conj(Q_{h k sigma}) for integer sigma
    with mp.workprec(300):
        for N in (11, 19, 30):
            for fr in farey(N):
                if fr.h == 0 or 2 * fr.h == fr.k:
                    continue
                if fr.k < N / 3:
                    continue  # keep to simple and double poles
                a = q_general(fr.h, fr.k, 2, N, PREC).value
                b = q_general(fr.k - fr.h, fr.k, 2, N, PREC).value
                assert abs(b - mpmath.conj(a)) < mpf(2) ** -190 * (1 + abs(a))


def test_residue_sum_examples():
    with mp.workprec(300):
        assert abs(residue_sum(6, 1, PREC).value) < mpf("1e-20")
        # DP oracle: p_6(4) = 5 (partitions 4, 3+1, 2+2, 2+1+1, 1+1+1+1)
        assert abs(residue_sum(6, -4, PREC).value + 5) < mpf("1e-20")
        assert abs(residue_sum(5, 15, PREC).value + 1) < mpf("1e-20")


@pytest.mark.parametrize("sigma", [-3, 0, 2, "M"])
def test_folded_residue_sum_matches_explicit_sum(sigma):
    # residue_sum sums only 2h <= k through conjugation
    p = PREC
    for N in range(1, 13):
        s = N * (N + 1) // 2 if sigma == "M" else sigma
        with mp.workprec(p + 32):
            qs = [q_general(f.h, f.k, s, N, p + 32).value for f in farey(N)]
            want = mpmath.fsum(qs)
            tol = mpf(2) ** (16 - p) * (1 + mpmath.fsum(abs(q) for q in qs))
            got = residue_sum(N, s, p).value
            assert abs(got.real - want.real) < tol
            assert abs(got.imag - want.imag) < tol


def test_q_general_precision_contract_at_every_pole_up_to_n_26():
    # each Q at p bits agrees with the same call at p + 128 bits within
    # 2^(16-p) |Q|; at the simple poles the closed form _q_simple is a second,
    # independent route (mpmath sines and one exp, no pole inverse)
    p = PREC
    for N in range(1, 27):
        M = N * (N + 1) // 2
        for f in farey(N):
            for sigma in (-7, 0, 1, 3, M + 2):
                got = q_general(f.h, f.k, sigma, N, p)
                assert got.precision == p
                with mp.workprec(p + 160):
                    want = q_general(f.h, f.k, sigma, N, p + 128).value
                    tol = mpf(2) ** (16 - p) * abs(want)
                    assert abs(got.value - want) <= tol, (f, N, sigma)
                    if 2 * f.k > N:
                        assert abs(_q_simple(f.h, f.k, sigma, N, p) - want) <= tol


@pytest.mark.parametrize("N", [5, 12, 26])
def test_q_general_precision_contract_at_the_sigma_edges(N):
    # sigma at the CLI cap: each call agrees with p + 128 bits within
    # 2^(16-p) |Q| or raises
    p = PREC
    for f in farey(N):
        for sigma in (IDENTITY_SIGMA_MAX, -IDENTITY_SIGMA_MAX):
            try:
                got = q_general(f.h, f.k, sigma, N, p)
            except PrecisionLossError:
                continue
            with mp.workprec(p + 160):
                want = q_general(f.h, f.k, sigma, N, p + 128).value
                assert abs(got.value - want) <= mpf(2) ** (16 - p) * abs(want), (f, sigma)


def test_pole_inverse_is_even_at_0_and_1_2():
    # R(t) is even at 0/1 and 1/2, so the polynomial in sigma' = sigma - N(N+1)/4
    # has exact integer zeros wherever s - 1 - i is odd, and the reflection
    # sigma -> N(N+1)/2 - sigma (sigma' -> -sigma') holds bit for bit at 0/1
    for N in range(1, 27):
        for h, k in ((0, 1), (1, 2)):
            if k > N:
                continue
            s = N // k
            re, im, _ = residues._pole_inverse(h, k, N, residues._work_prec(PREC, s, N))
            for i in range(s):
                if (s - 1 - i) % 2:
                    assert re[i] == im[i] == 0, (h, k, N, i)
                else:
                    assert re[i] or im[i], (h, k, N, i)
        M = N * (N + 1) // 2
        for sigma in (-7, 0, 1, 3):
            got = q_general(0, 1, M - sigma, N, PREC).value
            with mp.workprec(4 * PREC):  # the sign flip is exact
                assert got == (-1) ** (N + 1) * q_general(0, 1, sigma, N, PREC).value, (N, sigma)


def test_sigma_sums_cancel_by_under_32_bits():
    # log2(largest term / |sum|) of _q_fixed's sum over the centred polynomial
    # at every pole with N <= 26, sigma strided over [-2N, N(N+1)/2 + 2N];
    # an exact zero of Q has every term an exact zero
    for N in range(1, 27):
        M = N * (N + 1) // 2
        for f in farey(N):
            s = N // f.k
            re, im, _ = residues._pole_inverse(f.h, f.k, N, residues._work_prec(PREC, s, N))
            for sigma in range(-2 * N, M + 2 * N + 1, max(1, N // 3)):
                p, _ = residues._sigma_powers(sigma, s, N)
                # sigma'^i d_i, every term on one exponent
                terms = [(x * a, x * b) for x, a, b in zip(p, re, im)]
                largest = max(abs(x) + abs(y) for x, y in terms)
                size = max(abs(sum(x for x, _ in terms)), abs(sum(y for _, y in terms)))
                if not size:
                    assert not largest, (f, N, sigma)
                    continue
                assert math.log2(largest) - math.log2(size) < 32, (f, N, sigma)


def test_warm_integer_sigma_calls_no_elementary_function(monkeypatch):
    # with the pole's coefficients and phases cached, an integer sigma
    # costs integer arithmetic and one conversion, in q_general and residue_sum
    h, k, sigma, N, p = 2, 7, -5, 20, PREC
    want = q_general(h, k, sigma, N, p).value
    want_sum = residue_sum(N, sigma, p).value

    def refuse(*args, **kwargs):
        raise AssertionError("elementary function on the warm path")

    for name in ("exp", "expjpi", "log"):
        monkeypatch.setattr(mpmath, name, refuse)
        monkeypatch.setattr(mp, name, refuse)
    assert q_general(h, k, sigma, N, p).value == want
    assert residue_sum(N, sigma, p).value == want_sum


def test_simple_pole_families_take_one_expjpi_per_k(monkeypatch):
    # families A and D at an integer sigma: one e^{i pi/(2k)} per k serves
    # both h of the pair, their phases and their sine step; no exp, log, sin
    # or cos anywhere in the sum.  The next sigma of the same family reads
    # the cached pole inverses and phase units: no sine product and no expjpi
    N, sigma, p = 203, 1, PREC
    calls, products = [], []
    expjpi, sine_product = mpmath.expjpi, residues._sine_product

    def counting(x, **kwargs):
        calls.append(x)
        return expjpi(x, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("elementary function in a simple-pole family sum")

    monkeypatch.setattr(mpmath, "expjpi", counting)
    monkeypatch.setattr(residues, "_sine_product",
                        lambda *args: products.append(args) or sine_product(*args))
    for name in ("exp", "log", "sin", "cos"):
        monkeypatch.setattr(mpmath, name, refuse)
        monkeypatch.setattr(mp, name, refuse)
    for tag in ("A", "D"):
        sel = FamilySelector(tag, N)
        for cache in (residues._pole_inverse, sine_products._phase, sine_products._phase_squares):
            cache.cache_clear()
        calls.clear()
        family_sum(sel, sigma, p)
        assert len(calls) <= len({f.k for f in sel.fractions()}), tag
        calls.clear()
        products.clear()
        family_sum(sel, sigma + 1, p)
        assert not calls and not products, tag


def test_q_general_escalates_then_gives_up(monkeypatch):
    import pfrac.residues as residues
    h, k, sigma, N, p = 1, 3, 2, 11, PREC
    want = q_general(h, k, sigma, N, p).value
    asked = []
    pole_inverse = residues._pole_inverse

    def recording(*args):
        asked.append(args[-1])
        return pole_inverse(*args)

    monkeypatch.setattr(residues, "_pole_inverse", recording)
    # a starved first build reruns once, sized by its measured shortfall
    # (44 + GUARD_BITS bits past 216, where doubling would ask for 432);
    # from 8 bits the one rerun lands on the same width
    for start in (p - 40, 8):
        monkeypatch.setattr(residues, "_work_prec", lambda prec, s, N: start)
        asked.clear()
        got = q_general(h, k, sigma, N, p).value
        assert asked == [start, 276]
        with mp.workprec(p + 32):
            assert abs(got - want) < mpf(2) ** (16 - p) * abs(want)

    # a kernel whose terms cancel by more than its working precision at any
    # width: the rerun is short too, and the monitor gives up after it
    monkeypatch.undo()
    powers, _ = residues._sigma_powers(sigma, N // k, N)

    def cancelling(h, k, N, wprec):
        asked.append(wprec)
        re, im, E = pole_inverse(h, k, N, wprec)
        c = max(map(abs, re)) << wprec
        return (re[0] + c * powers[1], re[1] - c * powers[0], *re[2:]), im, E

    monkeypatch.setattr(residues, "_pole_inverse", cancelling)
    asked.clear()
    with pytest.raises(PrecisionLossError, match="residue at 1/3 fell"):
        q_general(h, k, sigma, N, p)
    assert len(asked) == 2 and asked[1] > asked[0]


# -- conversions -------------------------------------------------------------------------

def test_c_from_q_first_order():
    with mp.workprec(280):
        for (h, k, N) in ((0, 1, 6), (1, 3, 7), (1, 2, 9)):
            assert abs(c_from_q(h, k, 1, N, PREC).value
                       - q_general(h, k, 1, N, PREC).value) < mpf(2) ** -200


def test_conversion_round_trip(rng):
    # c_from_q inverted: Q_{h k sigma} = sum_{ell<=sigma} C(sigma-1, ell-1) zeta^{sigma-ell} C_{h k ell}
    with mp.workprec(300):
        for _ in range(8):
            N = rng.randint(4, 14)
            fr = rng.choice(farey(N))
            sigma = rng.randint(1, max(1, N // fr.k))
            direct = q_general(fr.h, fr.k, sigma, N, PREC).value
            zeta = mpmath.exp(2j * pi * mpf(fr.h) / fr.k)
            via = mpmath.fsum(comb(sigma - 1, ell - 1) * zeta ** (sigma - ell)
                              * c_from_q(fr.h, fr.k, ell, N, PREC + 32).value
                              for ell in range(1, sigma + 1))
            assert abs(direct - via) < mpf(2) ** -200 * (1 + abs(direct))


def test_principal_part_matches_c_from_q():
    with mp.workprec(300):
        for (h, k, N) in ((0, 1, 7), (1, 2, 9), (2, 5, 12)):
            part = principal_part(h, k, N, PREC)
            assert len(part) == N // k
            for ell, c in enumerate(part, 1):
                assert abs(c.value - c_from_q(h, k, ell, N, PREC).value) < mpf(2) ** -230


@pytest.mark.parametrize("call, p", [
    (lambda p: principal_part(2, 3, 120, p), 256),
    (lambda p: principal_part(1, 5, 100, p), 128),
    (lambda p: [c_from_q(1, 3, 67, 201, p)], 64),
], ids=["principal_part-2/3-N120", "principal_part-1/5-N100", "c_from_q-1/3-ell67-N201"])
def test_c_keeps_its_label_at_higher_order_poles(call, p):
    # the binomial transform Q -> C cancels by about (ell - 1) log2(N^2/4)
    # bits; each C is one rotated sum that _q_fixed's monitor measures, so
    # every order agrees with the same call at p + 128 to 2^(16-p) relative
    got, ref = call(p), call(p + 128)
    assert len(got) == len(ref)
    with mp.workprec(p + 256):
        for ell, (c, d) in enumerate(zip(got, ref), 1):
            assert abs(c.value - d.value) <= mpf(2) ** (16 - p) * abs(d.value), ell


def test_c_vanishes_exactly_past_the_pole_order():
    # 1/3 is a pole of order 3 at N = 10: the differences of order ell - 1 of
    # a polynomial of degree 2 are exact zeros for ell > 3
    assert c_from_q(1, 3, 3, 10, 64).value != 0
    for ell in (4, 5, 9):
        assert c_from_q(1, 3, ell, 10, 64).value == 0, ell


def test_principal_part_refuses_a_pole_beyond_N():
    # 1/3 is no pole at N = 2: the same ValueError as q_general and c_from_q;
    # and the expansion is not evaluated on a pole (q = 1 and -1 at N = 3)
    for call in (lambda: principal_part(1, 3, 2), lambda: q_general(1, 3, 1, 2),
                 lambda: c_from_q(1, 3, 1, 2)):
        with pytest.raises(ValueError, match="need k <= 2, got 3"):
            call()
    for q, pole in ((1, "0/1"), (-1, "1/2")):
        with pytest.raises(ValueError, match=f"lies on the pole e\\^\\(2 pi i {pole}\\)"):
            reconstruct_product(3, q)


def test_c011_of_one():
    # 1/(1-q) = -1/(q-1): single-factor decomposition
    assert abs(c01l_exact(1, 1, 128).value + 1) < mpf(2) ** -100


# -- the dominant sums ----------------------------------------------------------------------

def test_a1_sum_published_values():
    assert abs(a1_sum(200, 1, 420).value - mpf("-32.4692")) < mpf("5e-4")
    v = a1_sum(400, 1, 420).value
    assert abs(v / mpf("2.16712e7") - 1) < mpf("1e-5")


def test_family_a_equals_a1_sum():
    with mp.workprec(280):
        for N in (37, 100, 150):
            fa = family_sum(FamilySelector("A", N), 1, PREC).value
            assert abs(fa - a1_sum(N, 1, 420).value) < mpf(2) ** -200 * (1 + abs(fa))


def test_family_sum_matches_unshared_residues():
    # the fold (one evaluation per conjugate pair, 2 Re Q added exactly)
    # against q_general on every member, both of each pair, summed by fsum
    with mp.workprec(300):
        for tag, N in (("A", 2), ("A", 3), ("A", 40), ("C", 41), ("D", 41), ("D", 60)):
            sel = FamilySelector(tag, N)
            want = mpmath.fsum(q_general(f.h, f.k, 1, N, PREC).value for f in sel.fractions())
            got = family_sum(sel, 1, PREC).value
            assert abs(got - want) < mpf(2) ** (16 - PREC) * (1 + abs(want))


@pytest.mark.parametrize("call, p", [(lambda p: a1_sum(1000, 1, p), 420),
                                     (lambda p: a1_sum(400, 2, p), 420),
                                     (lambda p: family_sum(FamilySelector("D", 1001), 1, p), 256)],
                         ids=["a1_sum-1000-1", "a1_sum-400-2", "family_D-1001-1"])
def test_dominant_sums_keep_their_label(call, p):
    # each sum at p bits agrees with the same call at p + 128 bits to
    # p - 16 bits; the cross-pole cancellation grows with N, by about 0.1 N
    # bits in family A and 0.05 N in family D
    got, want = call(p).value, call(p + 128).value
    with mp.workprec(p + 160):
        assert abs(got - want) <= mpf(2) ** (16 - p) * abs(want)


def test_family_d_ratio_approaches_one():
    # leading-term ratio -> 1 through even and odd N; errors scale like 1/N
    with mp.workprec(200):
        w0 = find_zero((0, -1), prec=192).w.value
        from pfrac.dilog import find_saddle
        z0 = find_saddle(1, 0, 192).z.value
        e = mpmath.exp(-1j * pi * z0)
        ratios = {}
        for N in (240, 480, 241, 481):
            d0 = z0 * mpmath.sqrt(2 * e * (e + (-1) ** N))
            lead = (mpmath.exp(-mpf(N) / 2 * mpmath.log(w0)) * d0 / mpf(N) ** 2).real
            got = family_sum(FamilySelector("D", N), 1, 192).value
            ratios[N] = got / lead
        for N in ratios:
            assert abs(ratios[N] - 1) < mpf("0.15")
        assert abs(ratios[480] - 1) < abs(ratios[240] - 1)
        assert abs(ratios[481] - 1) < abs(ratios[241] - 1)


def test_family_e_growth_rate():
    # |sum| = O(e^{0.0257 N}) with rate -log|w(0,-2)| ~ 0.0257
    with mp.workprec(200):
        rate = -mpmath.log(abs(find_zero((0, -2), prec=192).w.value))
        assert abs(rate - mpf("0.0257")) < mpf("1e-4")
        vals = {}
        for N in (200, 260, 320, 400):
            vals[N] = abs(family_sum(FamilySelector("E", N), 1, 160).value)
        # envelope |e0| e^{0.0257 N} / N^2 with a modest constant window
        assert all(float(vals[N]) <= 12 * math.exp(0.0257 * N) / N ** 2 for N in vals)
        assert any(float(vals[N]) >= 0.5 * math.exp(0.0257 * N) / N ** 2 for N in vals)


def test_family_definitions():
    frs = FamilySelector("C", 21).fractions()
    assert all(f.k % 2 == 1 and 21 / 2 < f.k <= 21 and f.h in (2, f.k - 2) for f in frs)
    frs = FamilySelector("D", 21).fractions()
    assert all(f.h in ((f.k - 1) // 2, (f.k + 1) // 2) for f in frs)
    frs = FamilySelector("E", 30).fractions()
    assert all(10 < f.k <= 15 and f.h in (1, f.k - 1) for f in frs)
    with pytest.raises(ValueError):
        FamilySelector("X", 30).fractions()


# -- the Laurent oracle ------------------------------------------------------------------------

def test_c01l_published_values():
    assert abs(c01l_exact(400, 1).value / mpf("-2.16712e7") - 1) < mpf("1e-5")
    assert abs(c01l_exact(400, 4).value / mpf("-58.6545") - 1) < mpf("1e-5")


def test_c01l_small_closed_forms():
    # hand partial fractions: 1/((1-q)(1-q^2)) = 1/2 (q-1)^{-2} - 1/4 (q-1)^{-1} + ...
    assert abs(c01l_exact(2, 1, 128).value + mpf(1) / 4) < mpf(2) ** -100
    assert abs(c01l_exact(2, 2, 128).value - mpf(1) / 2) < mpf(2) ** -100


def test_c01l_cross_checks_pole_expansion():
    # dual route: c_from_q, the per-pole Laurent machinery, is the oracle for
    # the q = 1 core of c01l_exact
    with mp.workprec(300):
        for N in (6, 11, 17, 23):
            for ell in (1, 2, min(4, N)):
                a = c01l_exact(N, ell, 256).value
                b = c_from_q(0, 1, ell, N, PREC).value
                assert abs(b.imag) < mpf(2) ** -180 * (1 + abs(a))
                assert abs(a - b.real) < mpf(2) ** -180 * (1 + abs(a))


def _exact_laurent_core(N):
    """exp(-Phat(x)) to order x^{N-1} on Fractions (see the residues docstring)."""
    f = [Fraction(0)] * N
    if N > 1:
        f[1] = Fraction(-N * (N + 1), 4)
    for i in range(1, (N - 1) // 2 + 1):
        s2i = sum(j ** (2 * i) for j in range(1, N + 1))
        f[2 * i] = -bernoulli_over_factorial_fraction(i) * s2i / (2 * i)
    return exp(f, N)


def _exact_c01l(N, ell, g):
    """(-1)^N/N! [x^{N-1}] e^x (e^x - 1)^{ell-1} exp(-Phat(x)) on Fractions."""
    total = sum(Fraction(sum(comb(ell - 1, i) * (-1) ** (ell - 1 - i) * (i + 1) ** a
                             for i in range(ell)), factorial(a)) * g[N - 1 - a]
                for a in range(N))
    return (-1) ** N * total / factorial(N)


def test_laurent_oracle_matches_exact_rationals():
    # the fixed-point core and the oracle against exact rational coefficients,
    # relative 2^(16-p): x -> 2^-r x keeps the scaled coefficients at least 1
    for N in (5, 40, 120):
        exact = _exact_laurent_core(N)
        for p in (128, 512):
            tol = mpf(2) ** (16 - p)
            with mp.workprec(p + 64):
                for got, want in zip(_laurent_core(N, p, laurent._laurent_guard(N)), exact):
                    want = mpf(want.numerator) / want.denominator
                    assert abs(got - want) <= tol * abs(want)
                for ell in (1, 4):
                    want = _exact_c01l(N, ell, exact)
                    want = mpf(want.numerator) / want.denominator
                    got = c01l_exact(N, ell, p)
                    assert got.precision == p
                    assert abs(got.value - want) <= tol * abs(want)


def test_laurent_core_keeps_its_bits_against_a_wider_core():
    # every core coefficient against the same core built 300 bits wider; the
    # bounds (log2 of the worst relative error) are those of whole products,
    # so exp_fixed's short products may cost the core no bit
    worst = {(200, 64): -95.7, (200, 576): -608.1, (431, 64): -75.4,
             (431, 576): -587.9, (675, 64): -89.0, (675, 576): -600.6}
    for (N, wprec), bound in worst.items():
        wide = _laurent_core.__wrapped__(N, wprec, laurent._laurent_guard(N) + 300)
        with mp.workprec(wprec + 600):
            core = _laurent_core(N, wprec, laurent._laurent_guard(N))
            err = max(abs(g - w) / abs(w) for g, w in zip(core, wide))
            assert err <= mpf(2) ** bound, (N, wprec, float(mpmath.log(err, 2)))


def test_laurent_core_digests_are_pinned():
    # the cores of c01l_exact(675, ell, 512) and of its 64-bit shadow, bit for
    # bit: skipping the zero odd terms moves no bit, and on these two cores the
    # short products of exp_fixed round every coefficient as whole products do
    want = {576: "d93e7b2b70e729ecfa69830b21b8e9f244d8206c618f9488f08603473ec7a156",
            64: "01f968ced5c6432e8c36f5a38b83c4063e3bcc7d0f8a45fef7eec81595186907"}
    for wprec, digest in want.items():
        core = _laurent_core.__wrapped__(675, wprec, laurent._laurent_guard(675))
        text = "\n".join(f"{m} {e}" for m, e in map(man_exp, core))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, wprec


def test_c01l_default_precision_follows_the_default():
    old = set_default_precision(1024)
    try:
        assert c01l_exact(401, 1).precision == 1024
    finally:
        set_default_precision(old)
    assert c01l_exact(20, 1).precision == old


def test_q01_exact_matches_general(rng):
    # q01_exact, on the q = 1 Laurent core, is the oracle for q_general's
    # pole inverse at 0/1, the pole of highest order N
    with mp.workprec(280):
        for _ in range(6):
            N = rng.randint(3, 25)
            sigma = rng.randint(-3, 6)
            a = q01_exact(N, sigma, PREC).value
            b = q_general(0, 1, sigma, N, PREC).value
            assert abs(a - b) < mpf(2) ** -190 * (1 + abs(a))


def test_q01_exact_at_its_exact_zeros():
    # at N = 4, sigma = 5 (the centre N(N+1)/4 of the symmetric polynomial) Q
    # is exactly 0, and the shadow check accepts its absolute agreement
    # instead of raising; at N = 300 the terms reach 2^370, and the
    # escalation must size its guards from the floor, not from the full
    # value's own noise
    assert abs(q01_exact(4, 5, PREC).value) < mpf(2) ** (16 - PREC)
    assert abs(q01_exact(300, 300 * 301 // 4, 64).value) < mpf(2) ** (16 - 64)


@pytest.mark.parametrize("value", [2.5, mpf("2.5"), 1 + 2j, True])
def test_integer_arguments_refuse_a_non_integer_or_out_of_range(value):
    # sigma, ell, N, h/k, m, L and every size are integers, as in the paper:
    # 2.5, mpf(2.5), 1 + 2i and a bool are refused on entry by
    # precision.checked_int with a ValueError naming the argument, not
    # rounded to an integer, run into a TypeError or PrecisionLossError, or
    # read as 1
    z = mpc("1.2", "0.3")
    e = b_coeffs(1, 2, 64)
    rows = (("sigma", lambda x: q_general(1, 3, x, 7)), ("sigma", lambda x: residue_sum(7, x)),
            ("sigma", lambda x: residue_report(7, x)),
            ("sigma", lambda x: family_sum(FamilySelector("A", 40), x)),
            ("sigma", lambda x: family_sum(FamilySelector("E", 40), x)),
            ("sigma", lambda x: a1_sum(40, x)), ("N", lambda x: a1_sum(x, 1)),
            ("sigma", lambda x: q01_exact(9, x)),
            ("sigma", lambda x: a3_quadrature(200, x, 64)), ("sigma", lambda x: u_weight(x, 1, z)),
            ("ell", lambda x: c01l_exact(10, x)), ("ell", lambda x: c_from_q(0, 1, x, 10)),
            ("N", lambda x: principal_part(1, 3, x)), ("N", farey),
            ("N", lambda x: p_restricted(x, 3)), ("n", lambda x: p_restricted(3, x)),
            ("N", lambda x: q01_exact(x, 1)), ("N", lambda x: a3_quadrature(x, 1)),
            ("N", lambda x: q_general(1, 3, 1, x)), ("k", lambda x: q_general(1, x, 1, 5)),
            ("m", lambda x: b_coeffs(1, x)), ("m", lambda x: find_saddle(x, 0)),
            ("k", lambda x: sine_products.psi(1, x)), ("n", lambda x: stirling2(x, 1)),
            ("L", lambda x: sine_products.t_l_bound(x, 3)),
            ("L", lambda x: sine_products.em_remainder(1, 10, 3, x)),
            # and the sizes of the scans and of the quadrature rule
            ("k", sine_products.psi_table), ("h", sine_products.em_remainder_scan),
            ("s", lambda x: sine_products.em_remainder_scan(3, x)),
            ("n", lambda x: _clenshaw_curtis(x, 64)), ("samples", path_positivity_check),
            ("N", lambda x: evaluate_expansion(e, x, 2)))
    for name, call in rows:
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {value!r}")):
            call(value)
    # an integer out of its range is refused on entry as well: past h m < k
    # the main term of T_L takes the log of a negative sine
    for call, message in ((lambda: sine_products.em_remainder(3, 10, 5, 2), "need m <= 3, got 5"),
                          (lambda: sine_products.em_remainder(1, 10, 3, 0), "need L >= 1, got 0"),
                          (lambda: u_weight(1, -1, z), "need j >= 0, got -1"),
                          (lambda: vstar_weight(1, -1, z), "need j >= 0, got -1"),
                          (lambda: evaluate_expansion(e, 400, -1), "need m >= 1, got -1"),
                          (lambda: path_positivity_check(0), "need samples >= 3, got 0")):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


@pytest.mark.parametrize("N", [0, -3])
def test_farey_sums_refuse_N_below_1(N):
    # refused on entry like farey's, not by a negative shift in the sigma powers
    for call in (farey, lambda n: residue_sum(n, 1), lambda n: residue_report(n, 1)):
        with pytest.raises(ValueError, match="need N >= 1"):
            call(N)


@pytest.mark.parametrize("N", [0, -3])
def test_laurent_oracle_refuses_N_below_1(N):
    # refused on entry, not by a math domain error inside the Laurent core
    for call in (q01_exact, c01l_exact):
        with pytest.raises(ValueError, match=f"need N >= 1, got {N}"):
            call(N, 1)


def test_bernoulli_table_matches_exact_and_zeta_values():
    # the one-division table against exact rationals (one unit of 2^-F) and
    # against 2 zeta(2i)/(2 pi)^{2i} (2^(16-F) relative) up to N = 1000
    for F in (100, 600):
        for i, (man, e) in enumerate(bernoulli_table(40, F), 1):
            got = (-1) ** (i + 1) * Fraction(man) * Fraction(2) ** e
            assert abs(got - bernoulli_over_factorial_fraction(i)) <= Fraction(1, 2 ** F)
    F = 576 + laurent._laurent_guard(1000)
    with mp.workprec(F + 64):
        for i, (man, e) in enumerate(bernoulli_table(499, F), 1):
            with mp.workprec(F + 32):
                want = (-1) ** (i + 1) * 2 * mpmath.zeta(2 * i) / (2 * pi) ** (2 * i)
            got = (-1) ** (i + 1) * mpmath.ldexp(man, e)
            assert abs(got - want) <= mpf(2) ** (16 - F) * abs(want)


def test_laurent_shadow_check_fires_on_a_short_guard(monkeypatch):
    # with the guard cut to N//8 at N = 675, the 64-bit shadow misses the
    # full core by far more than 2^-48; the oracle reruns once with both
    # guards raised by the shortfall and returns the value of the default guard
    N, prec = 675, 512
    want = c01l_exact(N, 1, prec).value
    monkeypatch.setattr(residues, "_laurent_guard", lambda n: n // 8)
    weights = [1] * N
    full = laurent._oracle_sum(_laurent_core(N, prec + 64, N // 8), weights, N, prec + 64)
    shadow = laurent._oracle_sum(_laurent_core(N, residues._SHADOW_BITS, N // 8), weights, N,
                                 residues._SHADOW_BITS)
    with mp.workprec(prec + 64):
        assert abs(shadow - full) > mpf(2) ** (GUARD_BITS - residues._SHADOW_BITS) * abs(full)
        guards = []
        core = residues._laurent_core

        def recording(n, wprec, guard):
            guards.append(guard)
            return core(n, wprec, guard)
        monkeypatch.setattr(residues, "_laurent_core", recording)
        got = c01l_exact(N, 1, prec)
        assert guards[:2] == [N // 8, N // 8] and guards[2] > N // 8
        assert abs(got.value - want) <= mpf(2) ** (16 - prec) * abs(want)


def test_laurent_oracle_never_returns_a_failed_check(monkeypatch):
    # a shadow that never agrees: one rerun, then PrecisionLossError, for
    # both oracles that share the core
    core = residues._laurent_core

    def noisy(n, wprec, guard):
        g = core(n, wprec, guard)
        return g if wprec > residues._SHADOW_BITS else tuple(x * (1 + mpf(2) ** -30) for x in g)
    monkeypatch.setattr(residues, "_laurent_core", noisy)
    with pytest.raises(PrecisionLossError):
        c01l_exact(40, 1, 128)
    with pytest.raises(PrecisionLossError):
        q01_exact(40, 3, 128)


def test_c011_tracks_negative_a1():
    with mp.workprec(280):
        ratio = c01l_exact(400, 1).value / (-a1_sum(400, 1, 420).value)
        assert abs(ratio - 1) < mpf("1e-3")


# -- waves, reports and reconstruction -----------------------------------------------------------------------------

def test_wave_identity():
    # p_N(n) = sum_k W_k(N, n), with the Sylvester waves
    # W_k(N, n) = -sum_{(h,k)=1} Q_{h k (-n)}(N) summed here from q_general
    with mp.workprec(280):
        for N in (5, 9, 15):
            for n in (0, 1, 4, 11, 30):
                total = mpmath.fsum(-q_general(f.h, f.k, -n, N, PREC).value.real
                                    for f in farey(N))
                assert abs(total - p_restricted(N, n)) < mpf("1e-20") * (1 + p_restricted(N, n))


def test_residue_report_shape():
    rows = residue_report(6, 1, 128)
    assert len(rows) == len(farey(6))
    assert rows[0]["h"] == 0 and rows[0]["k"] == 1 and rows[0]["order"] == 6
    assert {"h", "k", "order", "re", "im"} <= set(rows[0])


def test_reconstruction_folds_conjugate_pairs():
    # reconstruct_product takes each pair's principal part once, as
    # C_{(k-h) k l} = conj C_{h k l}, which holds bit for bit; it agrees
    # with the unfolded sum of every pole's own principal part for N <= 12
    for N in range(1, 13):
        for f in farey(N):
            if 0 < 2 * f.h < f.k:
                pair = principal_part(f.k - f.h, f.k, N, PREC)
                with mp.workprec(PREC + 64):  # wide enough that conj is exact
                    assert [c.value for c in pair] == [
                        c.value.conjugate() for c in principal_part(f.h, f.k, N, PREC)]
        for q in (mpc("0.31", "-0.17"), mpc("-0.6", "0.55")):
            with mp.workprec(PREC + 16):
                want = mpc(0)
                for f in farey(N):
                    base = 1 / (q - mpmath.expjpi(mpf(2 * f.h) / f.k))
                    want += mpmath.fsum(c.value * base ** ell for ell, c in
                                        enumerate(principal_part(f.h, f.k, N, PREC), 1))
            got = reconstruct_product(N, q, PREC).value
            assert abs(got - want) <= tolerance(PREC) * abs(want), (N, q)


def test_reconstruction_spot():
    with mp.workprec(300):
        q = mpc("0.31", "-0.17")
        lhs = reconstruct_product(9, q, PREC).value
        rhs = 1 / mpmath.fprod([1 - q ** j for j in range(1, 10)])
        assert abs(lhs - rhs) < mpf("1e-40") * abs(rhs)

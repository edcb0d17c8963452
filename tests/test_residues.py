"""Farey poles, residues, conversions, family sums, and the Laurent oracle."""

import math
from math import gcd

import mpmath
import pytest
from mpmath import mp, mpc, mpf, pi

from pfrac.dilog import find_zero
from pfrac.residues import (FamilySelector, FareyFraction, a1_sum, c01l_exact,
                            c_from_q, family_sum, farey, p_restricted,
                            principal_part, q01_exact, q_from_c, q_general,
                            q_simple, reconstruct_product, residue_report,
                            residue_sum, sylvester_wave)

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


# -- simple and general residues --------------------------------------------------------

def test_q_simple_at_k_equals_n():
    for N in (5, 9, 14):
        v = q_simple(1, N, 3, N, PREC).value
        assert abs(abs(v) - mpf(1) / N ** 2) < mpf(2) ** -240


def test_q_simple_conjugate_pair(rng):
    with mp.workprec(300):
        for _ in range(8):
            N = rng.randint(6, 40)
            k = rng.randint(N // 2 + 1, N)
            sigma = rng.randint(-3, 5)
            a = q_simple(1, k, sigma, N, PREC).value if k > 1 else None
            if k == 1 or gcd(k - 1, k) != 1:
                continue
            b = q_simple(k - 1, k, sigma, N, PREC).value
            assert abs(b - mpmath.conj(a)) < mpf(2) ** -230


def test_q_simple_matches_q_general():
    with mp.workprec(300):
        assert abs(q_simple(1, 7, 1, 9, PREC).value
                   - q_general(1, 7, 1, 9, PREC).value) < mpf(2) ** -230
        for N in range(4, 21):
            for k in range(N // 2 + 1, N + 1):
                for h in (1, k - 1):
                    if not (1 <= h < k) or gcd(h, k) != 1:
                        continue
                    d = abs(q_simple(h, k, 2, N, PREC).value
                            - q_general(h, k, 2, N, PREC).value)
                    assert d < mpf(2) ** -220


def test_q_simple_modulus_independent_of_real_sigma(rng):
    with mp.workprec(280):
        for _ in range(10):
            N = rng.randint(6, 30)
            k = rng.randint(N // 2 + 1, N)
            h = 1
            mags = [abs(q_simple(h, k, mpf(str(s)), N, PREC).value)
                    for s in ("0.0", "1.5", "-2.25", "7.125")]
            assert max(mags) - min(mags) < mpf(2) ** -230


def test_q_simple_range_check():
    with pytest.raises(ValueError):
        q_simple(1, 4, 1, 9)


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


@pytest.mark.parametrize("sigma", [-3, 0, 2, "M", 2.5])
def test_folded_residue_sum_matches_explicit_sum(sigma):
    # integer sigma sums only 2h <= k through conjugation; 2.5 sums every pole
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
    monkeypatch.setattr(residues, "_work_prec", lambda prec, s, N: prec - 40)
    got = q_general(h, k, sigma, N, p).value
    assert asked == [p - 40, 2 * (p - 40)]
    with mp.workprec(p + 32):
        assert abs(got - want) < mpf(2) ** (16 - p) * abs(want)

    monkeypatch.setattr(residues, "_work_prec", lambda prec, s, N: 8)
    asked.clear()
    with pytest.raises(residues.PrecisionLossError, match="residue at 1/3 lost"):
        q_general(h, k, sigma, N, p)
    assert asked == [8, 16, 32, 64]


# -- conversions -------------------------------------------------------------------------

def test_c_from_q_first_order():
    with mp.workprec(280):
        for (h, k, N) in ((0, 1, 6), (1, 3, 7), (1, 2, 9)):
            assert abs(c_from_q(h, k, 1, N, PREC).value
                       - q_general(h, k, 1, N, PREC).value) < mpf(2) ** -200


def test_conversion_round_trip(rng):
    with mp.workprec(300):
        for _ in range(8):
            N = rng.randint(4, 14)
            fr = rng.choice(farey(N))
            sigma = rng.randint(1, max(1, N // fr.k))
            direct = q_general(fr.h, fr.k, sigma, N, PREC).value
            via = q_from_c(fr.h, fr.k, sigma, N, PREC).value
            assert abs(direct - via) < mpf(2) ** -200 * (1 + abs(direct))


def test_principal_part_matches_c_from_q():
    with mp.workprec(300):
        for (h, k, N) in ((0, 1, 7), (1, 2, 9), (2, 5, 12)):
            part = principal_part(h, k, N, PREC)
            assert len(part) == N // k
            for ell, c in enumerate(part, 1):
                assert abs(c.value - c_from_q(h, k, ell, N, PREC).value) < mpf(2) ** -230


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
    # one sine product per conjugate pair, against q_simple on every member
    with mp.workprec(300):
        for tag, N in (("A", 2), ("A", 3), ("A", 40), ("C", 41), ("D", 41), ("D", 60)):
            sel = FamilySelector(tag, N)
            want = mpmath.fsum(q_simple(f.h, f.k, 1, N, PREC).value for f in sel.fractions())
            got = family_sum(sel, 1, PREC).value
            assert abs(got - want) < mpf(2) ** (16 - PREC) * (1 + abs(want))


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
    # dual route: the per-pole Laurent machinery must agree with the oracle
    with mp.workprec(300):
        for N in (6, 11, 17, 23):
            for ell in (1, 2, min(4, N)):
                a = c01l_exact(N, ell, 256).value
                b = c_from_q(0, 1, ell, N, PREC).value
                assert abs(b.imag) < mpf(2) ** -180 * (1 + abs(a))
                assert abs(a - b.real) < mpf(2) ** -180 * (1 + abs(a))


def test_q01_exact_matches_general(rng):
    with mp.workprec(280):
        for _ in range(6):
            N = rng.randint(3, 25)
            sigma = rng.randint(-3, 6)
            a = q01_exact(N, sigma, PREC).value
            b = q_general(0, 1, sigma, N, PREC).value
            assert abs(a - b) < mpf(2) ** -190 * (1 + abs(a))


def test_c011_tracks_negative_a1():
    with mp.workprec(280):
        ratio = c01l_exact(400, 1).value / (-a1_sum(400, 1, 420).value)
        assert abs(ratio - 1) < mpf("1e-3")


# -- waves and reports -----------------------------------------------------------------------------

def test_wave_identity():
    # p_N(n) = sum_k W_k(N, n)
    with mp.workprec(280):
        for N in (5, 9, 15):
            for n in (0, 1, 4, 11, 30):
                total = mpmath.fsum(sylvester_wave(k, N, n, PREC).value
                                    for k in range(1, N + 1))
                assert abs(total - p_restricted(N, n)) < mpf("1e-20") * (1 + p_restricted(N, n))


def test_residue_report_shape():
    rows = residue_report(6, 1, 128)
    assert len(rows) == len(farey(6))
    assert rows[0]["h"] == 0 and rows[0]["k"] == 1 and rows[0]["order"] == 6
    assert {"h", "k", "order", "re", "im"} <= set(rows[0])


def test_reconstruction_spot():
    with mp.workprec(300):
        q = mpc("0.31", "-0.17")
        lhs = reconstruct_product(9, q, PREC).value
        rhs = 1 / mpmath.fprod([1 - q ** j for j in range(1, 10)])
        assert abs(lhs - rhs) < mpf("1e-40") * abs(rhs)

"""Precision records and rules, sequence caches, and truncated series arithmetic."""

import dataclasses
import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, mpf, pi

import pfrac
from pfrac import a1_sum, b_coeffs, c01l_exact, find_zero, psi, q_general
from pfrac.fixed import (EXP_SLACK, div_fixed, exp_fixed, fix, power, powers, shifted, squares,
                         unfix)
from pfrac.precision import (GUARD_BITS, HPComplex, HPReal, PrecisionLossError, rerun_short,
                             set_default_precision, tolerance)
from pfrac.sequences import bernoulli, binom_half_fraction, even_power_sums, stirling2
from pfrac.series import exp, inv, log, mul


# -- precision-labelled records ---------------------------------------------------

def test_records_are_frozen_pairs():
    for record in (HPReal(mpf(1) / 3, 100), HPComplex(mpmath.mpc(3, 4), 100)):
        assert tuple(f.name for f in dataclasses.fields(record)) == ("value", "precision")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.precision = 200
    assert tolerance(100) == 2 ** -84


@pytest.mark.parametrize("prec", [4, 256.0, "abc"])
@pytest.mark.parametrize("call", [
    lambda prec: a1_sum(300, 1, prec),
    lambda prec: c01l_exact(50, 1, prec),
    lambda prec: psi(1, 11, prec),
    lambda prec: find_zero((0, -1), prec),
    lambda prec: q_general(1, 3, 1, 12, prec),
    lambda prec: b_coeffs(1, 4, prec),
], ids=["a1_sum", "c01l_exact", "psi", "find_zero", "q_general", "b_coeffs"])
def test_bad_prec_fails_fast(call, prec):
    want = "need prec >= 8, got 4" if prec == 4 else f"prec must be an integer, got {prec!r}"
    with pytest.raises(ValueError, match=re.escape(want)):
        call(prec)


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_precision_environment_fails_at_import(value):
    want = {"abc": "PFRAC_PRECISION_BITS must be an integer, got 'abc'",
            "0": "need PFRAC_PRECISION_BITS >= 8, got 0"}[value]
    src = str(Path(pfrac.__file__).resolve().parents[1])
    env = {**os.environ, "PFRAC_PRECISION_BITS": value,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", "import pfrac"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert want in proc.stderr


def test_set_default_precision_rejects_bad_values():
    for bad in (7, 0, "abc", 256.0, None):
        with pytest.raises(ValueError, match="need precision >= 8|precision must be an integer"):
            set_default_precision(bad)


def test_rerun_short_reruns_once_by_the_shortfall():
    # run(extra) -> (value, bits short): accepted at once when not short, else
    # one rerun with short + GUARD_BITS extra bits, and a short rerun raises
    def fake(shorts):
        asked = []

        def run(extra):
            asked.append(extra)
            return f"value at +{extra}", shorts[len(asked) - 1]
        return run, asked

    run, asked = fake([0])
    assert rerun_short(run, "site") == "value at +0" and asked == [0]
    run, asked = fake([30, -5])
    assert rerun_short(run, "site") == f"value at +{30 + GUARD_BITS}"
    assert asked == [0, 30 + GUARD_BITS]
    run, asked = fake([30, 7])
    with pytest.raises(PrecisionLossError, match=r"site fell 30 bits short.* 7 bits short"):
        rerun_short(run, "site")
    assert asked == [0, 30 + GUARD_BITS]


# -- Bernoulli ------------------------------------------------------------------

def _bernoulli_akiyama_tanigawa(n):
    """Independent oracle: Akiyama-Tanigawa algorithm (first kind, B1=-1/2)."""
    A = [Fraction(0)] * (n + 1)
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
    return A[0] if n != 1 else -A[0]


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(2) == _bernoulli_akiyama_tanigawa(2) == Fraction(1, 6)
    assert bernoulli(12) == _bernoulli_akiyama_tanigawa(12) == Fraction(-691, 2730)
    for n in range(0, 30, 2):
        assert bernoulli(n) == _bernoulli_akiyama_tanigawa(n)


def test_bernoulli_odd_and_negative():
    assert bernoulli(3) == 0 and bernoulli(17) == 0
    assert bernoulli(1) == Fraction(-1, 2)
    with pytest.raises(ValueError):
        bernoulli(-2)


def test_bernoulli_ratio_bound():
    # |B_{2n}|/(2n)! <= pi^2 / (3 (2 pi)^{2n}) for all cached n <= 64
    with mp.workprec(128):
        for n in range(1, 65):
            ratio = abs(Fraction(bernoulli(2 * n), factorial(2 * n)))
            bound = pi ** 2 / (3 * (2 * pi) ** (2 * n))
            assert mpf(ratio.numerator) / ratio.denominator <= bound


# -- Stirling set numbers ---------------------------------------------------------

def _set_partitions_count(n, r):
    """Brute-force oracle: count set partitions of {0..n-1} into r blocks."""
    def rec(elems, blocks):
        if not elems:
            return 1 if len(blocks) == r else 0
        if len(blocks) > r:
            return 0
        x, rest = elems[0], elems[1:]
        total = 0
        for i in range(len(blocks)):
            total += rec(rest, blocks[:i] + [blocks[i] + [x]] + blocks[i + 1:])
        total += rec(rest, blocks + [[x]])
        return total
    return rec(list(range(n)), [])


def test_stirling2_examples():
    for n in range(8):
        assert stirling2(n, n) == 1
    assert stirling2(3, 2) == 3 == _set_partitions_count(3, 2)
    for n in range(6):
        for r in range(n + 1):
            assert stirling2(n, r) == _set_partitions_count(n, r)
    assert stirling2(5, 9) == 0


def test_stirling2_recurrence(rng):
    for _ in range(30):
        n = rng.randint(1, 40)
        r = rng.randint(1, n)
        assert stirling2(n, r - 1) + r * stirling2(n, r) == stirling2(n + 1, r)


# -- half-integer binomials -------------------------------------------------------

def test_binom_half():
    # C(-s - 1/2, j), exact, as wojdylo_a2s takes it
    assert binom_half_fraction(0, 0) == 1
    assert binom_half_fraction(0, 1) == Fraction(-1, 2)
    assert binom_half_fraction(1, 2) == Fraction(15, 8)
    # product-formula oracle
    for s in range(4):
        for j in range(6):
            prod = Fraction(1)
            for i in range(j):
                prod *= Fraction(-2 * s - 1 - 2 * i, 2)
            assert binom_half_fraction(s, j) == prod / factorial(j)


def test_power_sum():
    assert even_power_sums(3, 7) == tuple(sum(j ** r for j in range(1, 8)) for r in (0, 2, 4, 6))
    assert even_power_sums(1, 100) == (100, 338350)
    assert even_power_sums(0, 5) == (5,)


# -- truncated series --------------------------------------------------------------

def test_recip_geometric():
    assert inv([mpf(1), mpf(1), mpf(0)], 3) == [1, -1, 1]


def test_exp_log_roundtrip():
    one_plus_t = [mpf(1), mpf(1)] + [mpf(0)] * 6
    with mp.workprec(256):
        back = exp(log(one_plus_t, 8), 8)
    assert all(abs(x - y) < mpf(2) ** -230 for x, y in zip(back, one_plus_t))


def test_sinc_series_self_inverse():
    # sin(pi t)/(pi t) = sum (-1)^n (pi t)^{2n} / (2n+1)!  times its reciprocal
    n = 10
    with mp.workprec(280):
        s = []
        for i in range(n):
            if i % 2 == 0:
                s.append((-1) ** (i // 2) * pi ** i / mpmath.factorial(i + 1))
            else:
                s.append(mpf(0))
        with mp.workprec(256):
            prod = mul(s, inv(s, n), n)
        assert abs(prod[0] - 1) < mpf(2) ** -230
        assert all(abs(prod[i]) < mpf(2) ** -230 for i in range(1, n))


def test_ring_axioms_random(rng):
    n = 7
    def rand_series():
        return [mpf(rng.uniform(-2, 2)) for _ in range(n)]
    tol = tolerance(192)
    with mp.workprec(192):
        for _ in range(10):
            a, b, c = rand_series(), rand_series(), rand_series()
            lhs, rhs = mul(mul(a, b, n), c, n), mul(a, mul(b, c, n), n)
            assert all(abs(x - y) < tol for x, y in zip(lhs, rhs))
        for _ in range(6):
            a, b = rand_series(), rand_series()
            a[0] = b[0] = mpf(0)
            lhs = exp([x + y for x, y in zip(a, b)], n)
            rhs = mul(exp(a, n), exp(b, n), n)
            assert all(abs(x - y) < tol for x, y in zip(lhs, rhs))


def test_exact_rational_coefficients():
    # Fraction input stays exact: the q = 1 Laurent data needs no mode switch
    n = 8
    t = [Fraction(0), Fraction(1)] + [Fraction(0)] * (n - 2)
    one_plus_t = [Fraction(1), Fraction(1)] + [Fraction(0)] * (n - 2)
    results = {
        "exp": (exp(t, n), [Fraction(1, factorial(m)) for m in range(n)]),
        "inv": (inv(one_plus_t, n), [Fraction((-1) ** m) for m in range(n)]),
        "log": (log(one_plus_t, n), [Fraction(0)] + [Fraction((-1) ** (m + 1), m)
                                                    for m in range(1, n)]),
        "mul": (mul(one_plus_t, one_plus_t, n), [1, 2, 1] + [0] * (n - 3)),
    }
    for name, (got, want) in results.items():
        assert got == want, name
        assert all(type(c) is Fraction for c in got), name


def test_exp_fixed_matches_exact_exp():
    # the fixed-point recurrence against exp on Fractions: each rounding costs
    # half a unit of 2^-F, and the inherited errors stay within a few units
    n, F = 40, 128
    a = [Fraction(0)] + [Fraction((-1) ** k * (k % 5 + 1), 3 * k + 1) for k in range(1, n)]
    ka = [round(k * c * 2 ** F) for k, c in enumerate(a)]
    want = exp(a, n)
    got = exp_fixed(ka, n, F)
    assert got[0] == 2 ** F
    assert all(abs(g - w * 2 ** F) <= 2 ** 8 for g, w in zip(got, want))
    # a short input counts its missing coefficients as zero
    assert exp_fixed(ka[:2], 6, F) == exp_fixed(ka[:2] + [0] * 4, 6, F)


def test_exp_fixed_carries_growing_coefficients_to_slack_bits():
    # exp(1000 x + x^2/4), exact inputs: g_m grows to about 2^330 by x^59, and
    # past 2^EXP_SLACK each is carried to F + EXP_SLACK significant bits, so it
    # is good to a few units of its last carried bit and its low bits are zero
    n, F = 60, 64
    a = [Fraction(0), Fraction(1000), Fraction(1, 4)]
    got = exp_fixed([int(k * c * 2 ** F) for k, c in enumerate(a)], n, F)
    for g, w in zip(got, exp(a, n)):
        assert abs(g - w * 2 ** F) <= 2 ** 5 * max(1, abs(w) / 2 ** EXP_SLACK)
    assert got[-1] % 2 ** 200 == 0


def test_exp_fixed_skips_zero_terms_bit_for_bit():
    # the dense recurrence over every k, zero terms included, against
    # exp_fixed on a series shaped like the Laurent core's (odd k a_k zero
    # above k = 1) whose coefficients grow past 2^EXP_SLACK
    n, F = 90, 80
    ka = [0, -(37 << F)] + [0 if k % 2 else (-1) ** k * ((k * k + 3) << (F - 2))
                            for k in range(2, n)]
    out, shifts = [1 << F] + [0] * (n - 1), [0] * n
    for m in range(1, n):
        D = shifts[m] = shifts[m - 1] + max(0, out[m - 1].bit_length() - F - EXP_SLACK)
        acc = sum((ka[k] * out[m - k]) >> (D - shifts[m - k]) for k in range(1, m + 1))
        out[m] = (2 * acc + (m << F)) // (2 * (m << F))
    want = [g << D for g, D in zip(out, shifts)]
    assert max(shifts) > 0
    assert exp_fixed(ka, n, F) == want


def test_div_fixed_matches_exact_quotient():
    # against a * (1/b) on Fractions: 1/b = 1/(1 - t/2 + t^2/6) has
    # coefficients below 1, so the inherited errors stay within a few units
    n, F = 30, 96
    a = [Fraction(1, k + 1) for k in range(n)]
    b = [Fraction(1), Fraction(-1, 2), Fraction(1, 6)]
    want = mul(a, inv(b, n), n)
    got = div_fixed([round(c * 2 ** F) for c in a], [round(c * 2 ** F) for c in b], n, F)
    assert all(abs(g - w * 2 ** F) <= 2 ** 4 for g, w in zip(got, want))


def test_power_walk_and_conversions_of_the_fixed_point_layer():
    # the walk against mpmath at F + 64 bits on the walked w itself: within j
    # units of 2^-F per part after j steps while |w| <= 1 (fix truncates
    # toward zero, so the fixed w is no larger than the given one)
    F, n = 96, 300
    for w in (mpmath.expjpi(mpf(3) / 7), mpmath.mpc("0.3", "-0.45"),
              mpmath.mpc("-0.999", "0.01"), mpmath.mpc("0.5", "0")):
        c, s = fix(w, F)
        px, py = powers(c, s, F, n)
        with mp.workprec(F + 64):
            step, z = unfix(c, s, -F), mpmath.mpc(1)
            for j, (x, y) in enumerate(zip(px, py)):
                assert abs(x - mpmath.ldexp(z.real, F)) <= j
                assert abs(y - mpmath.ldexp(z.imag, F)) <= j
                z *= step
        # a walk started at w is the walk from 1 without its first, exact step
        assert powers(c, s, F, n - 1, (c, s)) == tuple(p[1:] for p in (px, py))
        # the binary power of the same w: within sqrt(2) (n - 1) units of
        # 2^-F in modulus, up to n = 4,000
        with mp.workprec(F + 64):
            step = unfix(c, s, -F)
            for t in (0, 1, 2, 3, 7, 64, 299, 1000, 2047, 4000):
                x, y = power(squares(c, s, F, t.bit_length()), F, t)
                err = abs(mpmath.mpc(x, y) - step ** t * 2 ** F)
                assert err <= math.sqrt(2) * max(t - 1, 0), (w, t)
    # no fraction bits: the exact powers of a Gaussian integer
    px, py = powers(12345, -6789, 0, 20)
    with mp.workprec(1000):
        assert all(mpmath.mpc(x, y) == mpmath.mpc(12345, -6789) ** j
                   for j, (x, y) in enumerate(zip(px, py)))
    sq = squares(12345, -6789, 0, 5)
    assert all(power(sq, 0, j) == (x, y) for j, (x, y) in enumerate(zip(px, py)))
    with pytest.raises(ValueError, match="needs more than 5 squares"):
        power(sq, 0, 32)
    # shifted rounds down, also for negative v and s
    assert [shifted(v, t) for v, t in ((-5, -1), (5, -1), (-1, -10), (-5, 2))] == [-3, 2, -1, -20]
    # fix truncates each part toward zero, and unfix brings it back within 2^-F
    assert fix(mpf("-2.75"), 1) == (-5, 0) and fix(mpmath.mpc("2.75", "-2.75"), 1) == (5, -5)
    F = 80
    for z in (mpmath.mpc(pi, -mpmath.e), -mpf(1) / 3, mpmath.mpc("-1e-30", "7.5")):
        with mp.workprec(F + 64):
            back = unfix(*fix(z, F), -F)
            assert abs(back.real - z.real) < mpf(2) ** -F
            assert abs(back.imag - z.imag) < mpf(2) ** -F


def test_recip_requires_unit():
    z = [mpf(0), mpf(1), mpf(1)]
    with pytest.raises(ValueError):
        inv(z, 3)
    with pytest.raises(ValueError):
        log(z, 3)


def test_public_surface():
    # pfrac.__all__ is the one list of public functions and types
    # (tests/test_surface.py says why each is there); no module keeps a second
    # copy.  refdata's __all__ lists published data tables, not functions.
    assert all(hasattr(pfrac, name) for name in pfrac.__all__)
    for info in pkgutil.iter_modules(pfrac.__path__):
        module = importlib.import_module(f"pfrac.{info.name}")
        if info.name != "refdata":
            assert not hasattr(module, "__all__"), f"pfrac.{info.name}"
    assert not hasattr(pfrac, "TruncatedSeries")

"""Scalars, sequence caches, and truncated series arithmetic."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import mpmath
import pytest
from mpmath import mp, mpf, pi

import pfrac
from pfrac.precision import HPComplex, HPReal, set_default_precision, tolerance
from pfrac.sequences import (bernoulli, bernoulli_over_factorial, binom_half,
                             binom_half_fraction, power_sum_table, stirling2)
from pfrac.series import TruncatedSeries


# -- precision-carrying scalars -------------------------------------------------

def test_min_precision_propagates():
    a = HPReal(1, 256) / HPReal(3, 256)
    b = HPReal(1, 128) / HPReal(7, 128)
    assert (a + b).precision == 128
    assert (a * b).precision == 128
    assert (b - a).precision == 128
    # exact (untracked) operands do not lower precision
    assert (a * 2).precision == 256


def test_no_operation_reports_more_precision_than_weakest_input():
    vals = [HPReal(mpf(1) / 3, p) for p in (64, 128, 256)]
    for x, y in itertools.permutations(vals, 2):
        for op in (lambda u, v: u + v, lambda u, v: u * v, lambda u, v: u / v):
            assert op(x, y).precision == min(x.precision, y.precision)


def test_tolerance_rule():
    x = HPReal(1, 100)
    assert x.tol() == mpf(2) ** (16 - 100)
    with mp.workprec(160):
        near = 1 + mpf(2) ** -90
        far = 1 + mpf(2) ** -70
    assert x.close_to(near)
    assert not x.close_to(far)


def test_complex_wrapper():
    z = HPComplex(mpmath.mpc(3, 4), 200)
    assert abs(z).value == 5
    assert z.conjugate().value == mpmath.mpc(3, -4)
    assert z.real.value == 3 and z.imag.value == 4


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_precision_environment_fails_at_import(value):
    src = str(Path(pfrac.__file__).resolve().parents[1])
    env = {**os.environ, "PFRAC_PRECISION_BITS": value,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", "import pfrac"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert (f"PFRAC_PRECISION_BITS must be an integer of at least 8 bits, got '{value}'"
            in proc.stderr)


def test_set_default_precision_rejects_bad_values():
    for bad in (7, 0, "abc", 256.0, None):
        with pytest.raises(ValueError, match="at least 8 bits"):
            set_default_precision(bad)


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


def test_bernoulli_over_factorial_matches_exact():
    with mp.workprec(200):
        for k in (1, 2, 7, 20):
            exact = Fraction(bernoulli(2 * k), factorial(2 * k))
            approx = bernoulli_over_factorial(k, 192)
            assert abs(approx - mpf(exact.numerator) / exact.denominator) < mpf(2) ** -180


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
    assert binom_half(0, 0).value == 1
    assert binom_half(0, 1).value == mpf(-1) / 2
    assert binom_half(1, 2).value == mpf(15) / 8
    # product-formula oracle
    for s in range(4):
        for j in range(6):
            prod = Fraction(1)
            for i in range(j):
                prod *= Fraction(-2 * s - 1 - 2 * i, 2)
            assert binom_half_fraction(s, j) == prod / factorial(j)


def test_power_sum():
    assert power_sum_table(3, 7) == [sum(j ** r for j in range(1, 8)) for r in range(4)]
    assert power_sum_table(1, 100) == [100, 5050]


# -- truncated series --------------------------------------------------------------

def test_recip_geometric():
    t = TruncatedSeries.identity(3)
    r = (t + 1).recip()
    assert [mpf(c) for c in r.coeffs] == [1, -1, 1]


def test_exp_log_roundtrip():
    t = TruncatedSeries.identity(8)
    diff = (t + 1).log().exp() - (t + 1)
    assert all(abs(c) < mpf(2) ** -230 for c in diff.coeffs)


def test_sinc_series_self_inverse():
    # sin(pi t)/(pi t) = sum (-1)^n (pi t)^{2n} / (2n+1)!  times its reciprocal
    n = 10
    with mp.workprec(280):
        coeffs = []
        for i in range(n):
            if i % 2 == 0:
                coeffs.append((-1) ** (i // 2) * pi ** i / mpmath.factorial(i + 1))
            else:
                coeffs.append(mpf(0))
        s = TruncatedSeries(coeffs, 0, n, prec=256)
        prod = s * s.recip()
        assert abs(prod.coeff(0) - 1) < mpf(2) ** -230
        assert all(abs(prod.coeff(i)) < mpf(2) ** -230 for i in range(1, n))


def test_ring_axioms_random(rng):
    n = 7
    def rand_series(lead=0):
        return TruncatedSeries([mpf(rng.uniform(-2, 2)) for _ in range(n)], lead, lead + n,
                               prec=192)
    tol = tolerance(192)
    for _ in range(10):
        a, b, c = rand_series(), rand_series(), rand_series()
        lhs, rhs = (a * b) * c, a * (b * c)
        assert all(abs(lhs.coeff(i) - rhs.coeff(i)) < tol for i in range(lhs.lead, lhs.trunc))
    for _ in range(6):
        a, b = rand_series(), rand_series()
        a.coeffs[0] = mpf(0)
        b.coeffs[0] = mpf(0)
        lhs = (a + b).exp()
        rhs = a.exp() * b.exp()
        assert all(abs(lhs.coeff(i) - rhs.coeff(i)) < tol for i in range(0, n))


def test_series_precision_monotone():
    a = TruncatedSeries([1, 2, 3], prec=256)
    b = TruncatedSeries([4, 5, 6], prec=128)
    assert (a * b).prec == 128
    assert (a + b).prec == 128


def test_truncation_window_rules():
    a = TruncatedSeries([1, 2, 3, 4], lead=0)   # known through t^3
    b = TruncatedSeries([5, 6], lead=1)         # known through t^2
    prod = a * b
    assert prod.lead == 1 and prod.trunc == 3   # min(4+1, 3+0)
    with pytest.raises(IndexError):
        prod.coeff(3)
    assert prod.coeff(0) == 0  # below lead


def test_laurent_recip_and_calculus():
    # 1/(t (1 + t)) = t^-1 - 1 + t - ...
    s = TruncatedSeries([1, 1, 0, 0], lead=1)
    r = s.recip()
    assert r.lead == -1
    assert r.coeffs[:3] == [Fraction(1), Fraction(-1), Fraction(1)]
    d = r.differentiate()
    assert d.coeff(-2) == -1
    back = d.integrate()
    assert abs(back.coeff(-1) - 1) == 0
    with pytest.raises(ValueError):
        r.integrate()  # has a t^-1 term


def test_compose():
    with mp.workprec(200):
        # exp(log(1+t)) via composition of series
        n = 8
        ex = TruncatedSeries([1 / mpmath.factorial(i) for i in range(n)], 0, n, prec=160)
        lg = (TruncatedSeries.identity(n, prec=160) + 1).log()
        comp = ex.compose(lg)
        assert abs(comp.coeff(0) - 1) < mpf(2) ** -140
        assert abs(comp.coeff(1) - 1) < mpf(2) ** -140
        assert all(abs(comp.coeff(i)) < mpf(2) ** -140 for i in range(2, comp.trunc))


def test_exact_fraction_mode():
    t = TruncatedSeries.identity(5, exact=True)
    r = (t + 1).recip()
    assert r.exact and r.coeffs == [Fraction(1), Fraction(-1), Fraction(1),
                                    Fraction(-1), Fraction(1)]
    with pytest.raises(ValueError):
        (t + 1).exp()  # exact exp needs zero constant term


def test_recip_requires_unit():
    z = TruncatedSeries([0, 1, 1], lead=0)
    with pytest.raises(ValueError):
        z.recip()
    with pytest.raises(ValueError):
        z.log()

"""Scalars, sequence caches, and truncated series arithmetic."""

import importlib
import itertools
import os
import pkgutil
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
from pfrac.series import exp, inv, log, mul


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


def test_recip_requires_unit():
    z = [mpf(0), mpf(1), mpf(1)]
    with pytest.raises(ValueError):
        inv(z, 3)
    with pytest.raises(ValueError):
        log(z, 3)


def test_public_surface():
    for info in pkgutil.iter_modules(pfrac.__path__):
        module = importlib.import_module(f"pfrac.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"pfrac.{info.name}.{name}"
    assert not hasattr(pfrac, "TruncatedSeries")

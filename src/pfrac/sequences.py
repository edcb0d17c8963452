"""Exact integer/rational sequence caches: Bernoulli numbers, Stirling set
numbers, factorials, half-integer binomial coefficients and even power sums.

Caches are shared, and callers never mutate returned values.  The exact
caches grow append-only.  The even power sums and the floating-point
B_{2k}/(2k)! are LRU caches (4 and 1024 entries): each pole inverse asks for
about s/2 values of B_{2k}/(2k)! at its own working precision, while the
dilogarithm series of a landscape benchmark run reuse 365 entries.  The
q = 1 Laurent core builds its own table of B_{2k}/(2k)! by one series
division (`laurent._bernoulli_table`) and takes only its power sums here.
Single-threaded: the caches take no locks, and mpmath's global `mp` context,
which `bernoulli_over_factorial` computes in, is not thread-safe either.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import mul

import mpmath
from mpmath import mp, mpf

from .precision import resolve_precision

_bernoulli: list[Fraction] = [Fraction(1)]          # B_0, B_1, ... ("first" kind, B_1 = -1/2)
_stirling2: list[list[int]] = [[1]]                 # triangle rows


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (zero for odd n > 1).

    Computed from sum_{j=0}^{n} C(n+1, j) B_j = 0 and cached.
    """
    if n < 0:
        raise ValueError("Bernoulli numbers need n >= 0")
    while len(_bernoulli) <= n:
        m = len(_bernoulli)
        acc = Fraction(0)
        for j in range(m):
            if _bernoulli[j]:
                acc += comb(m + 1, j) * _bernoulli[j]
        _bernoulli.append(-acc / (m + 1))
    return _bernoulli[n]


@lru_cache(maxsize=None)
def bernoulli_over_factorial_fraction(k: int) -> Fraction:
    """Exact B_{2k}/(2k)!."""
    return Fraction(bernoulli(2 * k), factorial(2 * k))


def bernoulli_over_factorial(k: int, prec: int | None = None) -> mpf:
    """B_{2k}/(2k)! at `prec` bits, via 2*zeta(2k)/(2*pi)^(2k).

    Used where 2k is large enough that exact rationals are impractical.
    """
    return _bernoulli_over_factorial(k, resolve_precision(prec))


@lru_cache(maxsize=1024)
def _bernoulli_over_factorial(k: int, prec: int) -> mpf:
    """bernoulli_over_factorial at a resolved precision, cached per (k, prec)."""
    if k == 0:
        return mpf(1)
    with mp.workprec(prec + 16):
        val = 2 * mpmath.zeta(2 * k) / (2 * mpmath.pi) ** (2 * k)
        return +val if k % 2 == 1 else -val


def stirling2(n: int, r: int) -> int:
    """Stirling set number: partitions of an n-set into r nonempty blocks."""
    if n < 0 or r < 0:
        raise ValueError("stirling2 needs nonnegative arguments")
    if r > n:
        return 0
    while len(_stirling2) <= n:
        m = len(_stirling2)
        prev = _stirling2[m - 1]
        row = [0] * (m + 1)
        for j in range(1, m):
            row[j] = prev[j - 1] + j * prev[j]
        row[m] = 1
        if m >= 1:
            row[0] = 0
        _stirling2.append(row)
    return _stirling2[n][r]


def binom_half_fraction(s: int, j: int) -> Fraction:
    """Exact value of C(-s - 1/2, j)."""
    if s < 0 or j < 0:
        raise ValueError("binom_half_fraction needs nonnegative arguments")
    num = Fraction(1)
    for i in range(j):
        num *= Fraction(-2 * s - 1 - 2 * i, 2)
    return num / factorial(j)


@lru_cache(maxsize=4)
def even_power_sums(kmax: int, n: int) -> tuple[int, ...]:
    """(S_0(n), S_2(n), ..., S_{2 kmax}(n)) with S_r = sum_{j<=n} j^r, stepping
    the powers of j^2."""
    squares = [j * j for j in range(1, n + 1)]
    powers = [1] * n
    out = [n]
    for _ in range(kmax):
        powers = list(map(mul, powers, squares))
        out.append(sum(powers))
    return tuple(out)

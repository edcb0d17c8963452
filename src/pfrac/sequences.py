"""Exact integer/rational sequences: Bernoulli numbers, Stirling set
numbers, half-integer binomial coefficients and even power sums, and the
one fixed-point table of B_{2i}/(2i)! (`bernoulli_table`).

Caches are shared, and callers never mutate returned values.  The exact
Bernoulli numbers grow append-only; the even power sums and the Bernoulli
table are LRU caches, and the Stirling numbers keep no table.  The table
feeds the q = 1 Laurent core, the E factors of each pole inverse and the
dilogarithm's log-series, which reads a prefix of one table per working
precision; the core, cached itself, builds its tables past the cache
(`bernoulli_table.__wrapped__`).  Single-threaded: the caches take no
locks.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import pairwise
from math import comb, factorial
from operator import mul

from mpmath.libmp import pi_fixed

from .fixed import div_fixed
from .precision import checked_int

_bernoulli: list[Fraction] = [Fraction(1)]          # B_0, B_1, ... ("first" kind, B_1 = -1/2)


def bernoulli(n: int) -> Fraction:
    """Exact Bernoulli number B_n (zero for odd n > 1).

    Computed from sum_{j=0}^{n} C(n+1, j) B_j = 0 and cached.
    """
    n = checked_int(n, "n", 0)
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


@lru_cache(maxsize=32)
def bernoulli_table(imax: int, F: int) -> tuple[tuple[int, int], ...]:
    """((man, e) for i = 1..imax) with |B_{2i}/(2i)!| = man 2^e to F bits;
    the sign of B_{2i} is (-1)^{i+1}.

    pi t coth(pi t) = sum_i c_i t^{2i} with c_i = B_{2i} (2 pi)^{2i}/(2i)!
    = (-1)^{i+1} 2 zeta(2i), all between 2 and pi^2/3 in size, so one
    fixed-point series division cosh(pi t) / (sinh(pi t)/(pi t)) in t^2
    gives every c_i to G = F + 2 bitlen(imax) + 16 fraction bits: each step
    of the division adds half a unit and carries the errors before it with
    the coefficients of pi t/sinh(pi t) as weights, which stay below 2 in
    size.  Then B_{2i}/(2i)! = c_i w^i with w = 1/(4 pi^2), its powers
    carried as G-bit mantissas.  Both Taylor series end where their
    fixed-point terms vanish, after some G/8 terms, so the division costs
    O(imax G) multiplications.  G depends on imax, so a prefix of a longer
    table differs from a shorter table in its last bits.
    """
    G = F + 2 * imax.bit_length() + 16
    pi2 = pi_fixed(G + 8) ** 2 >> G + 16  # pi^2 2^G
    cosh = [1 << G]  # pi^{2n}/(2n)! 2^G
    while cosh[-1]:
        n = len(cosh)
        cosh.append(cosh[-1] * pi2 // ((2 * n - 1) * 2 * n << G))
    sinhc = [t // (2 * n + 1) for n, t in enumerate(cosh)]  # pi^{2n}/(2n+1)! 2^G
    c = div_fixed(cosh, sinhc, imax + 1, G)
    w = (1 << 2 * G + 8) // (4 * pi2)  # 2^(G+8)/(4 pi^2)
    out, pm, pe = [], 1, 0  # w^i = pm 2^pe
    for i in range(1, imax + 1):
        pm, pe = pm * w, pe - G - 8
        extra = pm.bit_length() - G
        pm, pe = pm >> extra, pe + extra
        man = abs(c[i]) * pm >> G
        out.append((man, pe))
    return tuple(out)


def stirling2(n: int, r: int) -> int:
    """Stirling set number: partitions of an n-set into r nonempty blocks,
    from the explicit sum S(n, r) = sum_{i<=r} (-1)^{r-i} C(r, i) i^n / r!,
    with no table kept."""
    n, r = checked_int(n, "n", 0), checked_int(r, "r", 0)
    return sum((-1) ** (r - i) * comb(r, i) * i ** n for i in range(r + 1)) // factorial(r)


def binom_half_fraction(s: int, j: int) -> Fraction:
    """Exact value of C(-s - 1/2, j)."""
    s, j = checked_int(s, "s", 0), checked_int(j, "j", 0)
    num = Fraction(1)
    for i in range(j):
        num *= Fraction(-2 * s - 1 - 2 * i, 2)
    return num / factorial(j)


@lru_cache(maxsize=4)
def even_power_sums(kmax: int, n: int) -> tuple[int, ...]:
    """(S_0(n), S_2(n), ..., S_{2 kmax}(n)) with S_r = sum_{j<=n} j^r, exact.

    Every j <= n is 2^a j' for an odd j' <= n >> a, so
    S_{2l}(n) = sum_a 4^{la} O_{2l}(n >> a), O_r(x) the sum of j'^r over odd
    j' <= x: the powers of the odd j' only are stepped by their squares,
    each O is a prefix sum of them, and the 4^{la} are shifts (Horner in
    4^l), about half the multiplications and additions of stepping every
    j."""
    cuts = [0] + [(n >> a) + 1 >> 1 for a in reversed(range(n.bit_length()))]  # odd j' <= n >> a
    squares = [j * j for j in range(1, n + 1, 2)]
    powers = [1] * len(squares)
    out = [n]
    for l in range(1, kmax + 1):
        powers = list(map(mul, powers, squares))
        total = odd = 0
        for lo, hi in pairwise(cuts):
            odd += sum(powers[lo:hi])  # O_{2l}(n >> a)
            total = (total << 2 * l) + odd
        out.append(total)
    return tuple(out)

"""The q = 1 Laurent core: the coefficients of exp(-Phat(x)) on fixed-point
integers, for the oracle `residues.c01l_exact`/`q01_exact`.

It uses the closed form
prod_{j<=N}(1 - e^{jx}) = (-1)^N N! x^N exp(Phat(x)),
Phat(x) = S_1(N) x/2 + sum_k B_{2k} S_{2k}(N) x^{2k} / (2k (2k)!),
with S_r(N) = sum_{j<=N} j^r, so a single series exponential produces every
coefficient.  That exponential runs on fixed-point integers
(`fixed.exp_fixed`) after the scaling x -> 2^-r x of `_laurent_core`, which
takes its B_{2i}/(2i)! from the fixed-point table `sequences.bernoulli_table`
that the dilogarithm and the pole inverses share.  `_oracle_sum` reads a
coefficient of a product with the core exactly on integers.  This lives
outside `residues` because the benchmark workers compile pfrac from source,
and the compile of the largest module sets a floor under their peak
memory.  Single-threaded, like `residues`: the core's cache takes no lock,
and it computes in mpmath's global `mp` context.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
from mpmath import mp, mpf

from .fixed import exp_fixed, man_exp, shifted
from .sequences import bernoulli_table, even_power_sums


def _laurent_guard(N: int) -> int:
    """Fraction bits `_laurent_core` carries above its target: the terms of
    its recurrence cancel by up to 0.28 N bits."""
    return N // 4 + N.bit_length()


@lru_cache(maxsize=16)
def _laurent_core(N: int, wprec: int, guard: int | None = None) -> tuple:
    """Coefficients of exp(-Phat(x)) to order x^{N-1}, good to wprec bits
    when `guard` (default `_laurent_guard(N)`) covers the cancellation.

    Runs fixed.exp_fixed on the series in t = 2^r x, r = floor(log2(N/(2 pi))),
    whose coefficients g_n 2^{-rn} are all at least 1, so fraction bits are
    relative bits; with r + 2 some drop below 1, and tens of bits are lost
    at N = 120.  They grow to about 2^1800 at N = 1000, and exp_fixed
    carries each to F + fixed.EXP_SLACK significant bits: the values agree
    with whole fixed-point integers to a bit at N = 40 .. 1000, in about two
    thirds of the time.  The terms of the recurrence cancel by up to 0.28 N
    bits.  With F = wprec + guard fraction bits, and B_{2i}/(2i)! from
    `sequences.bernoulli_table` at F bits (built past its cache, which would
    only hold tables no one asks for again), every coefficient stays within
    2 bits of wprec at the default guard (measured against wprec + 400 bits
    for N = 20 .. 1000).  Only k f_k for k = 1 and even k are nonzero:
    -S_1/2 and -B_{2i}/(2i)! S_{2i}.  Each g_n is returned as an mpf of F
    bits, so a larger guard also buys bits against cancellation in a sum
    over the g_n.  The same construction at a 64-bit target is the shadow
    that `residues._oracle` checks each full value against.
    """
    F = wprec + (_laurent_guard(N) if guard is None else guard)
    r = math.floor(math.log2(N / (2 * math.pi)))
    S = even_power_sums((N - 1) // 2, N)
    ka = [0] * N
    if N > 1:
        ka[1] = -shifted(N * (N + 1), F - r - 2)
    # uncached: this core is cached itself and asks for each table once
    for i, (man, e) in enumerate(bernoulli_table.__wrapped__((N - 1) // 2, F), 1):
        ka[2 * i] = (-1) ** i * shifted(man * S[i], e + F - 2 * i * r)
    with mp.workprec(F):
        return tuple(mpf((g, r * n - F)) for n, g in enumerate(exp_fixed(ka, N, F)))


def _oracle_sum(g: tuple, weights: list, N: int, wprec: int) -> mpf:
    """(-1)^N/N! sum_{a<N} w_a g_{N-1-a}/a! for integer weights w_a.

    The core's values are dyadic, so the sum runs exactly on integers,
    times (N-1)!, and is rounded once at wprec: only the core's error
    reaches the value, amplified by whatever cancellation the sum has."""
    parts = [man_exp(x) for x in reversed(g)]  # parts[a] is g_{N-1-a}
    low = min((e for m, e in parts if m), default=0)
    total, f = 0, 1  # f = (N-1)!/a!
    for a in range(N - 1, -1, -1):
        m, e = parts[a]
        if m and weights[a]:
            total += weights[a] * f * (m << e - low)
        f *= a
    with mp.workprec(wprec):
        return mpmath.ldexp(mpf((-1) ** N * total)
                            / (math.factorial(N - 1) * math.factorial(N)), low)

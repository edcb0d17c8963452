"""The Laurent series builders: the home of the q = 1 core for the oracle
`residues.c01l_exact`/`q01_exact` and of the series of every other pole's
inverse, `residues._pole_inverse`.  Both run one `fixed.exp_fixed` on
fixed-point integers and take their E-factor terms from one loop,
`_add_e_factors`, with B_{2i}/(2i)! from `sequences.bernoulli_table`, the
table that the dilogarithm shares.

The q = 1 core uses the closed form
prod_{j<=N}(1 - e^{jx}) = (-1)^N N! x^N exp(Phat(x)),
Phat(x) = S_1(N) x/2 + sum_k B_{2k} S_{2k}(N) x^{2k} / (2k (2k)!),
with S_r(N) = sum_{j<=N} j^r, so a single series exponential produces every
coefficient.  It runs after the scaling x -> 2^-r x of `_laurent_core`
and keeps its linear term, so the oracle's weights stay the powers of sigma.
`_oracle_sum` reads a coefficient of a product with the core exactly on
integers.  A pole h/k of order s = floor(N/k) takes the series of
`_pole_series` in t = -i y instead: the E factors of its s full cycles, and
per residue class r = hj mod k the power sums of j times the cotangent
derivatives of `_cot_table`, with the linear term left to sigma.

This lives outside `residues` because the benchmark workers compile pfrac
from source, and the compile of the largest module sets a floor under their
peak memory.  Single-threaded, like `residues`: the caches take no lock,
and it computes in mpmath's global `mp` context.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul

import mpmath
from mpmath import mp, mpf

from .fixed import exp_fixed, man_exp, powers, shifted, unfix
from .sequences import bernoulli_table, even_power_sums
from .sine_products import _cot_bits, _cot_orders, _phase, _phase_bits


def _laurent_guard(N: int) -> int:
    """Fraction bits `_laurent_core` carries above its target: the terms of
    its recurrence cancel by up to 0.28 N bits."""
    return N // 4 + N.bit_length()


def _add_e_factors(ka: list, table: tuple, n: int, F: int, c: int, r: int) -> None:
    """Add to ka[2l] the integer 2l a_{2l} 2^F of the series
    a(u) = -sum_l B_{2l} S_{2l}(n) x^{2l} / (2l (2l)!) in u, x^2 = c 2^{-2r} u^2,
    for the (man, e) of |B_{2l}/(2l)!| in `table` (l = 1..len(table)):
    (-c)^l S_{2l}(n) |B_{2l}/(2l)!| 2^{-2lr}, one exact integer
    |c|^l man S_{2l}(n) rounded down once and then signed.  This is the
    E-factor part of log prod_{mu<=n} 1/E(mu x), E(x) = (e^x - 1)/x, without
    its linear term: c = 1 in the core's scaled variable u = 2^r x, and
    c = -k^2, r = 0 in the pole variable t of x = k y = i k t."""
    S = even_power_sums(len(table), n)
    for l, (man, e) in enumerate(table, 1):
        v = shifted(abs(c) ** l * man * S[l], e + F - 2 * l * r)
        ka[2 * l] += (-1 if c > 0 else 1) ** l * v


@lru_cache(maxsize=16)
def _laurent_core(N: int, wprec: int, guard: int) -> tuple:
    """Coefficients of exp(-Phat(x)) to order x^{N-1}, good to wprec bits
    when the `guard` bits above them, at least `_laurent_guard(N)`, cover
    the cancellation.

    Runs fixed.exp_fixed on the series in t = 2^r x, r = floor(log2(N/(2 pi))),
    whose coefficients g_n 2^{-rn} are all at least 1, so fraction bits are
    relative bits; with r + 2 some drop below 1, and tens of bits are lost
    at N = 120.  They grow to about 2^1800 at N = 1000, and exp_fixed
    carries each to F + fixed.EXP_SLACK significant bits: the values agree
    with whole fixed-point integers to a bit at N = 40 .. 1000.  Its short
    products drop the low bits of each k f_k that reach only below
    fixed.EXP_GUARD guard bits, and leave every coefficient as close to a
    core built 300 bits wider as full-length products did.  The terms of
    the recurrence cancel by up to 0.28 N bits.  With F = wprec + guard
    fraction bits, and B_{2i}/(2i)! from `sequences.bernoulli_table` at F
    bits (built past its cache, which would only hold tables no one asks
    for again), every coefficient stays within 2 bits of wprec at the
    guard `_laurent_guard(N)` (measured against wprec + 400 bits for
    N = 20 .. 1000).
    Only k f_k for k = 1 and even k are nonzero:
    -S_1/2 and -B_{2i}/(2i)! S_{2i}.  Each g_n is returned as an mpf of F
    bits, so a larger guard also buys bits against cancellation in a sum
    over the g_n.  The same construction at a 64-bit target is the shadow
    that `residues._oracle` checks each full value against.
    """
    F = wprec + guard
    r = math.floor(math.log2(N / (2 * math.pi)))
    ka = [0] * N
    if N > 1:
        ka[1] = -shifted(N * (N + 1), F - r - 2)
    # uncached: this core is cached itself and asks for each table once
    _add_e_factors(ka, bernoulli_table.__wrapped__((N - 1) // 2, F), N, F, 1, r)
    with mp.workprec(F):
        return tuple(mpf((g, r * n - F)) for n, g in enumerate(exp_fixed(ka, N, F)))


def _pole_series(h: int, k: int, N: int, F: int) -> list:
    """[i a_i 2^F for i < s] as integers, s = floor(N/k), for the series
    a(t) = -R(t) = -(L(i t) - i N(N+1) t/4) of the pole h/k (see
    `residues._pole_inverse`), whose coefficients are real:

    * the E factors give `_add_e_factors` at c = -k^2: all positive in t;
    * the residue classes r = hj mod k give
      -sum_r P_i(r) cot^{(i-1)}(pi r/k) / (2^i (i-1)!), with the integer
      power sums P_i(r) = sum_{j<=N, j != 0 mod k, hj = r mod k} j^i and the
      fixed-point orders of `_cot_table`, whose 2^i cancels: one exact dot
      product per i, rounded down once.

    B_{2l}/(2l)! are read at F bits from `sequences.bernoulli_table`, and the
    cot table is built for wprec = F."""
    s = N // k
    ka = [0] * s
    _add_e_factors(ka, bernoulli_table((s - 1) // 2, F), s, F, -k * k, 0)
    P = {h * c % k: [sum(col) for col in zip(*(accumulate(repeat(j, s - 1), mul, initial=1)
                                                for j in range(c, N + 1, k)))]
         for c in range(1, k)}  # P[r][i], the j = c mod k in class r = hc mod k
    Fc, cots = _cot_table(k, s - 2, F)
    for i in range(1, s):
        ka[i] -= (sum(P[r][i] * cots[r - 1][i - 1] for r in P) << F) // math.factorial(i - 1) >> Fc
    return ka


@lru_cache(maxsize=256)
def _cot_table(k: int, n: int, wprec: int) -> tuple:
    """(Fc, rows): cot^{(j)}(pi r/k) = rows[r-1][j] 2^(j+1-Fc) for j <= n and
    r = 1..k-1, each row the real parts of the closed form `_cot_orders`
    from b = 1/(zeta^r - 1) at Fc = `_cot_bits(wprec, n)` fraction bits,
    the closed form's guard bits above wprec.  The k - 1 roots zeta^r are
    one `fixed.powers` walk of the phase zeta = e^{2 pi i/k} (`_phase`) on
    T = `_phase_bits(k, wprec)` fraction bits, within about (1 + sqrt(2)) r
    units of 2^-T: far below the 2^-wprec at which b is formed.  At
    r/k = 1/2, b = -1/2 is exact and so are the zeros of the even orders.
    Shared by every h and N with the same k and floor(N/k) - 2 = n."""
    Fc, T = _cot_bits(wprec, n), _phase_bits(k, wprec)
    px, py = powers(*_phase(k, 4 % (4 * k), T), T, k)
    with mp.workprec(wprec):
        bs = [1 / (unfix(x, y, -T) - 1) for x, y in zip(px[1:], py[1:])]
    return Fc, tuple(tuple(x for x, _, _ in _cot_orders(n, 1, b, Fc)) for b in bs)


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

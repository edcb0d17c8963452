"""Exact and semi-exact computations around the restricted partition
generating function: Farey pole enumeration, residues of
Q(z; N, sigma) = e^{2 pi i sigma z} / prod_{j<=N} (1 - e^{2 pi i j z}),
the conversion of the Q into the coefficients C, restricted partition
counts, the dominant simple-pole sums, and a high-precision Laurent
oracle for the coefficients at the pole q = 1.

The Laurent oracle takes the coefficients of exp(-Phat(x)) from
`laurent._laurent_core` (see that module): it builds one core per N at 64
bits above the label and checks each value against a shadow core built the
same way, with the same cancellation guard, at a 64-bit target (`_oracle`).
That check, like `_q_fixed`'s rounding monitor at the other poles, reruns a
short value once through `precision.rerun_short`.

A pole h/k of any order s = floor(N/k) takes its Laurent data from
`_pole_inverse`, which runs the same construction locally: with
y = 2 pi i (z - h/k), the denominator is A(0) exp(L(y)), where the constant
A(0) = k^s prod_{j <= N mod k} (1 - zeta^{hj}) is one sine product and a
phase.  L(y) has the linear term N(N+1) y/4 and, in t = -i y, real
coefficients otherwise: the E factors add the Bernoulli terms of Phat with
N -> s, x -> k y, and the analytic factors add, per residue class
r = hj mod k, integer power sums of j times the cotangent derivatives
cot^{(i)}(pi r/k) of one sweep.  `laurent._pole_series` builds that real
series on fixed-point integers, next to the q = 1 core and with the same
E-factor loop, and one `fixed.exp_fixed` of length s gives the inverse.
The linear term goes into sigma: Q_{h k sigma}(N) is zeta^{h sigma} times a
polynomial of degree s - 1 in sigma' = sigma - N(N+1)/4, and
`_pole_inverse` caches its coefficients as fixed-point integers on one
exponent, so `_q_fixed` evaluates it exactly on integers (4 sigma' is an
integer).  This is the one residue route: `_folded` evaluates one pole
per conjugate pair on one set of sigma'-powers, `_folded_sum` adds the
poles of the residue-sum identity and of the dominant families A, C, D and
E exactly on integers and forms one mpc at the end, and `residue_report`
prints them.  The C come from the same polynomial: the binomial transform
of the Q is a forward difference in sigma, so `_c_from_q_all` evaluates
the differenced powers once per order through `_q_fixed`, one rotation and
one monitored rounding per C.  sigma is an integer everywhere, as in the
paper: it indexes the C_{h k ell} (sigma = 1..ell) and the residue-sum
identity, and every entry point refuses any other sigma with ValueError
(`precision.checked_int`).  Every phase e^{i pi M/(2k)} (zeta^{h sigma}
and the phase of A(0), taken together by `_q_fixed`, the sine product's
recurrence step and the poles of `reconstruct_product`) is a power of one
fixed-point e^{i pi/(2k)}, `sine_products._phase`.

Single-threaded: all of it runs in mpmath's global `mp` context, and the
module caches take no locks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, gcd
from operator import add, mul

import mpmath
from mpmath import mp, mpc, mpf

from .precision import (GUARD_BITS, HPComplex, HPReal, checked_int, rerun_short,
                        resolve_precision)
from .laurent import _laurent_core, _laurent_guard, _oracle_sum, _pole_series
from .fixed import exp_fixed, to_fixed, unfix
from .sine_products import _phase, _phase_bits, _sine_product

@dataclass(frozen=True, order=True)
class FareyFraction:
    h: int
    k: int

    def __post_init__(self):
        k = checked_int(self.k, "k", 1)
        if gcd(checked_int(self.h, "h", 0, k - 1), k) != 1:
            raise ValueError(f"{self.h}/{self.k} is not a reduced fraction")

    def __str__(self):
        return f"{self.h}/{self.k}"

    @classmethod
    def _reduced(cls, h: int, k: int) -> FareyFraction:
        """h/k without __post_init__'s checks, for a fraction that is
        reduced and in [0, 1) by construction."""
        f = object.__new__(cls)
        object.__setattr__(f, "h", h)
        object.__setattr__(f, "k", k)
        return f


def farey(N: int) -> list[FareyFraction]:
    """Farey fractions of order N in [0, 1), ascending.  The Stern-Brocot
    steps make only reduced fractions, so they skip FareyFraction's
    checks."""
    N = checked_int(N, "N", 1)
    out = [FareyFraction(0, 1)]
    if N == 1:
        return out
    a, b, c, d = 0, 1, 1, N
    while (c, d) != (1, 1):
        out.append(FareyFraction._reduced(c, d))
        step = (N + b) // d
        a, b, c, d = c, d, step * c - a, step * d - b
    return out


_partition_tables: dict[int, list[int]] = {}

P_RESTRICTED_MAX_N = 100_000
"""Largest n that p_restricted accepts: its table holds n + 1 integers below
p(n) (about 20 MB at this cap, p(10^5) ~ 10^346) and costs N n additions."""


def p_restricted(N: int, n: int) -> int:
    """Partitions of n into at most N parts, by the bounded-part DP (exact).

    Raises ValueError for n > P_RESTRICTED_MAX_N before building a table.
    """
    N, n = checked_int(N, "N", 0), checked_int(n, "n", 0, P_RESTRICTED_MAX_N)
    if N == 0:
        return 1 if n == 0 else 0
    table = _partition_tables.get(N)
    if table is None or len(table) <= n:
        size = min(max(n + 1, 2 * len(table) if table else 64), P_RESTRICTED_MAX_N + 1)
        table = [1] + [0] * (size - 1)
        for part in range(1, N + 1):
            for amount in range(part, size):
                table[amount] += table[amount - part]
        _partition_tables[N] = table
    return table[n]


# -- residues -----------------------------------------------------------------

def _exact_sum(terms) -> tuple:
    """(re, im, low): the sum of the (x + i y) 2^e of terms, exact on their
    lowest exponent."""
    low = min(e for _, _, e in terms)
    return sum(x << (e - low) for x, _, e in terms), sum(y << (e - low) for _, y, e in terms), low


@lru_cache(maxsize=4096)
def _pole_inverse(h: int, k: int, N: int, wprec: int):
    """Cached polynomial of the pole h/k, s = floor(N/k), centred at
    c = N(N+1)/4: Q_{h k sigma}(N) = zeta^{h sigma} e^{-i pi M/(2k)}
    sum_{i<s} d_i sigma'^i with sigma' = sigma - c (in Z/4 for the integer
    sigma), returned as (re, im, E) with d_i = (re[i] + i im[i]) 2^E, where,
    in t = -i y, with A(0) = k^s P e^{i pi M/(2k)} below,

        d_i = (-i)^{s-1-i} G_{s-1-i} / (k^s P (-k)^s s! i!),  G = exp(-R(t)),

    A(y) = prod_{mu<=s} E(mu k y) * prod_{j<=N, j != 0 mod k} (1 - zeta^{hj} e^{jy}),
    y = 2 pi i (z - h/k), E(x) = (e^x - 1)/x, zeta = e^{2 pi i/k},
    L = log(A/A(0)) and R(t) = L(i t) - i c t:

    * A(0) = k^s prod_{j<=m} (1 - zeta^{hj}), m = N mod k, because each of the
      s full cycles of residues gives prod_{r<k} (1 - zeta^r) = k; and
      1 - zeta^{hj} = -i 2 sin(pi h j/k) e^{pi i h j/k}, so the partial product
      is the sine product P times (-i)^m e^{pi i h m(m+1)/(2k)}, the phase
      e^{i pi M/(2k)} of M = h m(m+1) - k m.  `_q_fixed` takes that phase
      with zeta^{h sigma}, so each d_i is real or imaginary; the sine
      product's recurrence step e^{i pi h/k} is the `_phase` of 2h.
    * log E(x) = x/2 + sum_l B_{2l} x^{2l} / (2l (2l)!), and
      [y^i] log(1 - w e^{jy}) = j^i lambda_i(w) with, from
      1/(1 - e^{i phi}) = 1/2 + (i/2) cot(phi/2),
      lambda_i(zeta^r) = [i = 1]/2 - (i/2)(-i/2)^{i-1} cot^{(i-1)}(pi r/k) / i!.
      The y^1 halves add up to c, which e^{sigma y} takes as sigma', and in
      t every other coefficient is real, so `laurent._pole_series` builds
      -R as fixed-point integers and one real `fixed.exp_fixed` gives G.
    * The centred polynomial is the better conditioned one: its terms
      cancel by far fewer bits over sigma in [-2N, N(N+1)/2 + 2N] than those
      of the polynomial in sigma.  At 0/1 and 1/2, R is even, so every d_i
      with s - 1 - i odd is an exact integer 0 and Q at N(N+1)/2 - sigma is
      (-1)^{s-1} times Q at sigma, bit for bit.

    The q = 1 core `laurent._laurent_core` keeps its own variable x and its
    linear term: moving that term into the oracle's weights would multiply
    them by powers of N(N+1)/4.  The result is exact integer work on
    to_fixed(1/(k^s P (-k)^s s! (s-1)!)) at wprec + 8 bits and the G_n at
    wprec fraction bits, times the integers (s-1)!/i!.  Cost: O(N s)
    integer work for the power sums, O(k s) for their dot products with the
    cot table (k - 1 sweeps of order s - 2, cached per k and s by
    `laurent._cot_table`), and one exp_fixed of length s.
    """
    s, m = divmod(N, k)
    wp = wprec + 8
    with mp.workprec(wp):
        # 1/(k^s P (-k)^s s! (s-1)!), real, to the wp bits to_fixed keeps
        inverse = 1 / (_sine_product(h, k, m, wp)
                       * ((-1) ** s * s * (k ** s * math.factorial(s - 1)) ** 2))
    x, _, E = to_fixed(inverse, wp)
    if s == 1:
        return (x,), (0,), E
    d = []  # d_{s-1-n} 2^(wprec-E) = x (-i)^n G_n 2^wprec (s-1)!/(s-1-n)!
    for n, g in enumerate(exp_fixed(_pole_series(h, k, N, wprec), s, wprec)):
        u, v = ((x, 0), (0, -x), (-x, 0), (0, x))[n % 4]
        g *= math.perm(s - 1, n)
        d.append((u * g, v * g))
    return (*zip(*reversed(d)), E - wprec)


def _work_prec(prec: int, s: int, N: int) -> int:
    return max(prec + 64, 64 + 8 * s + 2 * max(1, N).bit_length())


def _sigma_powers(sigma: int, n: int, N: int) -> tuple:
    """(p, G): the powers p[i] 2^-G of sigma' = sigma - N(N+1)/4, the pole
    inverses' centre, for i < n, exact on the one exponent G = 2 (n - 1) of
    the last: p[i] = a^i 4^(n-1-i) for the integer a = 4 sigma - N(N+1)."""
    p = accumulate(repeat(4 * sigma - N * (N + 1), n - 1), mul, initial=1)
    return [x << 2 * (n - 1 - i) for i, x in enumerate(p)], 2 * (n - 1)


def _q_fixed(h: int, k: int, j: int, N: int, prec: int, powers: tuple) -> tuple:
    """(re, im, e, wprec): zeta^{h j} e^{-i pi M/(2k)} sum_i p_i 2^-G d_i =
    (re + i im) 2^e for the pole's coefficients d_i and powers = (p, G), at
    least s values p_i 2^-G.  The one place where a pole polynomial is
    evaluated, rotated and checked: with the `_sigma_powers` of
    sigma' = sigma - N(N+1)/4 and j = sigma it is Q_{h k sigma}(N), and
    `_c_from_q_all` passes the differences of those powers and j = ell.

    The sum over the pole's rounded coefficients is exact integer
    arithmetic, so their rounding, about 2^-wprec of each |p_i 2^-G d_i|, is
    the only error it adds.  The monitor bounds it by the largest term's bit
    length: the result is short by the bits by which that bound exceeds the
    larger of 2^-prec of the result's larger part and 2^-prec absolute, and
    `precision.rerun_short` rebuilds the coefficients once with that many
    bits and GUARD_BITS more.  zeta^{h j} e^{-i pi M/(2k)}, with the phase
    M = h m(m+1) - k m, m = N mod k, of A(0) (see `_pole_inverse`), is the
    one `_phase` of the exactly reduced 4 h j - M mod 4k.
    """
    s, m = divmod(N, k)
    p, G = powers

    def run(extra):
        wprec = _work_prec(prec, s, N) + extra
        re, im, E = _pole_inverse(h, k, N, wprec)
        tx, ty = [*map(mul, p, re)], [*map(mul, p, im)]
        largest = max(map(add, map(abs, tx), map(abs, ty)))  # >= the largest |term|
        x, y = sum(tx), sum(ty)
        size = max(abs(x), abs(y))  # <= |sum|
        T = _phase_bits(k, wprec)
        zx, zy = _phase(k, (4 * h * j - h * m * (m + 1) + k * m) % (4 * k), T)
        # error <= largest 2^(E - G + 8 - wprec) < 2^(bitlen(largest) + E - G + 8 - wprec):
        # within 2^-prec of the sum (>= 2^(bitlen(size) - 1 + E - G)) for
        # bitlen(largest) <= r, and within 2^-prec absolutely for bitlen(largest) <= u
        r, u = size.bit_length() - 9 - prec + wprec, wprec - prec - 8 - E + G
        short = largest.bit_length() - max(u, r if size else u)
        return (x * zx - y * zy, x * zy + y * zx, E - G - T, wprec), short
    return rerun_short(run, f"residue at {h}/{k}")


def _check_pole(h: int, k: int, N: int) -> tuple:
    """(h, k, N) as ints, or ValueError unless h/k is a reduced fraction in
    [0, 1) and a pole at N >= 1."""
    N = checked_int(N, "N", 1)
    f = FareyFraction(checked_int(h, "h"), checked_int(k, "k", 1, N))
    return f.h, f.k, N


def q_general(h: int, k: int, sigma: int, N: int, prec: int | None = None) -> HPComplex:
    """Q_{h k sigma}(N) = 2 pi i Res_{z=h/k} Q(z; N, sigma), any pole order.

    Expands every factor locally in y = 2 pi i (z - h/k): the s = floor(N/k)
    factors with k | j contribute the pole, everything else stays analytic.
    `_q_fixed` evaluates `_pole_inverse`'s cached polynomial in
    sigma' = sigma - N(N+1)/4 exactly on integers, and rebuilds it once,
    sized by the measured shortfall, when its rounding misses the label
    (PrecisionLossError if the rebuild misses it too).  sigma must be an
    integer (ValueError otherwise).
    """
    h, k, N = _check_pole(h, k, N)
    prec = resolve_precision(prec)
    sigma = checked_int(sigma, "sigma")
    re, im, e, wprec = _q_fixed(h, k, sigma, N, prec, _sigma_powers(sigma, N // k, N))
    with mp.workprec(wprec):
        return HPComplex(unfix(re, im, e), prec)


def _folded(poles, sigma: int, N: int, prec: int):
    """(f, paired, `_q_fixed`'s (re, im, e, wprec)) for each pole f with
    2h <= k of a set closed under h -> k - h, on one `_sigma_powers`.

    sigma is an integer, so Q_{(k-h) k sigma} = conj Q_{h k sigma}: the
    pole k - h is the partner of every f with 0 < 2h < k (paired) and takes
    the same integers with the imaginary part negated, exactly, and 0/1 and
    1/2 stand alone."""
    powers = _sigma_powers(sigma, max(N // f.k for f in poles), N)
    for f in poles:
        if 2 * f.h <= f.k:
            yield f, 0 < 2 * f.h < f.k, _q_fixed(f.h, f.k, sigma, N, prec, powers)


def _folded_sum(poles, sigma: int, N: int, wp: int) -> tuple:
    """(re, im, e): the sum of Q_{h k sigma}(N) over the poles, a set closed
    under h -> k - h, exact on integers on one exponent (`_exact_sum`):
    each pole of `_folded` at wp bits adds Q alone and 2 Re Q with its
    partner.  So the sum does not depend on the poles' order, and it is
    real but for the imaginary parts of 0/1 and 1/2."""
    return _exact_sum([(re, 0, e + 1) if paired else (re, im, e)
                       for _, paired, (re, im, e, _) in _folded(poles, sigma, N, wp)])


def residue_sum(N: int, sigma: int, prec: int | None = None) -> HPComplex:
    """Sum of Q_{h k sigma}(N) over all Farey fractions of order N.

    Equals 0 for 0 < sigma < N(N+1)/2, -p_N(-sigma) for sigma <= 0, and
    (-1)^N p_N(sigma - N(N+1)/2) above.  The poles are folded in conjugate
    pairs and added exactly at prec + 16 bits (`_folded_sum`).
    """
    prec = resolve_precision(prec)
    sigma = checked_int(sigma, "sigma")
    with mp.workprec(prec + 16):
        return HPComplex(unfix(*_folded_sum(farey(N), sigma, N, prec + 16)), prec)


def residue_sum_expected(N: int, sigma: int) -> int:
    """Exact value of residue_sum(N, sigma): -p_N(-sigma) for sigma <= 0, 0 for
    0 < sigma < N(N+1)/2, and (-1)^N p_N(sigma - N(N+1)/2) above."""
    M = N * (N + 1) // 2
    if sigma <= 0:
        return -p_restricted(N, -sigma)
    if sigma < M:
        return 0
    return (-1) ** N * p_restricted(N, sigma - M)


def _c_from_q_all(h: int, k: int, ell: int, N: int, wprec: int) -> list:
    """[C_{h k 1}(N), ..., C_{h k ell}(N)] at wprec bits, one `_q_fixed` each.

    C_l = sum_{sigma<=l} C(l-1, sigma-1) (-zeta^h)^{l-sigma} Q_{h k sigma}(N)
    with Q_{h k sigma} = zeta^{h sigma} e^{-i pi M/(2k)} P(sigma'), P the pole
    polynomial and sigma' = sigma - N(N+1)/4, so the transform is a forward
    difference: C_l = zeta^{h l} e^{-i pi M/(2k)} (Delta^{l-1} P)(a/4),
    a = 4 - N(N+1), and `_q_fixed` at j = l evaluates it on the powers
    Delta^{l-1}[x^i](a/4), held in `_sigma_powers`' scaling.  With
    E_{t,i} = 4^i Delta^t[x^i](a/4), the Leibniz rule
    Delta^t(x g) = (x + t) Delta^t g + t Delta^{t-1} g gives

        E_{0,i} = a^i,  E_{t,i} = (a + 4t) E_{t,i-1} + 4t E_{t-1,i-1},

    exact on the scaled E_{t,i} 4^(s-1-i) after a shift by 2, so it costs
    O(ell s) and E_{t,i} = 0 for i < t: C_l is an exact 0 for l > s.  Each
    C_l is then one exact sum, one rotation and one rounding, and
    `_q_fixed`'s monitor measures it.  The one rotation is what keeps the
    label: summing the ell(ell+1)/2 terms of the transform, each rotated by
    its own rounded phase, would leave phase errors that the transform's
    cancellation, about (l-1) log2(N^2/4) bits, amplifies past the label
    where no monitor sees them."""
    h, k, N = _check_pole(h, k, N)
    a, out = 4 - N * (N + 1), []
    p, G = _sigma_powers(1, N // k, N)  # E_{0,i} 4^(s-1-i)
    for l in range(1, ell + 1):
        re, im, e, _ = _q_fixed(h, k, l, N, wprec, (p, G))
        with mp.workprec(wprec):
            out.append(unfix(re, im, e))
        t = 4 * l  # E_{l,i} from E_{l-1,i}
        p = [*accumulate(p[:-1], lambda r, x: ((a + t) * r + t * x) >> 2, initial=0)]
    return out


def c_from_q(h: int, k: int, ell: int, N: int, prec: int | None = None) -> HPComplex:
    """C_{h k ell}(N) = sum_{sigma<=ell} C(ell-1, sigma-1) (-zeta^h)^{ell-sigma} Q_{h k sigma}(N),
    as one forward difference of the pole polynomial (`_c_from_q_all`)."""
    ell = checked_int(ell, "ell", 1)
    prec = resolve_precision(prec)
    return HPComplex(_c_from_q_all(h, k, ell, N, prec + 16)[-1], prec)


# -- dominant simple-pole sums -------------------------------------------------

def a1_sum(N: int, sigma: int, prec: int | None = None) -> HPReal:
    """Simple-pole family sum over N/2 < k <= N, h in {1, k-1}:

    Im sum_k (2 (-1)^k / k^2) e^{(i pi/2)[(-N^2-N+4 sigma)/k + 3N]} prod^{-1}(1/k)_{N-k},
    evaluated as the family-A residue sum (the pole 1/2 counted once).
    """
    return family_sum(FamilySelector("A", N), sigma, prec)


@dataclass(frozen=True)
class FamilySelector:
    """One of the dominant residue families:

    A: N/2 < k <= N,       h in {1, k-1}          (simple poles)
    C: N/2 < k <= N odd,   h in {2, k-2}          (simple poles)
    D: N/2 < k <= N odd,   h in {(k-1)/2, (k+1)/2} (simple poles)
    E: N/3 < k <= N/2,     h in {1, k-1}          (double poles)
    """
    tag: str
    N: int

    def __post_init__(self):
        checked_int(self.N, "N", 1)

    def fractions(self) -> list[FareyFraction]:
        N = self.N
        out = set()
        if self.tag in ("A", "C", "D"):
            for k in range(N // 2 + 1, N + 1):
                if self.tag == "A":
                    hs = (1, k - 1)
                elif k % 2 == 0:
                    continue
                elif self.tag == "C":
                    hs = (2, k - 2)
                else:
                    hs = ((k - 1) // 2, (k + 1) // 2)
                for h in hs:
                    if 1 <= h < k and gcd(h, k) == 1:
                        out.add(FareyFraction(h, k))
        elif self.tag == "E":
            for k in range(N // 3 + 1, N // 2 + 1):
                for h in (1, k - 1):
                    if 1 <= h < k and gcd(h, k) == 1:
                        out.add(FareyFraction(h, k))
        else:
            raise ValueError(f"unknown family tag {self.tag!r}")
        if not out:
            raise ValueError(f"family {self.tag} is empty at N={N}")
        return sorted(out, key=lambda f: (f.k, f.h))


def family_sum(sel: FamilySelector, sigma: int, prec: int | None = None) -> HPReal:
    """Sum of Q_{h k sigma}(N) over the family, which is closed under
    h -> k - h: the conjugate pairs folded and added exactly at prec + 16
    bits (`_folded_sum`), the same route as `residue_sum`."""
    prec = resolve_precision(prec)
    sigma = checked_int(sigma, "sigma")
    with mp.workprec(prec + 16):
        return HPReal(unfix(*_folded_sum(sel.fractions(), sigma, sel.N, prec + 16)).real, prec)


# -- the Laurent oracle at q = 1 -----------------------------------------------

_SHADOW_BITS = 64
"""Target of the shadow core that checks each full-precision oracle value."""


def _oracle(N: int, prec: int, weights: list, floor: int = 0) -> mpf:
    """`_oracle_sum` on the full core (prec + 64 bits), accepted when the
    shadow core (_SHADOW_BITS) agrees with it to 2^(GUARD_BITS -
    _SHADOW_BITS) of max(|value|, floor).

    Both cores share the cancellation guard, and cancellation costs both the
    same number of bits, so the shadow's shortfall from its 64-bit target is
    the full value's; the check passes while that shortfall is under
    GUARD_BITS, which leaves the full value within 2^(-prec-48) of the exact
    one.  When it fails, the shortfall past GUARD_BITS is reported, and
    `precision.rerun_short` rebuilds the pair once with both guards raised
    by the whole shortfall.  A full value within its own error (err 2^-prec)
    of 0, as at an exact zero of q01_exact, gives no scale: the shortfall is
    then taken against the floor.
    """
    def run(extra):
        guard, wprec = _laurent_guard(N) + extra, prec + 64
        full = _oracle_sum(_laurent_core(N, wprec, guard), weights, N, wprec)
        shadow = _oracle_sum(_laurent_core(N, _SHADOW_BITS, guard), weights, N, _SHADOW_BITS)
        with mp.workprec(wprec):
            err, scale = abs(shadow - full), max(abs(full), floor)
            if err <= mpmath.ldexp(scale, GUARD_BITS - _SHADOW_BITS):
                return full, 0
            if abs(full) <= mpmath.ldexp(err, 16 - prec):
                scale = floor
            lost = _SHADOW_BITS + mpmath.mag(err) - mpmath.mag(scale) if scale else guard
        return full, max(1, lost - GUARD_BITS)  # short by the exact check, whatever mag reads
    return rerun_short(run, f"Laurent oracle at N={N}")


def c01l_exact(N: int, ell: int, prec: int | None = None) -> HPReal:
    """C_{0 1 ell}(N): coefficient of (q-1)^{-ell} in prod_{j<=N} 1/(1-q^j).

    Evaluated as (-1)^N/N! [x^{N-1}] e^x (e^x-1)^{ell-1} exp(-Phat(x)) (see
    module docstring) from one Laurent core at prec + 64 bits, accepted when
    a 64-bit shadow core agrees with it to 2^-48 relative, and otherwise
    rebuilt once with a guard raised by the shortfall (`_oracle`).
    """
    N = checked_int(N, "N", 1)
    ell = checked_int(ell, "ell", 1, N)
    prec = resolve_precision(prec)
    # e^x (e^x - 1)^{ell-1} = sum_i C(ell-1, i) (-1)^{ell-1-i} e^{(i+1)x}
    signed = [comb(ell - 1, i) * (-1) ** (ell - 1 - i) for i in range(ell)]
    powers, weights = [1] * ell, []
    for _ in range(N):
        weights.append(sum(map(mul, signed, powers)))
        powers = [p * (i + 1) for i, p in enumerate(powers)]
    return HPReal(_oracle(N, prec, weights), prec)


def q01_exact(N: int, sigma: int, prec: int | None = None) -> HPReal:
    """Q_{0 1 sigma}(N) = (-1)^N/N! [x^{N-1}] exp(sigma x - Phat(x)), integer sigma.

    The weights are the integers sigma^a.  Checked by the shadow core like
    c01l_exact, but to 2^-48 of max(|Q|, 1): Q is a polynomial in sigma with
    exact zeros (N = 4, sigma = 5), where only an absolute error can be small.
    """
    N, sigma = checked_int(N, "N", 1), checked_int(sigma, "sigma")
    prec = resolve_precision(prec)
    return HPReal(_oracle(N, prec, [sigma ** a for a in range(N)], 1), prec)


# -- reconstruction and reports -------------------------------------------------

def principal_part(h: int, k: int, N: int, prec: int | None = None) -> list[HPComplex]:
    """[C_{h k 1}(N), ..., C_{h k s}(N)] for the pole of order s at h/k."""
    h, k, N = _check_pole(h, k, N)
    prec = resolve_precision(prec)
    return [HPComplex(c, prec) for c in _c_from_q_all(h, k, N // k, N, prec + 16)]


def reconstruct_product(N: int, q, prec: int | None = None) -> HPComplex:
    """Evaluate the full partial-fraction expansion of prod_{j<=N} 1/(1-q^j)
    at the point q, summing every pole's principal part.  The principal
    parts are computed once per conjugate pair, as C_{(k-h) k l} =
    conj C_{h k l}, and each pole's terms are evaluated at its own q - pole.
    Each pole e^{2 pi i h/k} is the `_phase` of 4h on T fraction bits,
    within one unit of 2^-T, and a q within two units of it in each part
    lies on the pole as far as that phase can tell: ValueError."""
    prec = resolve_precision(prec)
    wp = prec + 16
    with mp.workprec(wp):
        qv = mpc(q)
        total = mpc(0)
        for f in farey(N):
            if 2 * f.h > f.k:
                continue
            T = _phase_bits(f.k, wp)
            part = [c.value for c in principal_part(f.h, f.k, N, wp)]
            poles = {f.h: part}
            if 0 < 2 * f.h < f.k:
                poles[f.k - f.h] = [c.conjugate() for c in part]
            for h, coeffs in poles.items():
                d = qv - unfix(*_phase(f.k, 4 * h, T), -T)
                if max(abs(d.real), abs(d.imag)) <= mpmath.ldexp(1, 1 - T):
                    raise ValueError(f"q = {q} lies on the pole e^(2 pi i {h}/{f.k})")
                base = 1 / d
                power = mpc(1)
                for coeff in coeffs:
                    power *= base
                    total += coeff * power
    return HPComplex(total, prec)


REPORT_DIGITS = 30  # significant digits of each part in residue_report


def residue_report(N: int, sigma: int, prec: int | None = None) -> list[dict]:
    """Rows {h, k, order, re, im} for every pole of Q(z; N, sigma), each
    part to REPORT_DIGITS significant digits.

    The poles fold as in `_folded_sum` (`_folded`): `_q_fixed` runs only for
    2h <= k, and the partner k - h takes the conjugate, exactly, before the
    one conversion at working precision.  A real or imaginary part below
    2^(16-prec) |Q| is rounding noise under the precision contract and
    prints as 0.
    """
    prec = resolve_precision(prec)
    sigma = checked_int(sigma, "sigma")
    rows = []
    for f, paired, (x, y, e, wprec) in _folded(farey(N), sigma, N, prec):
        with mp.workprec(wprec):
            pair = {f.h: unfix(x, y, e)}
            if paired:
                pair[f.k - f.h] = unfix(x, -y, e)
        for h, q in pair.items():
            floor = mpmath.ldexp(abs(q), 16 - prec)
            re, im = (part if abs(part) >= floor else mpf(0) for part in (q.real, q.imag))
            rows.append({
                "h": h,
                "k": f.k,
                "order": N // f.k,
                "re": mpmath.nstr(re, REPORT_DIGITS),
                "im": mpmath.nstr(im, REPORT_DIGITS),
            })
    return sorted(rows, key=lambda row: (row["k"], row["h"]))

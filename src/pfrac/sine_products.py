"""Sine products, their Euler-Maclaurin approximation, and the congruence
statistics that decide which residues dominate.

The central objects are the products prod_{j<=m} 2 sin(pi j h/k), the
remainder T_L left after truncating the Euler-Maclaurin expansion of their
logarithm, and the maximum statistic Psi(h/k) over partial products.  Every
sine in the package comes from Goertzel's three-term recurrence
sin((j+1) theta) = 2 cos theta sin(j theta) - sin((j-1) theta) on
fixed-point integers (`_sines`), one real product per sine.
`_sine_product` multiplies those sines into one integer mantissa,
renormalised by a shift after each factor, walks the shorter of m and its
complement k - 1 - m, and builds a single mpf at the end, so the products
(up to e^{0.148 k} for h = 1) cost no mpf arithmetic.  The factors of the
Psi table come from the same recurrence (`_sine_factors`), and each Psi
walk is a run of exact integer prefix sums over a fixed-point table of
-log 2 sin(pi r/k).  Cotangent derivatives of every order up to n come from
one closed form on the integer powers of one number b (`_cot_orders`, which
the cot table of the pole series and the saddle frame read), and the sum
over l of the Euler-Maclaurin terms g_l(z)/n^{2l-1}, which the main term of
T_L and the contour's v add, is one exact integer accumulation on the same
powers (`_g_sum`), which measures its own cancellation.  The single g_l, the
oracle of that sum, stand apart from it on the integer derivative
polynomials cot^{(j)} = P_j(cot) of `_cot_polynomials`, evaluated at one
cotangent (`_g_sweep`); the float64 screen of `em_remainder_scan` reads the
same table and runs over whole blocks of (k, m) pairs as numpy arrays.
Every pole phase e^{i pi M/(2k)} is a power of one fixed-point
e^{i pi/(2k)} (`_phase`): the roots of unity of the residues, the C and
the cot table, and the recurrence step e^{i pi h/k} of every sine.

Psi convention: the figure data published for k = 211 corresponds to
max_{0<=m<k} (1/k) log|prod^{-1}(h/k)_m|, the log of the *reciprocal*
product with no outer absolute value (the m = 0 term floors it at 0).
The displayed max of |log|prod|| would be >= log(k)/k for every h (take
m = k-1) and cannot reproduce that data, so this module implements the
reciprocal-product convention.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from operator import mul as _imul

import mpmath
import numpy as np
from mpmath import mp, mpc, mpf, pi

from .dilog import clausen
from .fixed import fix, power, powers, shifted, squares, to_fixed, unfix
from .precision import GUARD_BITS, HPReal, checked_int, rerun_short, resolve_precision
from .sequences import bernoulli_over_factorial_fraction

def _sine_bits(k: int, m: int, prec: int) -> int:
    """Fraction bits of the sine recurrence for m factors of step pi h/k good
    to `prec` bits: bitlen(m) + 3 bitlen(k) guard bits (see `_sines`)."""
    return prec + m.bit_length() + 3 * k.bit_length()


def _sines(h: int, k: int, m: int, prec: int) -> list:
    """[sin(j theta) 2^wp for j = 1..m] as integers, theta = pi h/k and
    wp = `_sine_bits(k, m, prec)`, by Goertzel's three-term recurrence
    sin((j+1) theta) = 2 cos theta sin(j theta) - sin((j-1) theta):
    one real product truncated by `>> wp` per sine.  The step e^{i pi h/k}
    is the `_phase` of 2h on prec + 4 bitlen(k) >= wp fraction bits.

    A unit of rounding at step i reaches step j multiplied by
    sin((j-i) theta)/sin theta, and the step's own error shifts theta by
    about one unit over sin theta, so after j steps the error is under about
    2 j/sin theta <= j k units of 2^-wp (Gentleman, Comput. J. 12, 1969).
    Against sines no smaller than 2/k, and summed over the factors of a
    product, that fits the bitlen(m) + 3 bitlen(k) guard bits of
    `_sine_bits`."""
    wp, bits = _sine_bits(k, m, prec), prec + 4 * k.bit_length()
    x, y = _phase(k, 2 * h, bits)
    c2, s = shifted(x, wp + 1 - bits), shifted(y, wp - bits)  # 2 cos theta, sin theta
    out, prev = [], 0
    for _ in range(m):
        out.append(s)
        prev, s = s, (c2 * s >> wp) - prev
    return out


def _sine_factors(h: int, k: int, m: int, prec: int) -> list:
    """Signed factors 2 sin(pi j h/k), j = 1..m, good to `prec` bits each."""
    wp = _sine_bits(k, m, prec)
    with mp.workprec(wp):
        return [mpf((y, 1 - wp)) for y in _sines(h, k, m, prec)]


def _sine_product(h: int, k: int, m: int, prec: int) -> mpf:
    """prod_{j<=m} 2 sin(pi j h/k) for (h, k) = 1 and 0 <= m < k, as an mpf of
    `prec` bits, good to `prec` bits.

    The sines come from the recurrence of `_sines`, and the product is held
    as acc 2^e with a signed acc, shifted right to wp bits after each
    factor, which costs at most one unit of 2^-wp in relative error.  Where
    the complement k - 1 - m is shorter than m, the walk takes it instead:
    prod_{j<k} 2 sin(pi j h/k) = (-1)^{(h-1)(k-1)/2} k and
    2 sin(pi (k-i) h/k) = (-1)^{h+1} 2 sin(pi i h/k), so
    prod_{j<=m} = (-1)^{(h-1)(k-1)/2 + (h+1)(k-1-m)} k / prod_{j<=k-1-m},
    rounded once.
    """
    n = min(m, k - 1 - m)
    wp = _sine_bits(k, n, prec)
    acc, shift = 1 << wp, 0
    for y in _sines(h, k, n, prec) if n else ():
        acc *= y
        excess = acc.bit_length() - wp
        acc >>= excess
        shift += excess
    with mp.workprec(wp):
        product = mpf((acc, shift - (n + 1) * wp + n))  # exact: acc has wp bits
    with mp.workprec(prec):
        return +product if n == m else (-1) ** ((h - 1) * (k - 1) // 2 + (h + 1) * n) * k / product


def _phase_bits(k: int, wprec: int) -> int:
    """Fraction bits of the pole phases at (k, wprec): the bits of the
    recurrence step that `_sines` takes for the pole inverse's
    `_sine_product(h, k, m, wprec + 8)`, so that phase is shared."""
    return wprec + 8 + 4 * k.bit_length()


@lru_cache(maxsize=4096)
def _phase_squares(k: int, G: int) -> list:
    """`fixed.squares` of w = e^{i pi/(2k)} 2^G, each part truncated toward
    zero (`fixed.fix`), so |w| <= 1, as far as the exponents n <= k/2 of
    `_phase` need: the one expjpi behind every phase of the poles with
    denominator k and every sine step e^{i pi h/k}."""
    with mp.workprec(G + 8):
        return squares(*fix(mpmath.expjpi(mpf(1) / (2 * k)), G), G, (k // 2).bit_length())


@lru_cache(maxsize=1024)
def _phase(k: int, M: int, F: int) -> tuple:
    """e^{i pi M/(2k)} 2^F as an integer pair (x, y) within one unit of 2^-F
    in modulus, for a reduced exponent 0 <= M < 4k, from w = e^{i pi/(2k)}
    on G = F + bitlen(k) + 3 bits: M = qk + r gives i^q w^r, and
    w^r = i conj(w^(k-r)) for r > k/2, so one power w^n, n <= k/2
    (`fixed.power` on `_phase_squares`), is rotated exactly and rounded to F.

    w is within sqrt(2) units of 2^-G and the power adds under sqrt(2) (n - 1),
    so w^n is within 2 sqrt(2) n <= sqrt(2) k units of 2^-G, under a fifth
    of a unit of 2^-F, and rounding both parts adds under 0.71.  Every pole
    phase is one: zeta^{h sigma} = e^{2 pi i h sigma/k} is M = 4 h sigma
    mod 4k, and the sine step e^{i pi h/k} is M = 2h.  The memo keeps the
    reduced exponents that repeat over a dense run of sigma and across N."""
    G = F + k.bit_length() + 3
    q, r = divmod(M, k)
    if 2 * r > k:  # w^r = i conj(w^(k-r))
        y, x = power(_phase_squares(k, G), G, k - r)
    else:
        x, y = power(_phase_squares(k, G), G, r)
    x, y = ((x, y), (-y, x), (-x, -y), (y, -x))[q % 4]  # times i^q
    half = 1 << (G - F - 1)
    return (x + half) >> (G - F), (y + half) >> (G - F)


def _psi_bits(k: int, prec: int) -> int:
    """Fraction bits of the Psi walk: prec + 16 guard bits, plus bitlen(k) for
    the k - 1 rounded table entries each walk adds."""
    return prec + 16 + k.bit_length()


@lru_cache(maxsize=32)
def _neg_log_sine_table(k: int, prec: int) -> np.ndarray:
    """-log 2 sin(pi r/k) 2^F as Python integers in an object array, r = 1..k-1,
    F = _psi_bits(k, prec)."""
    F = _psi_bits(k, prec)
    with mp.workprec(F + 16):
        table = np.array([fix(-mpmath.log(f), F)[0] for f in _sine_factors(1, k, k - 1, F)],
                         dtype=object)
    table.flags.writeable = False  # the cache hands the same array to every walk
    return table


def psi(h: int, k: int, prec: int | None = None) -> HPReal:
    """Max over 0 <= m < k of (1/k) log|prod^{-1}(h/k)_m| (see module note).

    The partial sums of log|prod^{-1}| are the exact integer prefix sums of
    the fixed-point table taken in the order r = j h mod k, so the walk is
    k - 1 integer additions and one conversion to mpf.  k is an integer >= 2
    and h one of 1 <= h < k prime to it (ValueError otherwise)."""
    k = checked_int(k, "k", 2)
    if math.gcd(checked_int(h, "h", 1, k - 1), k) != 1:
        raise ValueError(f"need (h, k) = 1, got ({h}, {k})")
    prec = resolve_precision(prec)
    table = _neg_log_sine_table(k, prec)
    best = max(0, table[np.arange(1, k) * h % k - 1].cumsum().max())
    with mp.workprec(prec + 16):
        return HPReal(mpf((best, -_psi_bits(k, prec))) / k, prec)


def psi_table(k: int, prec: int | None = None) -> list:
    """Rows (h, Psi(h/k), D(h, k)) for 1 <= h < k with (h, k) = 1; k is an
    integer >= 2 (ValueError otherwise)."""
    k = checked_int(k, "k", 2)
    return [(h, psi(h, k, prec), _min_pair_product(h, k))
            for h in range(1, k) if math.gcd(h, k) == 1]


def _min_pair_product(h: int, k: int) -> int:
    """D(h, k) = min |beta gamma| over 1 <= |beta| < k, 1 <= gamma < k with
    beta h = gamma mod k: beta and -beta give gamma and k - gamma, so D is
    the least beta |beta h - p k| over 0 < beta < k and integers p.  By the
    best-approximation property of the convergents p_n/q_n of h/k,
    |beta h - p k| >= |q_n h - p_n k| for every 0 < beta < q_{n+1}, so the
    least is taken at a convergent with q_n < k (Hardy and Wright, ch. 10):
    O(log k) exact integer steps of Euclid's algorithm."""
    best, p, q, p0, q0, num, den = k * k, 0, 1, 1, 0, k, h  # p/q = 0/1, h/k = 1/(k/h)
    while q < k:
        best = min(best, q * abs(q * h - p * k))
        a, num, den = num // den, den, num % den
        p, q, p0, q0 = a * p + p0, a * q + q0, p, q
    return best


# -- cotangent derivatives ---------------------------------------------------

def _cot_bits(prec: int, n: int) -> int:
    """Fraction bits of the closed form of `_cot_orders` to order n at prec
    bits: n + bitlen(n+1) for the powers b^r, |b| >= 1/2, r <= n + 1, and
    16 guard bits."""
    return prec + n + (n + 1).bit_length() + 16


def _short(lost: int, G: int, extra: int) -> int:
    """Bits by which a sum at G bits, `extra` of them above `_cot_bits`,
    falls short of its label, from the cancellation `lost` it measured:
    lost - GUARD_BITS - extra.

    The measure reads the computed sum, whose rounding noise is about
    2^-G of the sum of magnitudes, so it cannot see past about G bits: where
    lost comes within GUARD_BITS of G the sum is at its own noise floor and
    lost is only a floor of the cancellation (at 64 bits,
    _g_sum(12, -0.3 - 5i, 1) reads 110 of a true 128).  Such a pass also
    counts the G bits it could not see, so its rerun takes G more than the
    floor asks for."""
    short = lost - GUARD_BITS - extra
    return short + G if lost > G - GUARD_BITS else short


@lru_cache(maxsize=64)
def _cot_weights(n: int) -> tuple:
    """The weights a_{j,r} = (r-1)! S(j+1, r), r = 1..j+1, of the closed form
    of cot^{(j)}, one row per order j = 0..n, by the recurrence
    a_{j+1,r} = r a_{j,r} + (r-1) a_{j,r-1} from a_{0,1} = 1."""
    rows = [(1,)]
    for _ in range(n):
        a = (0, *rows[-1], 0)
        rows.append(tuple(r * a[r] + (r - 1) * a[r - 1] for r in range(1, len(a))))
    return tuple(rows)


def _b_sums(n: int, b, F: int, step: int = 1, measure: bool = False):
    """(j, x, y, mag) for j = 0, step, 2 step, ... <= n: the sum
    sum_{r<=j+1} a_{j,r} b^r 2^F = x + i y of the closed form of cot^{(j)}
    (`_cot_weights`), as one exact integer dot product over the powers of b
    at F fraction bits, and, on request, mag, the same sum over the
    magnitudes |Re b^r| + |Im b^r| (0 otherwise)."""
    bx, by = fix(b, F)
    px, py = powers(bx, by, F, n + 1, (bx, by))  # b^r 2^F, r = 1..n+1
    mags = [abs(x) + abs(y) for x, y in zip(px, py)] if measure else None
    weights = _cot_weights(n)
    for j in range(0, n + 1, step):
        a = weights[j]
        yield (j, sum(map(_imul, a, px)), sum(map(_imul, a, py)),
               sum(map(_imul, a, mags)) if measure else 0)


def _cot_orders(n: int, s: int, b, F: int) -> list:
    """[cot(z), cot'(z), ..., cot^{(n)}(z)] from b at F fraction bits, order
    j as the integers (x, y, j + 1 - F) of (x + i y) 2^(j+1-F), by the closed
    form cot^{(j)}(z) = (-1)^j (2si)^{j+1} sum_{r<=j+1} a_{j,r} b^r (+ si at
    j = 0) with s = sign Im z, b = 1/(e^{2isz} - 1), so |b| >= 1/2, and
    a_{j,r} = (r-1)! S(j+1, r) (`_b_sums`).  Each order is one exact integer
    dot product over the powers of b; F = `_cot_bits(prec, n)` holds them to
    prec bits where the sums do not cancel."""
    out = []
    for j, x, y, _ in _b_sums(n, b, F):
        # (-1)^j (2is)^{j+1} = 2^{j+1} i^m: rotate by i^m, scale by the exponent
        x, y = ((x, y), (-y, x), (-x, -y), (y, -x))[((j + 1) * (2 - s) + 2 * j) % 4]
        if j == 0:
            y += s << (F - 1)
        out.append((x, y, j + 1 - F))
    return out


@lru_cache(maxsize=64)
def _cot_polynomials(n: int) -> tuple:
    """The integer coefficients, lowest degree first, of the derivative
    polynomials P_j, j = 0..n, with cot^{(j)}(x) = P_j(cot x): P_0(c) = c and
    P_{j+1}(c) = -(1 + c^2) P_j'(c) (M. E. Hoffman, "Derivative polynomials
    for tangent and secant", Amer. Math. Monthly 102, 1995).  The nonzero
    coefficients of P_j all have the sign (-1)^j, so |P_j(|c|)| is the sum
    of the magnitudes of the terms of P_j(c)."""
    polys = [(0, 1)]
    for _ in range(n):
        d = [i * a for i, a in enumerate(polys[-1])][1:]  # P_j'
        polys.append(tuple(-a - b for a, b in zip(d + [0, 0], [0, 0] + d)))  # -(1 + c^2) P_j'
    return tuple(polys)


def _g_sweep(lmax: int, z) -> list:
    """[g_1(z), ..., g_lmax(z)] at the ambient precision: the single g_l,
    where a caller needs them apart, and the oracle of their sum `_g_sum`.
    Each cot^{(2l-2)}(pi z) is P_{2l-2}(c) of `_cot_polynomials` at one
    c = cot(pi z), so no step shares the closed form that `_g_sum` sums.

    Near c = +-i, where |Im z| is large, every P_j with j >= 1 nearly
    vanishes (1 + c^2 divides it) while its terms do not: the pass measures
    the bits lost = log2(|P_j(|c|)| / |P_j(c)|) of the worst order, and
    `precision.rerun_short` runs a pass short of its label (`_short`) once
    more with more bits.  A pass runs at the `_cot_bits` of order
    2 lmax - 2 plus its extra bits, so its first pass sees a cancellation
    as deep as `_g_sum`'s does.  A P_j(c) that cancels to an exact 0, as
    where c rounds to +-i itself, lost every bit of its pass."""
    if z.imag == 0 and z.real == mpmath.floor(z.real):
        raise ValueError("pole at integer z")
    F, polys = _cot_bits(mp.prec, 2 * lmax - 2), _cot_polynomials(2 * lmax - 2)

    def run(extra):
        with mp.workprec(F + extra):
            w = pi * z
            c = mpmath.cot(w)
            out, lost, power = [], 0, w  # power = (pi z)^{2l-1}
            for ell in range(1, lmax + 1):
                p = polys[2 * ell - 2][::-1]
                cot = mpmath.polyval(p, c)
                lost = max(lost, (mpmath.mag(mpmath.polyval(p, abs(c))) - mpmath.mag(cot))
                           if cot else F + extra)  # an exact 0 lost every bit
                b = bernoulli_over_factorial_fraction(ell)
                out.append(-mpf(b.numerator) / b.denominator * power * cot)
                power *= w * w
        return out, _short(lost, F + extra, extra)
    return rerun_short(run, f"{lmax} single terms g_l")


def _g_sum(lmax: int, z, n: int, ez=None):
    """sum_{l<=lmax} g_l(z)/n^{2l-1} for lmax >= 1 as an mpc at the ambient
    precision, g_l(z) = -(B_{2l}/(2l)!) (pi z)^{2l-1} cot^{(2l-2)}(pi z), from
    one exact integer accumulation and one conversion.

    With w = pi z, s = sign Im z (s = 1 on the real axis) and the sums
    D_j = sum_r a_{j,r} b^r of the closed form of `_cot_orders` (`_b_sums`,
    even j only), cot^{(2l-2)}(w) = (-1)^{l-1} 2^{2l-1} s i D_{2l-2} (+ s i
    at l = 1) and
    (-1)^{l-1} B_{2l} = |B_{2l}|, so the sum is -s i T with
    T = sum_l |B_{2l}/(2l)!| 2^{2l-1} (w/n)^{2l-1} D'_{2l-2}, D'_0 = D_0 + 1/2.
    The powers w^{2l-1} are one `fixed.powers` walk of w^2, w scaled by a
    power of 2 to between 1 and 2 sqrt(2) in modulus (`fixed.to_fixed`), and
    each term's rational factor |B_{2l}|/((2l)! n^{2l-1}) and that scale go
    into one floor division, exact but for under one unit of 2^-F; walking
    w/n instead leaves a small number few significant bits.  F is the
    `_cot_bits` of the closed form of order 2 lmax - 2.  ez, if given, is
    e^{2 pi i z} at the ambient precision and saves the exponential of the
    first pass.

    The sum checks its own cancellation, which does not shrink with more
    bits: where |e^{2isw}| is small, b is near -1 and the terms of order j
    reach about j! while their sum stays small.  It counts the bits
    lost = log2(sum |term| / |T|) over every product a_{j,r} b^r of every
    term; |x| + |y| stands for the modulus of x + i y.  A first pass with
    `extra` fraction bits is short by lost - GUARD_BITS - extra (`_short`),
    and `precision.rerun_short` runs a short sum once more from a fresh
    exponential at lost more bits.

    At a real half-integer z the sum is an exact 0: every even derivative
    of cot vanishes at pi/2 + j pi, where no cancellation check could pass.
    """
    if z.imag == 0 and 2 * z.real == mpmath.floor(2 * z.real):
        if z.real == mpmath.floor(z.real):
            raise ValueError("pole at integer z")
        return mpc(0)
    s = 1 if z.imag >= 0 else -1
    F = _cot_bits(mp.prec, 2 * lmax - 2)

    def run(extra):
        G = F + extra
        with mp.workprec(G):
            w = pi * z
            if ez is None or extra:
                e = mpmath.exp(2j * s * w)
            else:
                e = ez if s > 0 else 1 / ez
            b = 1 / (e - 1)
        wx, wy, E = to_fixed(w, G)  # w = (wx + i wy) 2^-G 2^(E + G)
        sqx, sqy = (wx * wx - wy * wy) >> G, (2 * wx * wy) >> G
        Wx, Wy = powers(sqx, sqy, G, lmax, (wx, wy))  # (w 2^-(E+G))^{2l-1} 2^G
        tx = ty = mag = 0
        n2, npow = n * n, n
        for ell, (j, dx, dy, dm), x, y in zip(range(1, lmax + 1),
                                              _b_sums(2 * lmax - 2, b, G, 2, True), Wx, Wy):
            if j == 0:
                dx, dm = dx + (1 << (G - 1)), dm + (1 << (G - 1))  # D'_0 = D_0 + 1/2
            c = bernoulli_over_factorial_fraction(ell)
            num, den = abs(c.numerator), c.denominator * npow
            shift = (2 * ell - 1) * (E + G + 1) - G  # 2^{2l-1}, the scale, 2^-2G 2^G
            parts = (x * dx - y * dy, x * dy + y * dx, (abs(x) + abs(y)) * dm)
            if shift >= 0:
                parts = [(num * v << shift) // den for v in parts]
            else:
                parts = [num * v // (den << -shift) for v in parts]
            tx, ty, mag = tx + parts[0], ty + parts[1], mag + parts[2]
            npow *= n2
        lost = mag.bit_length() - max(abs(tx), abs(ty)).bit_length()
        return unfix(s * ty, -s * tx, -G), _short(lost, G, extra)
    return rerun_short(run, f"Euler-Maclaurin sum of {lmax} terms")


# -- Euler-Maclaurin main term and remainder ----------------------------------

def _checked_delta(delta) -> mpf:
    """Delta as an mpf, or ValueError unless it lies in [0.00477, 0.0079]."""
    d = mpf(str(delta))
    if not mpf("0.00477") <= d <= mpf("0.0079"):
        raise ValueError("Delta must lie in [0.00477, 0.0079]")
    return d


def em_length(delta, s: int, h: int) -> int:
    """Euler-Maclaurin truncation length L = floor(pi e Delta s / h)."""
    return int(math.pi * math.e * delta * s / h)


def _em_main_log(h: int, k: int, m: int, L: int, prec: int) -> mpf:
    """log of the reciprocal-product main term with L-1 correction terms,
    sum_{l<L} Re g_l(m theta)/m^{2l-1} at theta = h/k, the one sum of
    `_g_sum` that the contour's v adds too."""
    with mp.workprec(prec + 16):
        theta = mpf(h) / k
        x = pi * m * theta
        lead = mpf(1) / 2 * mpmath.log(h / (2 * k * mpmath.sin(x)))
        cl = clausen(2 * x, prec + 16).value
        em = _g_sum(L - 1, m * theta, m).real if L > 1 else 0
        return lead + k / (2 * pi * h) * cl + em


def em_remainder(h: int, k: int, m: int, L: int, prec: int | None = None) -> HPReal:
    """Truncation remainder T_L(m, h/k) = log prod(h/k)_m - truncated expansion.

    T_L is the difference of log|prod| and the main term and can be far
    smaller than either: at (h, k, m, L) = (1, 211, 30, 25) they are about
    31 and T_L about 1.2e-51.  When the difference cancels more than the 16
    guard bits, that is lost = log2|log prod| - log2|T_L| > 16, it is taken
    once more at prec + 32 + lost bits, and PrecisionLossError is raised if
    that rerun cancels past its own guard (`_em_checked`), so T_L keeps its
    relative 2^(16-prec) label.  The domain is h, m, L >= 1 with h m < k and
    (h, k) = 1, so that sin(pi m h/k) > 0: the main term's
    log(h/(2k sin(pi m h/k))) has no finite value at m = 0 and takes the log
    of a negative sine past h m = k.  At 2hm = k, so h = 1, T_L is an exact
    0 (`_em_checked`)."""
    h, k = checked_int(h, "h", 1), checked_int(k, "k", 2)
    m, L = checked_int(m, "m", 1, (k - 1) // h), checked_int(L, "L", 1)
    if math.gcd(h, k) != 1:
        raise ValueError(f"need (h, k) = 1, got ({h}, {k})")
    prec = resolve_precision(prec)
    return HPReal(_em_checked(h, k, m, L, prec)[1], prec)


def _em_checked(h: int, k: int, m: int, L: int, prec: int) -> tuple:
    """(log|prod(h/k)_m|, T_L) of `em_remainder`, rerun once past its
    measured cancellation by `precision.rerun_short`.

    The cancellation lost = log2|log prod| - log2|T_L| does not shrink with
    more bits, so a difference taken d bits above prec is short by
    lost - GUARD_BITS - d.  A rerun, asked for lost extra bits, takes 32
    more: a T_L at the first pass's noise floor understates lost.

    At 2hm = k, which gcd(h, k) = 1 allows only for h = 1, both are exact:
    |prod_{j<=k/2} 2 sin(pi j/k)| = sqrt(2k), which cancels the main term's
    (1/2) log(1/(2k)), and Clausen's integral at pi and every even cot
    derivative at pi/2 vanish, so T_L = 0, where no relative check could
    pass."""
    if 2 * h * m == k:
        with mp.workprec(prec + 32):
            return mpmath.log(2 * k) / 2, mpf(0)

    def run(extra):
        # log|prod| at wp + 32 bits, and T_L with 16 guard bits on its terms
        wp = prec + extra + (32 if extra else 0)
        with mp.workprec(wp + 32):
            lp = mpmath.log(abs(_sine_product(h, k, m, wp + 32)))
        with mp.workprec(wp + 16):
            T = lp + _em_main_log(h, k, m, L, wp)
        lost = mpmath.mag(lp) - mpmath.mag(T) if T else wp
        return (lp, T), lost - GUARD_BITS - (wp - prec)
    return rerun_short(run, f"T_L at {h}/{k}, m = {m}")


def t_l_bound(L: int, m: int, prec: int | None = None) -> HPReal:
    """Rigorous bound (pi^3/2) ((2L-1)/(2 pi e m))^{2L-1} on |T_L(m, theta)|,
    for integers L, m >= 1 (ValueError otherwise)."""
    L, m = checked_int(L, "L", 1), checked_int(m, "m", 1)
    prec = resolve_precision(prec)
    with mp.workprec(prec + 16):
        val = pi ** 3 / 2 * ((2 * L - 1) / (2 * pi * mpmath.e * m)) ** (2 * L - 1)
        return HPReal(val, prec)


# -- the double-precision scan with selective high-precision recheck ---------

#: relative roundoff of a float64 term in the screen of em_remainder_scan
SCREEN_ROUNDOFF = 2e-13
#: (k, m) pairs per block of em_remainder_scan's float64 screen
_SCREEN_BLOCK = 4000
#: bits at which em_remainder_scan rechecks a pair the screen cannot settle
_RECHECK_PREC = 192
#: largest L the float64 screen holds: cot^{(2L-2)}(x) ~ (2L-2)!/x^{2L-1} peaks
#: at the smallest grid point x = pi Delta, and Delta >= 0.00477
SCREEN_MAX_L = max(L for L in range(1, 100)
                   if math.lgamma(2 * L - 1) - (2 * L - 1) * math.log(math.pi * 0.00477)
                   < math.log(sys.float_info.max))


def _cl2_float(theta):
    """Clausen's integral on [0, pi], vectorized double precision."""
    th = np.asarray(theta, dtype=float)
    out = np.where(th > 0, th - th * np.log(np.maximum(th, 1e-300)), 0.0)
    t2 = th * th
    term = th.copy()
    for r in range(1, 40):
        term = term * t2
        coef = float(abs(bernoulli_over_factorial_fraction(r))) / (2 * r * (2 * r + 1))
        out = out + coef * term
    return out


def _screen_blocks(h: int, s: int, m_lo: int):
    """The k of em_remainder_scan's grid (those with a pair m_lo <= m <= k/(2h)),
    as int arrays of consecutive k holding about _SCREEN_BLOCK pairs each."""
    block, size = [], 0
    for k in range(2, s + 1):
        m_hi = k // (2 * h)
        if math.gcd(h, k) != 1 or m_hi < m_lo:
            continue
        block.append(k)
        size += m_hi
        if size >= _SCREEN_BLOCK:
            yield np.array(block)
            block, size = [], 0
    if block:
        yield np.array(block)


def em_remainder_scan(h: int, s: int = 500, delta: float = 0.006):
    """(max |prod^{-1} T_L|, max |T_L|) over Delta s/h <= m <= k/(2h), k <= s,
    with L = em_length(delta, s, h).

    First pass runs in double precision, one block of consecutive k at a
    time (`_screen_blocks`): the partial products are row-wise cumulative sums
    of log 2 sin(pi m h/k) over a k-by-m array whose lanes past k/(2h) are
    masked to log 1, and every other step acts on the block's (k, m) pairs as
    one flat array.  Where the product e^{-log prod} amplifies double roundoff
    beyond the running maximum, |prod^{-1} T_L| is recomputed at 192 bits,
    T_L and log|prod| by em_remainder's `_em_checked`, in decreasing order
    of a pair's log potential (its |T_L| cap over prod, ties in (k, m)
    order); pairs whose rigorous |T_L| bound already rules them out are
    skipped.  h and s are integers >= 1, and L above SCREEN_MAX_L, which
    the float64 screen holds, raises ValueError.
    """
    h, s = checked_int(h, "h", 1), checked_int(s, "s", 1)
    delta = float(_checked_delta(delta))
    L = checked_int(em_length(delta, s, h), "L", high=SCREEN_MAX_L)
    polys_float = [np.array(p, dtype=float) for p in _cot_polynomials(2 * L - 2)]
    bf = [0.0] + [float(bernoulli_over_factorial_fraction(l)) for l in range(1, L)]
    m_lo = max(1, math.ceil(delta * s / h - 1e-12))
    # log of the rigorous bound t_l_bound(L, m), m = 1..s/(2h); entry 0 is unused
    tl_log = np.array([0.0] + [math.log(math.pi ** 3 / 2) + (2 * L - 1) * math.log(
        (2 * L - 1) / (2 * math.pi * math.e * m)) for m in range(1, s // (2 * h) + 1)])
    max_T = 0.0
    reliable_max = 0.0
    # rows (log potential, k, m) of the pairs double precision cannot settle
    pending = [np.empty((3, 0))]
    for ks in _screen_blocks(h, s, m_lo):
        theta = h / ks
        ms = np.arange(1, ks[-1] // (2 * h) + 1)
        arg = np.pi * ms * theta[:, None]
        inside = ms <= (ks // (2 * h))[:, None]
        sines = np.where(inside, 2 * np.sin(arg), 1.0)
        logprod = np.cumsum(np.log(sines), axis=1)
        row, col = np.nonzero(inside & (ms >= m_lo))
        lp, x, th = logprod[row, col], arg[row, col], theta[row]
        c = 1.0 / np.tan(x)
        # bf_l (pi theta)^{2l-1} per k by libm's pow, which np.power need not match
        scale = np.array([[bf[ell] * (np.pi * t) ** (2 * ell - 1) for ell in range(1, L)]
                          for t in theta.tolist()])
        em = np.zeros_like(lp)
        for ell in range(1, L):
            p = polys_float[2 * ell - 2]
            acc = np.zeros_like(c)
            for coef in p[::-1]:
                acc = acc * c + coef
            em += scale[row, ell - 1] * acc
        main = (0.5 * np.log(sines[row, col] / th)
                - _cl2_float(2 * x) / (2 * np.pi * th) + em)
        T = lp - main
        absT = np.abs(T)
        max_T = max(max_T, float(absT.max()))
        err = SCREEN_ROUNDOFF * np.maximum(np.abs(lp), np.abs(em) + np.abs(main) + 1)
        PT = np.exp(-lp) * absT
        trusted = err < 0.05 * np.maximum(absT, 1e-300)
        if trusted.any():
            reliable_max = max(reliable_max, float(PT[trusted].max()))
        wait = ~trusted
        bound = absT[wait] + err[wait]
        cap = np.minimum(tl_log[col[wait] + 1],
                         np.log(bound, out=np.full_like(bound, -1e30), where=bound > 0))
        pending.append(np.stack([cap - lp[wait], ks[row[wait]], col[wait] + 1]))
    potential, pk, pm = np.concatenate(pending, axis=1)
    max_PT = reliable_max
    for i in np.argsort(-potential, kind="stable"):
        if potential[i] <= math.log(max(max_PT, 1e-300)):
            break
        lp, T = _em_checked(h, int(pk[i]), int(pm[i]), L, _RECHECK_PREC)
        with mp.workprec(_RECHECK_PREC + 16):
            max_PT = max(max_PT, float(mpmath.exp(-lp) * abs(T)))
    return max_PT, max_T

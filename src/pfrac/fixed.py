"""Complex fixed point: the one format of the integer kernels.

A complex number is held as an integer pair (x, y) standing for
(x + i y) 2^-F, F the fraction bits; a real one is the pair's x.  `fix`
and `to_fixed` put mpmath numbers into the format, `unfix` takes a pair
back out, and `powers` is the truncated complex power walk that the cot
table's roots of unity, the cotangent sweep and the dilogarithm series are
built from.  `power` takes one power by binary powering from the kept
`squares` of its base: every pole phase e^{i pi M/(2k)}, the sine steps
e^{i pi h/k} among them, is a power of one e^{i pi/(2k)}
(`sine_products._phase`).  `exp_fixed` and `div_fixed` run the series
exponential and division on fixed-point coefficients; `exp_fixed` skips
the zero coefficients of its argument.

Each kernel keeps its own rounding rule, and the results depend on it: the
walk, the power and `shifted` round down (`>>`), `fix` truncates toward zero,
`to_fixed` rounds down, and `exp_fixed`/`div_fixed` round to nearest.
The truncating multiply and the conversions follow Brent & Zimmermann,
Modern Computer Arithmetic (CUP 2010), ch. 3.
"""

from __future__ import annotations

from operator import mul as _imul

import mpmath
from mpmath import mpc, mpf


def man_exp(x: mpf) -> tuple[int, int]:
    """(man, exp) with x = man 2^exp, man signed."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


def fix(z, F: int) -> tuple[int, int]:
    """z 2^F as an integer pair (x, y) for an mpf or mpc z, each part
    truncated toward zero; y is 0 for a real z."""
    return int(mpmath.ldexp(z.real, F)), int(mpmath.ldexp(z.imag, F))


def unfix(x: int, y: int, e: int) -> mpc:
    """(x + i y) 2^e as an mpc at the ambient precision."""
    return mpc(mpf((x, e)), mpf((y, e)))


def shifted(v: int, s: int) -> int:
    """v 2^s, rounded down to an integer."""
    return v << s if s >= 0 else v >> -s


def to_fixed(z, bits: int) -> tuple[int, int, int]:
    """(x, y, E): the complex z as the integer pair (x + i y) 2^E, E chosen
    so that the larger part keeps `bits` bits below its leading bit; the
    parts are rounded down."""
    parts = man_exp(z.real), man_exp(z.imag)
    E = max((e + m.bit_length() for m, e in parts if m), default=bits) - bits
    return (*(shifted(m, e - E) for m, e in parts), E)


def powers(c: int, s: int, F: int, n: int, start=None) -> tuple[list, list]:
    """(px, py): the n >= 1 points start w^j, j < n, of w = (c + i s) 2^-F,
    as fixed-point pairs px[j] + i py[j] on F bits; start defaults to 1.

    Each step is one complex product truncated by `>> F`: it adds under one
    unit of 2^-F to each part, and while |w| <= 1 it does not enlarge the
    error it inherits, so after j steps the error is under sqrt(2) j units
    in modulus.  With F = 0 the powers of the Gaussian integer c + i s are
    exact."""
    x, y = (1 << F, 0) if start is None else start
    px, py = [x], [y]
    for _ in range(n - 1):
        x, y = (x * c - y * s) >> F, (x * s + y * c) >> F
        px.append(x)
        py.append(y)
    return px, py


def squares(c: int, s: int, F: int, n: int) -> list:
    """[w^(2^j) for j < n] for w = (c + i s) 2^-F, as fixed-point pairs on
    F bits: the squarings of binary powering, each truncated by `>> F`, kept
    so that `power` takes every w^m, m < 2^n, from one list."""
    out = []
    for _ in range(n):
        out.append((c, s))
        c, s = (c * c - s * s) >> F, (2 * c * s) >> F
    return out


def power(sq: list, F: int, n: int) -> tuple[int, int]:
    """(x, y): w^n for 0 <= n < 2^len(sq) as the fixed-point pair x + i y on
    F bits, by binary powering: the product of the `squares` sq[j] = w^(2^j)
    that the bits of n select.

    Each product is truncated by `>> F` as in `powers`, and while |w| <= 1
    a product of two powers with errors a and b has an error under
    a + b + sqrt(2) units of 2^-F (to first order); so w^n is within
    sqrt(2) (n - 1) units of the exact n-th power of the given w, the bound
    of the walk, in at most bitlen(n) products on the kept squares instead
    of n.  With F = 0 the power is exact."""
    if n >> len(sq):
        raise ValueError(f"w^{n} needs more than {len(sq)} squares")
    x, y = 1 << F, 0
    for c, s in sq:
        if n & 1:
            x, y = (x * c - y * s) >> F, (x * s + y * c) >> F
        n >>= 1
        if not n:
            break
    return x, y


EXP_SLACK = 32
"""Bits `exp_fixed` carries above frac_bits in a coefficient that has grown."""


def exp_fixed(ka, n: int, frac_bits: int) -> list[int]:
    """exp(a) for a_0 = 0 in fixed point: `ka[k]` is the integer k a_k 2^frac_bits
    (ka[0] is ignored), and the result is [g_m 2^frac_bits for m < n].

    Each g_m is one exact integer dot product of the recurrence of
    `series.exp` and one division rounded to nearest, so while
    |g_m| < 2^EXP_SLACK a step adds at most half a unit of 2^-frac_bits to
    the errors it inherits.  Larger g_m are carried to frac_bits + EXP_SLACK
    significant bits, as out[m] 2^(D_m - frac_bits) with D_m raised by the
    excess of the previous coefficient: each product of the dot product is
    shifted down to D_m (2^-frac_bits of a unit below the rounding), and a
    step adds half a unit of the last carried bit.  A series whose
    coefficients grow by thousands of bits then multiplies numbers of
    frac_bits + EXP_SLACK bits, not ever longer ones, and the result has
    D_m low zero bits.  The dot products skip the zero entries of ka: in
    the q = 1 Laurent core every odd k a_k above k = 1 is zero, and so is
    every odd one of the pole series at 0/1 and 1/2; the result does not
    change.
    """
    nonzero = [(k, a) for k, a in enumerate(ka[1:n], 1) if a]
    out, shifts = [1 << frac_bits] + [0] * (n - 1), [0] * n
    for m in range(1, n):
        D = shifts[m] = shifts[m - 1] + max(0, out[m - 1].bit_length() - frac_bits - EXP_SLACK)
        d = m << frac_bits
        acc = sum([(a * out[m - k]) >> (D - shifts[m - k]) for k, a in nonzero if k <= m])
        out[m] = (2 * acc + d) // (2 * d)
    return [g << D for g, D in zip(out, shifts)]


def div_fixed(a, b, n: int, frac_bits: int) -> list[int]:
    """a / b in fixed point: `a[k]`, `b[k]` and the result are integers
    (value) 2^frac_bits; b[0] must be positive, and a missing a[k] counts as 0.

    Each quotient coefficient is one exact integer dot product and one
    division rounded to nearest, as in `exp_fixed`; trailing zeros of b cost
    nothing, so a fast-decaying b (a Taylor series truncated at its last
    nonzero fixed-point coefficient) keeps the work at n len(b).
    """
    b0 = 2 * b[0]
    out = [0] * n
    for m in range(n):
        x = (a[m] if m < len(a) else 0) << frac_bits
        out[m] = (2 * (x - sum(map(_imul, b[1:m + 1], out[m - 1::-1]))) + b[0]) // b0
    return out

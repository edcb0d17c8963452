"""Truncated power series as coefficient lists.

A series is the list [a_0, a_1, ...] of its coefficients; every function
returns the first n coefficients of its result.  Missing input coefficients
count as zero.  The arithmetic is plain Python on the coefficients, so
mpmath numbers are combined at the ambient `mp` precision, and
`fractions.Fraction` inputs give exact results (exp then needs a zero
constant term, log a constant term of 1).  `exp_fixed` runs the recurrence
of `exp` on fixed-point Python integers, `div_fixed` a series division on
them, and `to_fixed` puts mpmath coefficients on such integers over one
exponent.
"""

from __future__ import annotations

from itertools import repeat
from operator import mul as _imul, rshift as _rshift, sub as _isub

import mpmath
from mpmath import mpf

def mul(a, b, n: int) -> list:
    """Product a * b."""
    out = [0 * a[0]] * n
    for i, ai in enumerate(a):
        if not ai:
            continue
        top = min(len(b), n - i)
        for j in range(top):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def inv(a, n: int) -> list:
    """Reciprocal 1 / a; the constant term must be nonzero."""
    if not a[0]:
        raise ValueError("reciprocal requires a nonzero constant term")
    inv0 = 1 / a[0]
    zero = 0 * a[0]
    out = [inv0] + [zero] * (n - 1)
    for m in range(1, n):
        acc = zero
        for j in range(1, min(m, len(a) - 1) + 1):
            if a[j]:
                acc += a[j] * out[m - j]
        out[m] = -inv0 * acc
    return out


def exp(a, n: int) -> list:
    """exp(a), by the recurrence m g_m = sum_k k a_k g_{m-k}."""
    zero = 0 * a[0]
    out = [mpmath.exp(a[0]) if a[0] else 1 + zero] + [zero] * (n - 1)
    for m in range(1, n):
        acc = zero
        for k in range(1, min(m, len(a) - 1) + 1):
            if a[k]:
                acc += k * a[k] * out[m - k]
        out[m] = acc / m
    return out


EXP_SLACK = 32
"""Bits `exp_fixed` carries above frac_bits in a coefficient that has grown."""


def exp_fixed(ka, n: int, frac_bits: int) -> list[int]:
    """exp(a) for a_0 = 0 in fixed point: `ka[k]` is the integer k a_k 2^frac_bits
    (ka[0] is ignored), and the result is [g_m 2^frac_bits for m < n].

    Each g_m is one exact integer dot product of the recurrence of `exp`
    and one division rounded to nearest, so while |g_m| < 2^EXP_SLACK a step
    adds at most half a unit of 2^-frac_bits to the errors it inherits.
    Larger g_m are carried to frac_bits + EXP_SLACK significant bits, as
    out[m] 2^(D_m - frac_bits) with D_m raised by the excess of the previous
    coefficient: each product of the dot product is shifted down to D_m
    (2^-frac_bits of a unit below the rounding), and a step adds half a unit
    of the last carried bit.  A series whose coefficients grow by thousands
    of bits then multiplies numbers of frac_bits + EXP_SLACK bits, not ever
    longer ones, and the result has D_m low zero bits.
    """
    out, shifts = [1 << frac_bits] + [0] * (n - 1), [0] * n
    for m in range(1, n):
        D = shifts[m] = shifts[m - 1] + max(0, out[m - 1].bit_length() - frac_bits - EXP_SLACK)
        d = m << frac_bits
        terms = map(_imul, ka[1:m + 1], out[m - 1::-1])
        acc = sum(map(_rshift, terms, map(_isub, repeat(D), shifts[m - 1::-1])))
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


def log(a, n: int) -> list:
    """Principal log(a); the constant term must be nonzero."""
    if not a[0]:
        raise ValueError("log requires a nonzero constant term")
    a = list(a[:n]) + [0 * a[0]] * (n - len(a))
    inv0 = 1 / a[0]
    out = [0 * a[0] if a[0] == 1 else mpmath.log(a[0])]
    for m in range(1, n):
        acc = m * a[m]
        for k in range(1, m):
            if a[m - k]:
                acc -= k * out[k] * a[m - k]
        out.append(inv0 * acc / m)
    return out


def man_exp(x: mpf) -> tuple[int, int]:
    """(man, exp) with x = man 2^exp, man signed."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


def to_fixed(values, bits: int) -> tuple:
    """(re, im, E): the complex values as integer pairs (re[i] + i im[i]) 2^E
    on one exponent, E chosen so that each nonzero value keeps at least
    `bits` bits below its leading bit; the parts are rounded down."""
    parts = [(man_exp(v.real), man_exp(v.imag)) for v in values]
    E = min((max(e + m.bit_length() for m, e in pair if m) for pair in parts
             if pair[0][0] or pair[1][0]), default=bits) - bits

    def fix(m, e):
        return m << (e - E) if e >= E else m >> (E - e)
    return tuple(fix(*re) for re, _ in parts), tuple(fix(*im) for _, im in parts), E

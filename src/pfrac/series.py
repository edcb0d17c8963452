"""Truncated power series as coefficient lists.

A series is the list [a_0, a_1, ...] of its coefficients; every function
returns the first n coefficients of its result.  Missing input coefficients
count as zero.  The arithmetic is plain Python on the coefficients, so
mpmath numbers are combined at the ambient `mp` precision, and
`fractions.Fraction` inputs give exact results (exp then needs a zero
constant term, log a constant term of 1).  The exponential and the division
on fixed-point integers are `fixed.exp_fixed` and `fixed.div_fixed`.
Production reads `mul` and `exp` alone, in the saddle expansions
(`asymptotics`); `inv` and `log` serve as the oracles of tests.
"""

from __future__ import annotations

import mpmath

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


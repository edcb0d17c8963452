"""Arbitrary-precision scalars with explicit precision tracking.

Values are mpmath numbers wrapped together with the precision (in bits) at
which they are considered reliable.  Arithmetic between wrapped values is
performed at, and reports, the minimum precision of the operands; plain
Python/mpmath operands are treated as exact and do not lower precision.
Default comparisons use the tolerance 2^(16 - precision).

The precision is a guarantee, not a storage format: a wrapped mpmath value
keeps whatever guard bits it was computed with, and only arithmetic rounds
to the operating precision.
"""

from __future__ import annotations

import operator
import os

import mpmath
from mpmath import mp, mpc, mpf

DEFAULT_PRECISION = 256
MIN_PRECISION = 8

_ENV_VAR = "PFRAC_PRECISION_BITS"


def _checked_precision(bits, name: str = "precision") -> int:
    """`bits` as an int, or ValueError unless it is an integer >= MIN_PRECISION.

    Accepts Python integers and decimal strings (the environment variable)."""
    try:
        value = int(bits, 10) if isinstance(bits, str) else operator.index(bits)
    except (TypeError, ValueError):
        value = None
    if value is None or value < MIN_PRECISION:
        raise ValueError(f"{name} must be an integer of at least {MIN_PRECISION} bits, "
                         f"got {bits!r}")
    return value


_default_bits = _checked_precision(os.environ.get(_ENV_VAR, DEFAULT_PRECISION), _ENV_VAR)


def default_precision() -> int:
    """Current default working precision in bits."""
    return _default_bits


def set_default_precision(bits: int) -> int:
    """Set the default working precision, returning the previous value."""
    global _default_bits
    old = _default_bits
    _default_bits = _checked_precision(bits)
    return old


def tolerance(prec: int) -> mpf:
    """Comparison tolerance 2^(16 - prec) used throughout the package."""
    return mpf(2) ** (16 - prec)


def _unwrap(x):
    if isinstance(x, (HPReal, HPComplex)):
        return x.value, x.precision
    return x, None


def to_mpc(z) -> mpc:
    """z as an mpc at the ambient precision; a wrapped value gives up its value."""
    return mpc(_unwrap(z)[0])


class _HPBase:
    __slots__ = ("value", "precision")

    def __init__(self, value, precision: int | None = None):
        prec = default_precision() if precision is None else int(precision)
        if prec < MIN_PRECISION:
            raise ValueError(f"precision must be at least {MIN_PRECISION} bits")
        with mp.workprec(prec):
            self.value = self._convert(value)
        self.precision = prec

    def tol(self) -> mpf:
        return tolerance(self.precision)

    def close_to(self, other, tol=None) -> bool:
        """|self - other| below the (default 2^(16-prec)) tolerance."""
        ov, oprec = _unwrap(other)
        prec = self.precision if oprec is None else min(self.precision, oprec)
        t = tolerance(prec) if tol is None else tol
        return abs(self.value - ov) < t

    def _binary(self, other, op, reverse=False):
        ov, oprec = _unwrap(other)
        prec = self.precision if oprec is None else min(self.precision, oprec)
        with mp.workprec(prec):
            res = op(ov, self.value) if reverse else op(self.value, ov)
        return _wrap(res, prec)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: a - b, reverse=True)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: a / b, reverse=True)

    def __pow__(self, other):
        return self._binary(other, lambda a, b: a ** b)

    def __neg__(self):
        return _wrap(-self.value, self.precision)

    def __abs__(self):
        return HPReal(abs(self.value), self.precision)

    def __eq__(self, other):
        ov, _ = _unwrap(other)
        return self.value == ov

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"{type(self).__name__}({self.value!r}, prec={self.precision})"


class HPReal(_HPBase):
    """Real scalar at a tracked binary precision."""

    @staticmethod
    def _convert(value):
        if isinstance(value, (HPReal, HPComplex)):
            value = value.value
        if isinstance(value, mpc):
            if value.imag != 0:
                raise TypeError("HPReal from complex with nonzero imaginary part")
            value = value.real
        if isinstance(value, mpf):
            return value
        return mpf(value)

    def __float__(self):
        return float(self.value)

    def __lt__(self, other):
        ov, _ = _unwrap(other)
        return self.value < ov

    def __le__(self, other):
        ov, _ = _unwrap(other)
        return self.value <= ov

    def __gt__(self, other):
        ov, _ = _unwrap(other)
        return self.value > ov

    def __ge__(self, other):
        ov, _ = _unwrap(other)
        return self.value >= ov


class HPComplex(_HPBase):
    """Complex scalar at a tracked binary precision."""

    @staticmethod
    def _convert(value):
        if isinstance(value, (HPReal, HPComplex)):
            value = value.value
        if isinstance(value, (mpf, mpc)):
            return value  # keep guard bits; mpf works wherever mpc does
        return mpc(value)

    @property
    def real(self) -> HPReal:
        v = self.value
        return HPReal(v.real if isinstance(v, mpc) else v, self.precision)

    @property
    def imag(self) -> HPReal:
        v = self.value
        return HPReal(v.imag if isinstance(v, mpc) else mpf(0), self.precision)

    def conjugate(self) -> "HPComplex":
        return HPComplex(mpmath.conj(self.value), self.precision)

    def __complex__(self):
        return complex(self.value)


def _wrap(value, prec: int):
    if isinstance(value, mpc) and value.imag != 0:
        return HPComplex(value, prec)
    if isinstance(value, mpc):
        return HPReal(value.real, prec)
    return HPReal(value, prec)

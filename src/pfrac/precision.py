"""Precision-labelled results and the package's precision rules.

A public numeric function returns its mpmath value in a frozen record with the
number of bits it vouches for: the value is within tolerance(precision) =
2^(16 - precision) of the exact result.  The record is a label only; it does
no arithmetic, and its value keeps the guard bits it was computed with.
Public functions check `prec` with `resolve_precision` before any work, and
every integer argument, such as sigma, and its range with `checked_int`.

A cancelling sum keeps its label by one rule, `rerun_short`: a value its
own check finds short is computed once more with the shortfall plus
GUARD_BITS extra bits, and a rerun that is still short raises
PrecisionLossError.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass

from mpmath import mpc, mpf

DEFAULT_PRECISION = 256
MIN_PRECISION = 8

_ENV_VAR = "PFRAC_PRECISION_BITS"

GUARD_BITS = 16
"""Bits a rerun of `rerun_short` takes beyond the measured shortfall."""


class PrecisionLossError(RuntimeError):
    """Cancellation destroyed more than the allowed share of working bits."""


def rerun_short(run, what: str):
    """The value of `run`, rerun once if its own check finds it short.

    run(extra) computes with `extra` more bits and returns (value, short),
    short the bits by which the site's measure finds the value short of its
    label (at most 0 when it holds).  A short first value is computed once
    more with short + GUARD_BITS extra bits, and a rerun that is still
    short raises PrecisionLossError naming `what` and both shortfalls: the
    rerun-on-failed-test rule of Ziv, "Fast evaluation of elementary
    mathematical functions with correctly rounded last bit", ACM TOMS 17
    (1991)."""
    value, short = run(0)
    if short <= 0:
        return value
    extra = short + GUARD_BITS
    value, still = run(extra)
    if still > 0:
        raise PrecisionLossError(f"{what} fell {short} bits short, and {still} bits short "
                                 f"again with {extra} more")
    return value


def checked_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """`value` as an int in [low, high] (a bound of None is open), or
    ValueError naming `name`: the one check of every integer argument.

    A non-integer is refused by `operator.index`, which refuses 2.0, mpf(2)
    and 2 + 0j alike, and so is a bool, which counts as no integer of the
    paper.  A value out of range reads `need {name} >= {low}, got {value}` or
    `need {name} <= {high}, got {value}`."""
    if type(value) is not int:  # an int, the common case, skips the protocol
        try:
            if isinstance(value, bool):
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"need {name} >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"need {name} <= {high}, got {value}")
    return value


def _checked_precision(bits, name: str = "precision") -> int:
    """`bits` as an int of at least MIN_PRECISION (`checked_int`); a decimal
    string, as the environment variable holds, is read as its integer."""
    if isinstance(bits, str):
        try:
            bits = int(bits, 10)
        except ValueError:
            pass  # checked_int names the string
    return checked_int(bits, name, MIN_PRECISION)


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


def resolve_precision(prec) -> int:
    """The precision a public function works at: the current default for None,
    else `prec` itself, which must be an integer of at least MIN_PRECISION bits."""
    return _default_bits if prec is None else _checked_precision(prec, "prec")


def tolerance(prec: int) -> mpf:
    """Comparison tolerance 2^(16 - prec) used throughout the package."""
    return mpf(2) ** (16 - prec)


@dataclass(frozen=True, slots=True)
class HPReal:
    """A real result and the bits it is good to."""
    value: mpf
    precision: int


@dataclass(frozen=True, slots=True)
class HPComplex:
    """A complex result and the bits it is good to."""
    value: mpc
    precision: int


def to_mpc(z) -> mpc:
    """z as an mpc at the ambient precision; a record gives up its value."""
    return mpc(z.value if isinstance(z, (HPReal, HPComplex)) else z)

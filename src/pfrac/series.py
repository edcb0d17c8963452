"""Truncated Taylor/Laurent series arithmetic.

A series is stored as a coefficient window [lead, trunc): coefficient of
t^n lives at coeffs[n - lead], and nothing at or beyond exponent `trunc`
is ever read or produced.  Coefficients are mpmath numbers (computed at
the precision carried by the series) or exact `fractions.Fraction`s.
Ring operations propagate the minimum precision and the exact truncation
window of their inputs.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf

from .precision import default_precision

_EXACT_TYPES = (int, Fraction)


def _is_exact(values) -> bool:
    return all(isinstance(c, _EXACT_TYPES) for c in values)


class TruncatedSeries:
    """sum_{n=lead}^{trunc-1} coeffs[n-lead] * t^n, truncation exclusive."""

    __slots__ = ("lead", "coeffs", "trunc", "prec", "exact")

    def __init__(self, coeffs, lead: int = 0, trunc: int | None = None,
                 prec: int | None = None, exact: bool | None = None):
        coeffs = list(coeffs)
        if trunc is None:
            trunc = lead + len(coeffs)
        if trunc - lead != len(coeffs):
            raise ValueError("len(coeffs) must equal trunc - lead")
        if exact is None:
            exact = prec is None and _is_exact(coeffs)
        self.exact = exact
        self.prec = None if exact else (default_precision() if prec is None else prec)
        if exact:
            self.coeffs = [Fraction(c) for c in coeffs]
        else:
            with mp.workprec(self.prec):
                self.coeffs = [self._num(c) for c in coeffs]
        self.lead = lead
        self.trunc = trunc

    @staticmethod
    def _num(c):
        if isinstance(c, Fraction):
            return mpf(c.numerator) / c.denominator
        if isinstance(c, (mpf, mpc)):
            return c
        return mpmath.mpmathify(c)

    # -- constructors ------------------------------------------------------
    @classmethod
    def constant(cls, value, order: int, prec: int | None = None):
        """value + O(t^order)."""
        z = Fraction(0) if isinstance(value, _EXACT_TYPES) else mpf(0)
        return cls([value] + [z] * (order - 1), 0, order, prec=prec)

    @classmethod
    def identity(cls, order: int, prec: int | None = None, exact: bool = False):
        """t + O(t^order)."""
        one = Fraction(1) if exact else mpf(1)
        zero = Fraction(0) if exact else mpf(0)
        return cls([zero, one] + [zero] * (order - 2), 0, order, prec=prec)

    # -- helpers -----------------------------------------------------------
    def _zero(self):
        return Fraction(0) if self.exact else mpf(0)

    def coeff(self, n: int):
        """Coefficient of t^n; zero below lead, error at or above trunc."""
        if n >= self.trunc:
            raise IndexError(f"coefficient t^{n} is beyond truncation order {self.trunc}")
        if n < self.lead:
            return self._zero()
        return self.coeffs[n - self.lead]

    def copy(self) -> "TruncatedSeries":
        return self._make(list(self.coeffs), self.lead, self.trunc, self.prec, self.exact)

    @classmethod
    def _make(cls, coeffs, lead, trunc, prec, exact):
        obj = cls.__new__(cls)
        obj.coeffs = coeffs
        obj.lead = lead
        obj.trunc = trunc
        obj.prec = prec
        obj.exact = exact
        return obj

    def _joint(self, other):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        exact = self.exact and other.exact
        if exact:
            prec = None
        else:
            precs = [p for p in (self.prec, other.prec) if p is not None]
            prec = min(precs) if precs else default_precision()
        return exact, prec

    def _lifted(self, exact):
        if exact or not self.exact:
            return self.coeffs
        return [TruncatedSeries._num(c) for c in self.coeffs]

    def order(self):
        """Exponent of the first (exactly) nonzero coefficient, or None."""
        for i, c in enumerate(self.coeffs):
            if c:
                return self.lead + i
        return None

    # -- ring operations ----------------------------------------------------
    def __neg__(self):
        return self._make([-c for c in self.coeffs], self.lead, self.trunc,
                          self.prec, self.exact)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries.constant(other, max(self.trunc, 1), prec=self.prec)
        exact, prec = self._joint(other)
        lead = min(self.lead, other.lead)
        trunc = min(self.trunc, other.trunc)
        if trunc <= lead:
            raise ValueError("empty truncation window in addition")
        a, b = self._lifted(exact), other._lifted(exact)
        zero = Fraction(0) if exact else mpf(0)
        out = [zero] * (trunc - lead)
        with mp.workprec(prec or 53):
            for i, c in enumerate(a):
                n = self.lead + i
                if lead <= n < trunc:
                    out[n - lead] = out[n - lead] + c
            for i, c in enumerate(b):
                n = other.lead + i
                if lead <= n < trunc:
                    out[n - lead] = out[n - lead] + c
        return self._make(out, lead, trunc, prec, exact)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        if isinstance(factor, _EXACT_TYPES + (Fraction,)) and self.exact:
            return self._make([c * Fraction(factor) for c in self.coeffs],
                              self.lead, self.trunc, self.prec, True)
        f = TruncatedSeries._num(factor if not isinstance(factor, Fraction)
                                 else mpf(factor.numerator) / factor.denominator)
        with mp.workprec(self.prec or default_precision()):
            out = [TruncatedSeries._num(c) * f for c in self.coeffs]
        return self._make(out, self.lead, self.trunc,
                          self.prec or default_precision(), False)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        exact, prec = self._joint(other)
        lead = self.lead + other.lead
        trunc = min(self.trunc + other.lead, other.trunc + self.lead)
        if trunc <= lead:
            raise ValueError("empty truncation window in multiplication")
        a, b = self._lifted(exact), other._lifted(exact)
        n = trunc - lead
        zero = Fraction(0) if exact else mpf(0)
        out = [zero] * n
        with mp.workprec(prec or 53):
            for i, ai in enumerate(a):
                if i >= n:
                    break
                if not ai:
                    continue
                top = min(len(b), n - i)
                for j in range(top):
                    bj = b[j]
                    if bj:
                        out[i + j] = out[i + j] + ai * bj
        return self._make(out, lead, trunc, prec, exact)

    __rmul__ = __mul__

    def recip(self) -> "TruncatedSeries":
        """Reciprocal; the coefficient at `lead` must be nonzero."""
        a0 = self.coeffs[0] if self.coeffs else 0
        if not a0:
            raise ValueError("reciprocal requires a nonzero leading coefficient")
        exact, prec = self.exact, self.prec
        a = self.coeffs
        n = self.trunc - self.lead
        zero = Fraction(0) if exact else mpf(0)
        out = [zero] * n
        with mp.workprec(prec or 53):
            inv0 = Fraction(1) / a0 if exact else 1 / a0
            out[0] = inv0
            for m in range(1, n):
                acc = zero
                top = min(m, len(a) - 1)
                for k in range(1, top + 1):
                    if a[k]:
                        acc = acc + a[k] * out[m - k]
                out[m] = -inv0 * acc
        return self._make(out, -self.lead, n - self.lead, prec, exact)

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self * other.recip()
        with mp.workprec(self.prec or default_precision()):
            return self.scale(1 / TruncatedSeries._num(other))

    def differentiate(self) -> "TruncatedSeries":
        """Termwise derivative; exponent window shifts to [lead-1, trunc-1)."""
        with mp.workprec(self.prec or 53):
            out = [(self.lead + i) * c for i, c in enumerate(self.coeffs)]
        return self._make(out, self.lead - 1, self.trunc - 1, self.prec, self.exact)

    def integrate(self) -> "TruncatedSeries":
        """Termwise antiderivative with zero constant; requires no t^-1 term."""
        if self.lead <= -1 < self.trunc and self.coeff(-1):
            raise ValueError("cannot integrate a series with a t^-1 term")
        zero = self._zero()
        out = []
        with mp.workprec(self.prec or 53):
            for i, c in enumerate(self.coeffs):
                n = self.lead + i
                if n == -1:
                    out.append(zero)
                elif self.exact:
                    out.append(c / Fraction(n + 1))
                else:
                    out.append(c / (n + 1))
        return self._make(out, self.lead + 1, self.trunc + 1, self.prec, self.exact)

    def exp(self) -> "TruncatedSeries":
        """exp of a Taylor series (lead >= 0); exact mode needs zero constant."""
        if self.lead < 0:
            raise ValueError("exp of a Laurent series is undefined")
        n = self.trunc
        a = [self._zero()] * n
        for i, c in enumerate(self.coeffs):
            a[self.lead + i] = c
        exact, prec = self.exact, self.prec
        if exact and a[0]:
            raise ValueError("exact exp requires zero constant term")
        with mp.workprec(prec or default_precision()):
            g0 = Fraction(1) if exact else mpmath.exp(TruncatedSeries._num(a[0]) if a[0] else mpf(0))
            out = [g0] + [self._zero()] * (n - 1)
            for m in range(1, n):
                acc = self._zero()
                for k in range(1, m + 1):
                    if a[k]:
                        acc = acc + (k * a[k]) * out[m - k]
                out[m] = acc / Fraction(m) if exact else acc / m
        return self._make(out, 0, n, prec, exact)

    def log(self) -> "TruncatedSeries":
        """log of a series with nonzero constant term (unit), principal branch."""
        if self.lead != 0 and self.order() != 0:
            raise ValueError("log requires a unit constant term")
        n = self.trunc
        a = [self._zero()] * n
        for i, c in enumerate(self.coeffs):
            if 0 <= self.lead + i < n:
                a[self.lead + i] = c
        if not a[0]:
            raise ValueError("log requires a nonzero constant term")
        if self.exact and a[0] != 1:
            raise ValueError("exact log requires constant term 1")
        exact, prec = self.exact, self.prec
        with mp.workprec(prec or default_precision()):
            inv0 = Fraction(1) / a[0] if exact else 1 / TruncatedSeries._num(a[0])
            out = [self._zero()] * n
            out[0] = Fraction(0) if exact else mpmath.log(TruncatedSeries._num(a[0]))
            for m in range(1, n):
                acc = m * a[m]
                for k in range(1, m):
                    if a[m - k]:
                        acc = acc - (k * out[k]) * a[m - k]
                out[m] = inv0 * acc / Fraction(m) if exact else inv0 * acc / m
        return self._make(out, 0, n, prec, exact)

    def sqrt(self, branch=None) -> "TruncatedSeries":
        """Square root of a unit series.

        `branch` selects the constant term of the result; defaults to the
        principal square root of the constant term.
        """
        if self.exact:
            raise NotImplementedError("exact square root not supported")
        c0 = self.coeff(0) if self.lead <= 0 else None
        if self.lead != 0 or not c0:
            raise ValueError("sqrt requires a unit constant term")
        with mp.workprec(self.prec or default_precision()):
            root = mpmath.sqrt(c0) if branch is None else TruncatedSeries._num(branch)
            u = self.scale(1 / c0)
            lg = u.log()
            half = lg.scale(mpf(1) / 2)
            return half.exp().scale(root)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)) for inner vanishing at 0 (lead >= 1), Horner scheme."""
        if inner.order() is not None and inner.order() < 1:
            raise ValueError("composition requires the inner series to vanish at 0")
        if inner.lead < 1:
            inner = inner._make(list(inner.coeffs[1 - inner.lead:]), 1, inner.trunc,
                                inner.prec, inner.exact) if inner.trunc > 1 else inner
        if self.lead < 0:
            raise ValueError("cannot compose a Laurent series")
        exact, prec = self._joint(inner)
        trunc = min(self.trunc * max(inner.order() or 1, 1), inner.trunc)
        trunc = min(trunc, inner.trunc)
        zero = Fraction(0) if exact else mpf(0)
        acc = TruncatedSeries._make([zero] * trunc, 0, trunc, prec, exact)
        with mp.workprec(prec or 53):
            for n in range(self.trunc - 1, self.lead - 1, -1):
                acc = acc * inner if acc.order() is not None else acc * inner
                acc = acc._restrict(0, trunc)
                c = self.coeff(n)
                if c:
                    acc.coeffs[0] = acc.coeffs[0] + (c if exact else TruncatedSeries._num(c))
        return acc

    def _restrict(self, lead: int, trunc: int) -> "TruncatedSeries":
        zero = self._zero()
        out = []
        for n in range(lead, trunc):
            if self.lead <= n < self.trunc:
                out.append(self.coeffs[n - self.lead])
            else:
                out.append(zero)
        return self._make(out, lead, trunc, self.prec, self.exact)

    def evaluate(self, t):
        """Value at the point t (Horner on the Taylor part, plus Laurent part)."""
        with mp.workprec(self.prec or default_precision()):
            t = TruncatedSeries._num(t) if not self.exact else t
            acc = 0
            for c in reversed(self.coeffs):
                acc = acc * t + c
            if self.lead:
                acc = acc * t ** self.lead
            return acc

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:4])
        more = ", ..." if len(self.coeffs) > 4 else ""
        return (f"TruncatedSeries([{shown}{more}], lead={self.lead}, "
                f"trunc={self.trunc}, prec={self.prec}, exact={self.exact})")

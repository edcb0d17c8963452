"""Dilogarithm machinery: the principal branch (`_li2_any`), Clausen's
integral, certified zeros on non-principal branches, the phase p_d and the
associated saddle points, and the strip function q.

The analytically continued dilogarithm on any branch equals
Li2(z) + 4 pi^2 A + 2 pi i B log(z) for integers A, B.  For B != 0 that
expression has a unique zero w(A, B) exactly when -|B|/2 < A <= |B|/2, and
w(A, -B) is the conjugate of w(A, B).  The zero w(0, -1) and its companion
saddle point z0 = 1 + log(1 - w(0,-1))/(2 pi i) drive all the asymptotic
expansions in this package.

The power series sum z^n/n^2 (`_li2_series`) and the Bernoulli series in
mu = log z (`_li2_log_series`, the one series behind the annulus and
Clausen's integral) run on complex fixed-point integers; Clausen's
integral takes the imaginary part alone, on one real power walk.
`_phase_at` (p_d) takes a precomputed e^{2 pi i z}, so the contour
integrand shares one exponential between p and v (`asymptotics._v_at`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
from mpmath import mp, mpc, mpf, pi

from .fixed import fix, powers, unfix
from .precision import HPComplex, HPReal, checked_int, resolve_precision, to_mpc, tolerance
from .sequences import bernoulli_table


class ConvergenceError(RuntimeError):
    """Newton iteration failed to certify a root."""


def _zeta2():
    return pi ** 2 / 6


def _li2_series(z):
    """Power series sum z^n / n^2, reliable for |z| <= 1/2: z S, with
    S = sum_{n<=nmax} z^{n-1}/n^2 (|S| > 4/5) summed in complex fixed point at
    F = prec + 8 + bitlen(nmax) fraction bits, one rounded division per term."""
    zv = mpc(z)
    r = abs(zv)
    if r == 0:
        return zv
    # |z|^n < 2^-(prec+8) decides the truncation up front
    nmax = int((mp.prec + 10) / -mpmath.log(r, 2)) + 2
    F = mp.prec + 8 + nmax.bit_length()
    px, py = powers(*fix(zv, F), F, nmax)  # z^{n-1} 2^F, n = 1..nmax
    sx = sy = 0
    for n, x, y in zip(range(1, nmax + 1), px, py):
        d = 2 * n * n
        sx += (2 * x + n * n) // d
        sy += (2 * y + n * n) // d
    return unfix(sx, sy, -F) * zv


_ANNULUS_BITS = -math.log2(math.hypot(math.log(2), math.pi) / (2 * math.pi))
"""-log2(|mu|/2 pi) at the largest |mu| = |log z| on the annulus 1/2 < |z| < 2."""


def _log_series_terms(F: int, bits) -> int:
    """Terms k that carry `_li2_log_series` below 2^-F at |mu|/2 pi = 2^-bits."""
    return int((F + 4) / (2 * bits)) + 1


def _li2_log_series(mu, logneg):
    """Li2(e^mu) for |mu| <= sqrt(log^2 2 + pi^2), given the branch value log(-mu).

    Li2(e^mu) = zeta(2) + mu - mu log(-mu) - mu^2/4
                - sum_{k>=1} B_{2k} mu^{2k+1} / (2k (2k)! (2k+1)).
    The sum runs in complex fixed point at F = prec + 24 fraction bits: the
    mu^{2k+1} come from one power walk in mu^2, each part summed by
    `_bernoulli_sum`.  The terms fall like (|mu|/2 pi)^{2k}, which fixes
    their count up front.
    """
    F = mp.prec + 24
    K = _log_series_terms(F, -mpmath.log(abs(mu) / (2 * pi), 2))
    px, py = powers(*fix(mu * mu, F), F, K + 1, start=fix(mu, F))  # mu^{2k+1} 2^F
    return (_zeta2() + mu - mu * logneg - mu ** 2 / 4
            - unfix(_bernoulli_sum(px, F, K), _bernoulli_sum(py, F, K), -F))


def _bernoulli_sum(p, F: int, K: int) -> int:
    """sum_{k<=K} B_{2k} p[k] / (2k (2k)! (2k+1)) on F fraction bits, each
    term the mantissa of |B_{2k}/(2k)!| from `sequences.bernoulli_table`
    times p[k] and one floor division.  The table is built once per
    precision for the annulus bound on |mu| and read as a prefix."""
    table = bernoulli_table(_log_series_terms(F, _ANNULUS_BITS), F)
    total = 0
    for k, (man, e), x in zip(range(1, K + 1), table, p[1:]):
        total += (man * x >> -e) // ((-1) ** (k + 1) * 2 * k * (2 * k + 1))
    return total


def _li2_any(z):
    """Principal-branch Li2(z) at the ambient precision, holomorphic on C
    minus [1, oo).

    For |z| <= 1/2 the defining power series is summed directly, for
    |z| >= 2 the inversion functional equation maps z to 1/z, and the
    annulus between them, the disk |1 - z| <= 1/2 (|log z| <= log 2)
    included, takes the Bernoulli series in log(z).  Points on the cut
    [1, oo) are evaluated as the limit from the upper half plane.
    """
    zeta2 = _zeta2()
    if z == 0:
        return mpc(0)
    if z == 1:
        return mpc(zeta2)
    if abs(z) <= mpf(1) / 2:
        return _li2_series(z)
    if abs(z) >= 2:
        # Li2(z) = -Li2(1/z) - zeta(2) - log^2(-z)/2, limit from above on the cut
        if z.imag == 0 and z.real > 1:
            logneg = mpmath.log(z.real) - 1j * pi
        else:
            logneg = mpmath.log(-z)
        return -_li2_any(1 / z) - zeta2 - logneg ** 2 / 2
    # annulus: expand around the unit circle in mu = log z, which is real
    # and positive on the cut
    mu = mpmath.log(z)
    if mu.imag == 0 and mu.real > 0:
        logneg = mpmath.log(mu) - 1j * pi
    else:
        logneg = mpmath.log(-mu)
    return _li2_log_series(mu, logneg)


def clausen(theta, prec: int | None = None) -> HPReal:
    """Clausen's integral Cl2(theta) = Im Li2(e^{i theta}); odd, 2pi-periodic.

    theta is reduced to (0, pi], where Cl2 is the imaginary part of
    `_li2_log_series` at mu = i theta, taken on reals alone:
    Im(zeta(2) + mu - mu log(-mu) - mu^2/4) = theta - theta log theta, and
    mu^{2k+1} = i (-theta^2)^k theta, one real power walk in -theta^2, the
    same integers as the imaginary parts of the complex walk."""
    prec = resolve_precision(prec)
    with mp.workprec(prec + 24):
        t = to_mpc(theta).real
        if abs(t) > pi:
            t = mpmath.fmod(t, 2 * pi)
            if t > pi:
                t -= 2 * pi
            elif t < -pi:
                t += 2 * pi
        sign = 1
        if t < 0:
            sign, t = -1, -t
        if t == 0:
            return HPReal(mpf(0), prec)
        F = mp.prec + 24
        frac, ex = mpmath.frexp(t / (2 * pi))
        K = _log_series_terms(F, -ex - math.log2(frac))
        # Im mu^{2k+1} 2^F: the real parts of the walk stay 0
        py = powers(-fix(t * t, F)[0], 0, F, K + 1, start=(0, fix(t, F)[0]))[1]
        return HPReal(sign * (t - t * mpmath.log(t) - mpf((_bernoulli_sum(py, F, K), -F))), prec)


@dataclass(frozen=True)
class BranchLabel:
    """Branch indices (A, B) of the continued dilogarithm, integers
    (ValueError otherwise)."""
    A: int
    B: int

    def __post_init__(self):
        checked_int(self.A, "A")
        checked_int(self.B, "B")

    def admissible(self) -> bool:
        return self.B != 0 and -abs(self.B) / 2 < self.A <= abs(self.B) / 2


@dataclass(frozen=True)
class DilogZero:
    label: BranchLabel
    w: HPComplex
    residual: HPReal


def _li2_branch(w, A, B):
    """Li2(w) + 4 pi^2 A + 2 pi i B log(w) at the ambient precision."""
    return _li2_any(w) + 4 * pi ** 2 * A + 2j * pi * B * mpmath.log(w)


def _zero_newton(A, B, w, prec):
    steptol = mpf(2) ** (24 - prec)
    for _ in range(200):
        f = _li2_branch(w, A, B)
        fp = -mpmath.log(1 - w) / w + 2j * pi * B / w
        step = f / fp
        w = w - step
        if abs(step) < steptol:
            return w
    return None


def find_zero(label: BranchLabel | tuple, prec: int | None = None) -> DilogZero:
    """Certified zero w(A, B) of the continued dilogarithm, by Newton's method.

    label is a BranchLabel or an (A, B) pair.  Starts near e^{2 pi i A/B};
    the A = 0 zeros sit close to 1 just off the real axis, so those start at
    0.95 e^{-i sign(B) 0.2/|B|}.  Newton converges from that one start on
    every admissible branch with |B| <= 30; one that fails to converge within
    200 steps raises ConvergenceError, as does a residual of 2^(16-prec) or
    more.
    """
    if not isinstance(label, BranchLabel):
        label = BranchLabel(*label)
    if not label.admissible():
        raise ValueError(f"no dilogarithm zero for branch (A={label.A}, B={label.B})")
    return _zero(label, resolve_precision(prec))


@lru_cache(maxsize=256)
def _zero(label: BranchLabel, prec: int) -> DilogZero:
    """find_zero's Newton solve; a DilogZero is immutable, so callers share it."""
    A, B = label.A, label.B
    with mp.workprec(prec + 32):
        if A == 0:
            w0 = mpf("0.95") * mpmath.exp(-1j * mpmath.sign(B) * mpf("0.2") / abs(B))
        else:
            w0 = mpmath.exp(2j * pi * mpf(A) / B)
            if w0.real < 0 and abs(w0.imag) < mpf("0.05"):
                # e^{2 pi i A/B} on the log cut (|B| = 2|A|): rotate off it,
                # toward the half plane holding the zero
                w0 *= mpmath.exp(-1j * mpmath.sign(B) * mpf("0.1"))
        w = _zero_newton(A, B, w0, prec)
        if w is None:
            raise ConvergenceError(f"Newton failed for branch ({A},{B})")
        res = abs(_li2_branch(w, A, B))
        if res >= tolerance(prec):
            raise ConvergenceError(f"zero ({A},{B}) residual {mpmath.nstr(res, 5)} too large")
        return DilogZero(label, HPComplex(w, prec), HPReal(res, prec))


def _check_off_cut(z):
    re, im = z.real, z.imag
    if im <= 0 and re == mpmath.floor(re):
        raise ValueError("argument lies on a branch cut (-i oo, n]")


def _phase(z, d: int, order: int, prec: int) -> list:
    """[p_d(z)] (order 0) or [p_d(z), p_d'(z)] (order 1), at prec + 24 bits;
    p_d'(z) = -(p_d(z) - log(1 - e^{2 pi i z})) / z."""
    with mp.workprec(prec + 24):
        zv = to_mpc(z)
        _check_off_cut(zv)
        return _phase_at(zv, mpmath.exp(2j * pi * zv), d, order)


def _phase_at(zv, e, d: int, order: int) -> list:
    """_phase at the ambient precision, given e = e^{2 pi i z}."""
    vals = [(-_li2_any(e) + _zeta2() + 4 * pi ** 2 * d) / (2j * pi * zv)]
    if order:
        vals.append(-(vals[0] - mpmath.log(1 - e)) / zv)
    return vals


def p_d(z, d: int = 0, prec: int | None = None) -> HPComplex:
    """p_d(z) = (-Li2(e^{2 pi i z}) + zeta(2) + 4 pi^2 d) / (2 pi i z)."""
    prec = resolve_precision(prec)
    return HPComplex(_phase(z, d, 0, prec)[0], prec)


@dataclass(frozen=True)
class SaddlePoint:
    m: int
    d: int
    z: HPComplex
    pValue: HPComplex


def find_saddle(m: int, d: int, prec: int | None = None) -> SaddlePoint:
    """Unique zero z* of p_d' in the strip m - 1/2 < Re z < m + 1/2.

    Constructed from the dilogarithm zero as
    z* = m + log(1 - w(d, -m)) / (2 pi i), then certified by checking that
    p_d'(z*) vanishes and p_d(z*) = log w(d, -m).  m and d are integers
    (ValueError otherwise).
    """
    m, d = checked_int(m, "m"), checked_int(d, "d")
    if not BranchLabel(d, -m).admissible():
        raise ValueError(f"no saddle point for (m={m}, d={d})")
    prec = resolve_precision(prec)
    zero = find_zero(BranchLabel(d, -m), prec=prec)
    with mp.workprec(prec + 24):
        w = mpc(zero.w.value)
        zs = m + mpmath.log(1 - w) / (2j * pi)
        target = mpmath.log(w)
        cert = mpf(10) ** (-mpf("0.3") * prec)
        pval, pprime = _phase(zs, d, 1, prec)
        if abs(pprime) >= cert or abs(pval - target) >= cert:
            raise ConvergenceError(f"saddle ({m},{d}) failed certification")
    return SaddlePoint(m, d, HPComplex(zs, prec), HPComplex(target, prec))


def q_func(z, prec: int | None = None) -> HPComplex:
    """q(z) = sqrt(z / (2 sin(pi (z - 1)))) e^{-i pi z / 2}, principal root.
    A real integer z != 0 is a pole (ValueError); at z = 0 the root takes
    its limit sqrt(-1/(2 pi))."""
    prec = resolve_precision(prec)
    with mp.workprec(prec + 24):
        zv = to_mpc(z)
        if zv.imag == 0 and zv.real == mpmath.floor(zv.real):
            if zv.real:
                raise ValueError("pole at integer z")
            return HPComplex(mpmath.sqrt(-1 / (2 * pi)), prec)
        val = mpmath.sqrt(zv / (2 * mpmath.sin(pi * (zv - 1)))) * mpmath.exp(-1j * pi * zv / 2)
    return HPComplex(val, prec)

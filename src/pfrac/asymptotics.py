"""Saddle-point expansion engine.

Everything here feeds the asymptotic evaluation
    Re[ w^{-N} / N^power * (c_0 + c_1/N + ...) ]
whose coefficients come out of the classical steepest-descent recipe: local
power series of the phase p and the amplitude q at the saddle, partial
ordinary Bell polynomials, and the explicit closed form for the descent
coefficients a_{2s}.  The phase p(z) = (zeta(2) - Li2(e^{2 pi i z}))/(2 pi i z)
has its saddle z0 at the dilogarithm zero w0 = w(0, -1) with
e^{-p(z0)} = 1/w0, which is what turns every expansion into powers of w0^{-N}.

All local series are produced by closed-form series arithmetic (exp, log,
reciprocal, integration), never numerical differentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp, mpc, mpf, pi

from .dilog import (BranchLabel, ConvergenceError, DilogZero, SaddlePoint,
                    _li2_any, find_saddle, find_zero, p_d, q_func, v_func)
from .precision import HPComplex, HPReal, default_precision
from .sequences import bernoulli, binom_half_fraction, stirling2
from .series import exp, inv, log, mul
from .sine_products import g_ell

__all__ = [
    "bell_partial", "LocalSeriesPair", "local_series", "wojdylo_a2s",
    "u_weight", "vstar_weight", "b_coeffs", "c_coeffs", "family_leading",
    "Expansion", "evaluate_expansion", "a3_quadrature", "saddle_path",
    "path_positivity_check", "decay_exponent",
]


def _bell_powers(p, n: int, jmax: int) -> list:
    """[(p_1 x + p_2 x^2 + ...)^j for j = 0..jmax], each to n coefficients."""
    one = Fraction(1) if all(isinstance(c, (int, Fraction)) for c in p) else mpc(1)
    base = [0 * one] + list(p[:n - 1])
    powers = [[one] + [0 * one] * (n - 1)]
    for _ in range(jmax):
        powers.append(mul(powers[-1], base, n))
    return powers


def bell_partial(i: int, j: int, p) -> object:
    """Partial ordinary Bell polynomial B-hat_{i,j}(p_1, p_2, ...).

    p is the coefficient list [p_1, p_2, ...]; the value is the coefficient
    of x^i in (p_1 x + p_2 x^2 + ...)^j.  Exact inputs give exact output.
    """
    if i < 0 or j < 0:
        raise ValueError("need i, j >= 0")
    return _bell_powers(p, i + 1, j)[j][i]


@dataclass(frozen=True)
class LocalSeriesPair:
    """Local data at a saddle, in eps = z - z*: the phase coefficients p,
    with p(z) - p(z*) = sum_s p[s] eps^{s+2}, the weight coefficients q,
    the saddle itself, and the path direction omega."""
    p: tuple
    q: tuple
    center: SaddlePoint
    omega: HPComplex


class _Frame:
    """Shared series scaffolding at a saddle point, in eps = z - z*."""

    def __init__(self, saddle: SaddlePoint, depth: int, prec: int):
        self.saddle = saddle
        self.prec = prec
        self.depth = depth
        # each cot differentiation consumes one coefficient, so the cot series
        # carries a generous margin over the exposed depth
        n = depth + 2 * (depth // 2 + 3)
        with mp.workprec(prec):
            z0 = mpc(saddle.z.value)
            d = saddle.d
            self.z0 = z0
            e0 = mpmath.exp(2j * pi * z0)
            # e^{2 pi i z}, 1 - e^{2 pi i z}, log(1 - e^{2 pi i z}), Li2(e^{2 pi i z})
            fact = mpf(1)
            ecoef = [e0]
            for i in range(1, n):
                fact *= i
                ecoef.append(e0 * (2j * pi) ** i / fact)
            W = [1 - ecoef[0]] + [-c for c in ecoef[1:]]
            f = -2j * pi
            li2 = [_li2_any(e0)] + [c * f / (i + 1) for i, c in enumerate(log(W, depth - 1))]
            self.zser = [z0, mpc(1)] + [mpc(0)] * (n - 2)
            numer = [pi ** 2 / 6 + 4 * pi ** 2 * d - li2[0]] + [-c for c in li2[1:]]
            f = 1 / (2j * pi)
            P = [c * f for c in mul(numer, inv(self.zser, depth), depth)]
            if abs(P[1]) > mpf(2) ** (-prec // 2):
                raise ConvergenceError("saddle center is not accurate enough")
            self.p = tuple(P[2:])  # p(z) - p(z*), from the quadratic term
            # amplitude q: q^2 = i z / (1 - e^{2 pi i z}), branch from q(z0)
            invW = inv(W, n)
            qsq = [c * 1j for c in mul(self.zser, invW, depth)]
            f = 1 / qsq[0]
            half = mpf(1) / 2
            lg = log([c * f for c in qsq], depth)
            q_at = q_func(z0, prec).value
            self.Q = [c * q_at for c in exp([c * half for c in lg], depth)]
            # cot(pi z) = i - 2i/(1 - e^{2 pi i z})
            self._cot = [1j - 2j * invW[0]] + [-2j * c for c in invW[1:]]

    def g_series(self, ell: int) -> list:
        """g_l(z) as a series in eps, by differentiating the cot series."""
        n = self.depth
        with mp.workprec(self.prec):
            cd = self._cot
            f = 1 / pi
            for _ in range(2 * ell - 2):
                cd = [i * c * f for i, c in enumerate(cd) if i]
            if len(cd) < n:
                raise ValueError("frame depth margin exhausted; rebuild deeper")
            b = Fraction(bernoulli(2 * ell), math.factorial(2 * ell))
            piz = [c * pi for c in self.zser[:n]]
            pw = [mpc(1)] + [mpc(0)] * (n - 1)
            for _ in range(2 * ell - 1):
                pw = mul(pw, piz, n)
            f = -mpf(b.numerator) / b.denominator
            return [c * f for c in mul(pw, cd, n)]

    def u_series(self, sigma: int, jmax: int) -> list:
        """[u_{sigma,0}, ..., u_{sigma,jmax}] as eps-series.

        u_{sigma,j} collects the 1/N^j coefficient of
        exp(2 pi i sigma z / N + sum_l g_l(z)/N^{2l-1}).
        """
        n = self.depth
        with mp.workprec(self.prec):
            f = 2j * pi * sigma
            terms = {1: [c * f + g for c, g in zip(self.zser, self.g_series(1))]}
            ell = 2
            while 2 * ell - 1 <= jmax:
                terms[2 * ell - 1] = self.g_series(ell)
                ell += 1
            out = [[mpc(1)] + [mpc(0)] * (n - 1)]
            for m in range(1, jmax + 1):
                acc = [mpc(0)] * n
                for kk, ak in terms.items():
                    if kk <= m:
                        acc = [x + y * kk for x, y in zip(acc, mul(ak, out[m - kk], n))]
                f = mpf(1) / m
                out.append([c * f for c in acc])
            return out

    def vstar_series(self, ell: int, jmax: int) -> list:
        """[v*_{ell,0}, ..., v*_{ell,jmax}]: the weights that collapse the
        binomial combination over sigma into a single expansion, with
        v*_{ell,j} = sum_t Bhat_{ell-1+t, ell-1}(1/1!, 1/2!, ...)
                      (2 pi i z)^{ell-1+t} u_{1, j-t}."""
        n = self.depth
        us = self.u_series(1, jmax)
        with mp.workprec(self.prec):
            f = 2j * pi
            tpz = [c * f for c in self.zser[:n]]
            powers = [[mpc(1)] + [mpc(0)] * (n - 1)]
            for _ in range(ell - 1 + jmax):
                powers.append(mul(powers[-1], tpz, n))
            out = []
            for j in range(jmax + 1):
                acc = [mpc(0)] * n
                for t in range(j + 1):
                    bh = (Fraction(math.factorial(ell - 1) * stirling2(ell - 1 + t, ell - 1),
                                   math.factorial(ell - 1 + t)))
                    f = mpf(bh.numerator) / bh.denominator
                    term = mul(powers[ell - 1 + t], us[j - t], n)
                    acc = [x + y * f for x, y in zip(acc, term)]
                out.append(acc)
            return out


@lru_cache(maxsize=64)
def _frame(m: int, d: int, depth: int, prec: int) -> _Frame:
    return _Frame(find_saddle(m, d, prec), depth, prec + 32)


def local_series(saddle: SaddlePoint, weight=None, depth: int = 12,
                 prec: int | None = None) -> LocalSeriesPair:
    """Local phase/amplitude series at a saddle, to eps^{depth-1}.

    weight selects the amplitude: None for q itself, ("u", sigma, j) for
    q * u_{sigma,j}, ("vstar", ell, j) for q * v*_{ell,j}.
    """
    prec = default_precision() if prec is None else prec
    frame = _frame(saddle.m, saddle.d, depth, prec)
    with mp.workprec(frame.prec):
        w = frame.Q
        if weight is not None:
            kind, a, b = weight
            if kind == "u":
                w = mul(w, frame.u_series(a, b)[b], depth)
            elif kind == "vstar":
                w = mul(w, frame.vstar_series(a, b)[b], depth)
            else:
                raise ValueError(f"unknown weight selector {weight!r}")
    return LocalSeriesPair(frame.p, tuple(w), frame.saddle, HPComplex(frame.z0, prec))


def wojdylo_a2s(pair: LocalSeriesPair, s: int, prec: int | None = None) -> HPComplex:
    """Descent coefficient

    a_{2s} = (omega / (2 (omega^2 p0)^{1/2})) *
             sum_{i<=2s} q_{2s-i} sum_{j<=i} p0^{-s-j} C(-s-1/2, j) Bhat_{i,j}(p1, ...),
    with the square root chosen so Re((omega^2 p0)^{1/2}) > 0.
    """
    prec = default_precision() if prec is None else prec
    with mp.workprec(prec + 32):
        p0 = mpc(pair.p[0])
        omega = mpc(pair.omega.value)
        root = mpmath.sqrt(omega ** 2 * p0)
        if root.real < 0:
            root = -root
        pref = omega / (2 * root)
        bell = _bell_powers([mpc(pair.p[t]) for t in range(1, 2 * s + 1)], 2 * s + 1, 2 * s)
        total = mpc(0)
        for i in range(0, 2 * s + 1):
            wcoef = mpc(pair.q[2 * s - i]) if 2 * s - i < len(pair.q) else mpc(0)
            if not wcoef:
                continue
            inner = mpc(0)
            for j in range(0, i + 1):
                bh = bell[j][i]
                if bh:
                    cf = binom_half_fraction(s, j)
                    inner += p0 ** (-s - j) * (mpf(cf.numerator) / cf.denominator) * bh
            total += wcoef * inner
        return HPComplex(pref * total, prec)


def _u_scalar(sigma, jmax: int, z, prec: int) -> list:
    """u_{sigma,0..jmax}(z) as scalars: exp of v(z; N, sigma) as a series in 1/N."""
    with mp.workprec(prec + 16):
        zv = mpc(z)
        v = [mpc(0), 2j * pi * sigma * zv + g_ell(1, zv, prec=prec + 16).value]
        for ell in range(2, (jmax + 1) // 2 + 1):
            v += [mpc(0), g_ell(ell, zv, prec=prec + 16).value]
        return exp(v, jmax + 1)


def u_weight(sigma: int, j: int, z, prec: int | None = None) -> HPComplex:
    """u_{sigma,j}(z): 1/N^j coefficient of exp(v(z; N, sigma)); u_{sigma,0} = 1."""
    prec = default_precision() if prec is None else prec
    return HPComplex(_u_scalar(sigma, j, z if not isinstance(z, (HPComplex, HPReal))
                               else z.value, prec)[j], prec)


def vstar_weight(ell: int, j: int, z, prec: int | None = None) -> HPComplex:
    """v*_{ell,j}(z) = sum_t Bhat_{ell-1+t,ell-1}(1/1!,...) (2 pi i z)^{ell-1+t} u_{1,j-t}(z)."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    prec = default_precision() if prec is None else prec
    with mp.workprec(prec + 16):
        zv = mpc(z) if not isinstance(z, (HPComplex, HPReal)) else mpc(z.value)
        us = _u_scalar(1, j, zv, prec)
        total = mpc(0)
        for t in range(j + 1):
            bh = Fraction(math.factorial(ell - 1) * stirling2(ell - 1 + t, ell - 1),
                          math.factorial(ell - 1 + t))
            total += (mpf(bh.numerator) / bh.denominator) * (2j * pi * zv) ** (ell - 1 + t) * us[j - t]
        return HPComplex(total, prec)


@dataclass(frozen=True)
class Expansion:
    """Asymptotic expansion Re[ base^{-N or -N/2} / N^power * sum_t coeffs[t]/N^t ].

    kind is one of A1-b, C01-c, familyC, familyD, familyE.  familyD uses the
    conjugate-pair square-root base (exponent -N/2), carries the parity of N
    it was built for, evaluates with overall sign -1, and divides by the odd
    number (2 floor(N/2) + 1)^2 instead of N^2; that sign and denominator are
    calibrated to the published m = 1 values at N = 1000 and 1001.
    """
    kind: str
    base: DilogZero
    power: int
    coeffs: tuple
    parity: int | None = None
    half_exponent: bool = False
    sign: int = 1

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "base": {"A": self.base.label.A, "B": self.base.label.B,
                     "w": {"re": mpmath.nstr(self.base.w.value.real, 30),
                           "im": mpmath.nstr(self.base.w.value.imag, 30)}},
            "power": self.power,
            "coeffs": [{"re": mpmath.nstr(mpc(c).real, 30),
                        "im": mpmath.nstr(mpc(c).imag, 30)} for c in self.coeffs],
        }
        if self.parity is not None:
            out["parity"] = self.parity
        return out


@lru_cache(maxsize=64)
def _b_coeff_values(sigma: int, m: int, prec: int) -> tuple:
    saddle = find_saddle(1, 0, prec)
    depth = 2 * m + 4
    out = []
    with mp.workprec(prec + 32):
        for t in range(m):
            total = mpc(0)
            for s in range(t + 1):
                pair = local_series(saddle, ("u", sigma, t - s), depth, prec)
                a2s = wojdylo_a2s(pair, s, prec + 32).value
                total += mpmath.gamma(s + mpf(1) / 2) * a2s
            out.append(-4j * total)
    return tuple(out)


def b_coeffs(sigma: int, m: int, prec: int | None = None) -> Expansion:
    """Expansion coefficients b_t(sigma), t < m, of the dominant simple-pole sum:

    b_t(sigma) = -4i sum_{s<=t} Gamma(s+1/2) a_{2s}(q u_{sigma,t-s}),
    b_0 = 2 z0 e^{-pi i z0}; evaluated against base w(0,-1) and power N^2.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    prec = default_precision() if prec is None else prec
    zero = find_zero(BranchLabel(0, -1), prec=prec)
    return Expansion("A1-b", zero, 2, _b_coeff_values(int(sigma), m, prec))


@lru_cache(maxsize=64)
def _c_coeff_values(ell: int, m: int, prec: int) -> tuple:
    saddle = find_saddle(1, 0, prec)
    depth = 2 * m + 4
    out = []
    with mp.workprec(prec + 32):
        for t in range(m):
            total = mpc(0)
            for s in range(t + 1):
                pair = local_series(saddle, ("vstar", ell, t - s), depth, prec)
                a2s = wojdylo_a2s(pair, s, prec + 32).value
                total += mpmath.gamma(s + mpf(1) / 2) * a2s
            out.append(4j * total)
    return tuple(out)


def c_coeffs(ell: int, m: int, prec: int | None = None) -> Expansion:
    """Expansion coefficients c_{ell,t}, t < m, for the pole-at-1 coefficients:

    c_{ell,t} = 4i sum_{s<=t} Gamma(s+1/2) a_{2s}(q v*_{ell,t-s}),
    c_{ell,0} = -2 z0 e^{-pi i z0} (2 pi i z0)^{ell-1}; base w(0,-1), power ell+1.
    """
    if ell < 1 or m < 1:
        raise ValueError("need ell >= 1 and m >= 1")
    prec = default_precision() if prec is None else prec
    zero = find_zero(BranchLabel(0, -1), prec=prec)
    return Expansion("C01-c", zero, ell + 1, _c_coeff_values(int(ell), m, prec))


def family_leading(tag: str, parity: int | None = None,
                   prec: int | None = None) -> Expansion:
    """Leading-term expansions of the secondary residue families.

    C: coefficient -z3 e^{-pi i z3}/4 against w(1,-3)^{-N},
    E: coefficient -3 z1 e^{-pi i z1}/2 against w(0,-2)^{-N},
    D: coefficient z0 sqrt(2 e^{-pi i z0}(e^{-pi i z0} + (-1)^N)) against
       w(0,-1)^{-N/2}, parity-dependent, with the documented sign and
       odd-denominator convention (see Expansion).
    """
    prec = default_precision() if prec is None else prec
    with mp.workprec(prec + 32):
        if tag == "C":
            zero = find_zero(BranchLabel(1, -3), prec=prec)
            z3 = find_saddle(3, 1, prec).z.value
            return Expansion("familyC", zero, 2, (-z3 * mpmath.exp(-1j * pi * z3) / 4,))
        if tag == "E":
            zero = find_zero(BranchLabel(0, -2), prec=prec)
            z1 = find_saddle(2, 0, prec).z.value
            return Expansion("familyE", zero, 2, (-3 * z1 * mpmath.exp(-1j * pi * z1) / 2,))
        if tag == "D":
            if parity not in (0, 1):
                raise ValueError("family D needs parity 0 or 1")
            zero = find_zero(BranchLabel(0, -1), prec=prec)
            z0 = find_saddle(1, 0, prec).z.value
            e = mpmath.exp(-1j * pi * z0)
            d0 = z0 * mpmath.sqrt(2 * e * (e + (-1) ** parity))
            return Expansion("familyD", zero, 2, (d0,), parity=parity,
                             half_exponent=True, sign=-1)
    raise ValueError(f"unknown family tag {tag!r}")


def evaluate_expansion(e: Expansion, N: int, m: int | None = None,
                       prec: int | None = None) -> HPReal:
    """Evaluate the m-term truncation of an Expansion at N."""
    m = len(e.coeffs) if m is None else m
    if m > len(e.coeffs):
        raise ValueError(f"only {len(e.coeffs)} coefficients available, m={m} requested")
    if e.parity is not None and N % 2 != e.parity:
        raise ValueError(f"expansion was built for N % 2 == {e.parity}")
    prec = default_precision() if prec is None else prec
    with mp.workprec(prec + 32):
        w = mpc(e.base.w.value)
        expo = -mpf(N) / 2 if e.half_exponent else -mpf(N)
        base = mpmath.exp(expo * mpmath.log(w))
        series = mpc(0)
        Nf = mpf(N)
        for t in range(m - 1, -1, -1):
            series = series / Nf + mpc(e.coeffs[t])
        denom = mpf(2 * (N // 2) + 1) if e.half_exponent else Nf
        val = e.sign * (base * series).real / denom ** e.power
    return HPReal(val, prec)


# -- contour integration ---------------------------------------------------------

@lru_cache(maxsize=16)
def _gauss_legendre(n: int, prec: int) -> tuple:
    """Nodes and weights on [-1, 1], by Newton on the Legendre recurrence."""
    with mp.workprec(prec + 16):
        nodes, weights = [], []
        for i in range(1, n + 1):
            x = mpf(math.cos(math.pi * (i - 0.25) / (n + 0.5)))
            dp = mpf(1)
            for _ in range(100):
                p0, p1 = mpf(1), x
                for kk in range(2, n + 1):
                    p0, p1 = p1, ((2 * kk - 1) * x * p1 - (kk - 1) * p0) / kk
                dp = n * (x * p1 - p0) / (x * x - 1)
                dx = p1 / dp
                x -= dx
                if abs(dx) < mpf(2) ** (-prec - 8):
                    break
            weights.append(2 / ((1 - x * x) * dp * dp))
            nodes.append(x)
        return tuple(nodes), tuple(weights)


def saddle_path(prec: int | None = None) -> tuple:
    """Polygonal descent path vertices 1.01 -> 1.01c -> 1.49c -> 1.49 with
    c = 1 + i Im(z0)/Re(z0), passing through the saddle z0."""
    prec = default_precision() if prec is None else prec
    with mp.workprec(prec + 16):
        z0 = find_saddle(1, 0, prec).z.value
        v = z0.imag / z0.real
        c = 1 + 1j * v
        a, b = mpf("1.01"), mpf("1.49")
        return (mpc(a), a * c, b * c, mpc(b))


def path_positivity_check(samples: int = 200, prec: int | None = None) -> dict:
    """Sample Re(p(z) - p(z0)) along the path and Re[-p(z)] on the verticals.

    Returns min_rise (positive means the saddle is the strict path minimum),
    the saddle height U = Re[-p(z0)], and the largest Re[-p] on the two
    vertical edges (expected below 0.06).
    """
    prec = default_precision() if prec is None else prec
    with mp.workprec(prec + 16):
        verts = saddle_path(prec)
        z0 = find_saddle(1, 0, prec).z.value
        pz0 = p_d(z0, 0, prec).value
        min_rise = mpf("inf")
        vertical_max = mpf("-inf")
        per_edge = max(1, samples // 3)
        for e in range(3):
            a, b = verts[e], verts[e + 1]
            for i in range(1, per_edge + 1):
                z = a + (b - a) * mpf(i) / (per_edge + 1)
                pv = p_d(z, 0, prec).value
                if abs(z - z0) > mpf("1e-6"):
                    min_rise = min(min_rise, (pv - pz0).real)
                if e in (0, 2):
                    vertical_max = max(vertical_max, (-pv).real)
        return {"min_rise": HPReal(min_rise, prec),
                "saddle_height": HPReal((-pz0).real, prec),
                "vertical_max": HPReal(vertical_max, prec)}


def a3_quadrature(N: int, sigma: int, prec: int | None = None,
                  rel_tol=None, base_nodes: int = 40) -> HPReal:
    """(2/N^{3/2}) Im int_P e^{-N p(z)} q(z) e^{v(z;N,sigma)} dz over the
    descent path, by composite Gauss-Legendre per edge, doubling the node
    count until two successive results agree to rel_tol (default 1e-8).
    """
    if N < 131:
        raise ValueError("the truncated integrand needs N >= 131")
    prec = default_precision() if prec is None else prec
    rel_tol = mpf("1e-8") if rel_tol is None else mpf(rel_tol)
    with mp.workprec(prec + 16):
        verts = saddle_path(prec)

        def integrand(z):
            return (mpmath.exp(-N * p_d(z, 0, prec).value)
                    * q_func(z, prec).value
                    * mpmath.exp(v_func(z, N, sigma, prec=prec).value))

        def total(n):
            nodes, weights = _gauss_legendre(n, prec)
            acc = mpc(0)
            for e in range(3):
                a, b = verts[e], verts[e + 1]
                mid, half = (a + b) / 2, (b - a) / 2
                for x, w in zip(nodes, weights):
                    acc += w * half * integrand(mid + half * x)
            return acc

        prev = total(base_nodes)
        n = base_nodes
        for _ in range(4):
            n *= 2
            cur = total(n)
            if abs(cur - prev) <= rel_tol * abs(cur):
                return HPReal(2 / mpf(N) ** mpf("1.5") * cur.imag, prec)
            prev = cur
    raise ConvergenceError("contour quadrature did not converge")


def decay_exponent(Ns, errors) -> float:
    """Least-squares slope of -log(err) against log(N)."""
    xs = [math.log(n) for n in Ns]
    ys = [-math.log(abs(float(e))) for e in errors]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den

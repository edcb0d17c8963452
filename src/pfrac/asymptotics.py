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

The contour quadrature's integrand e^{-N p(z)} q(z) e^{v(z;N,sigma)} is
split at each node in two.  The N- and sigma-free node (`_a3_node`) takes
one e^{i pi z}, which feeds p and q and whose square v reads later, and
keeps p, i pi z/2 and q's square root; one table per level and precision
(`_a3_nodes`) holds every node of the path once with its weight, for every
N and sigma.  The value at (N, sigma) (`_a3_value`) adds v, whose sum over
g_l is one fixed-point accumulation, and one exp finishes it.  The path
runs one ladder of Clenshaw-Curtis levels 40, 80, ..., 640
(`_clenshaw_curtis`): the levels nest, the nodes of one level being the
even nodes of the next, so each level builds and evaluates only its new
nodes, and the difference of two successive sums, relative to the
imaginary part that becomes the value, is the error estimate.  Every node
and weight is a closed form in the cosines cos(pi M/2n), the real parts
of one fixed-point walk over the powers of e^{i pi/(2n)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp, mpc, mpf, pi

from .dilog import (BranchLabel, ConvergenceError, DilogZero, SaddlePoint,
                    _check_off_cut, _li2_any, _phase_at, find_saddle, find_zero, p_d,
                    q_func)
from .fixed import powers
from .precision import HPComplex, HPReal, checked_int, resolve_precision, to_mpc
from .sequences import bernoulli_over_factorial_fraction, binom_half_fraction, stirling2
from .series import exp, inv, log, mul
from .sine_products import _g_sum, _g_sweep, _phase, em_length


def _bell_powers(p, n: int, jmax: int) -> list:
    """[(p_1 x + p_2 x^2 + ...)^j for j = 0..jmax], each to n coefficients,
    for p = [p_1, p_2, ...]: entry [j][i] is the partial ordinary Bell
    polynomial Bhat_{i,j}(p_1, p_2, ...).  Exact inputs give exact output."""
    one = Fraction(1) if all(isinstance(c, (int, Fraction)) for c in p) else mpc(1)
    base = [0 * one] + list(p[:n - 1])
    powers = [[one] + [0 * one] * (n - 1)]
    for _ in range(jmax):
        powers.append(mul(powers[-1], base, n))
    return powers


class _Frame:
    """Shared series scaffolding at a saddle point, in eps = z - z*."""

    def __init__(self, saddle: SaddlePoint, depth: int, prec: int):
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

    def line_power(self, a, k: int) -> list:
        """(a z)^k = (a (z0 + eps))^k as an eps-series: the binomial row
        C(k, i) a^i (a z0)^{k-i}, with no series product."""
        with mp.workprec(self.prec):
            az = a * self.z0
            return [math.comb(k, i) * a ** i * az ** (k - i) if i <= k else mpc(0)
                    for i in range(self.depth)]

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
            b = bernoulli_over_factorial_fraction(ell)
            f = -mpf(b.numerator) / b.denominator
            return [c * f for c in mul(self.line_power(pi, 2 * ell - 1), cd, n)]

    def weights(self, sigma: int, ell: int, jmax: int) -> list:
        """[w_0, ..., w_jmax] as eps-series: the 1/N^j coefficients of

        (2 pi i z)^{ell-1} exp(2 pi i (sigma + (ell-1)/2) z/N
            + (ell-1) sum_l B_{2l} (2 pi i z/N)^{2l}/(2l (2l)!) + sum_l g_l(z)/N^{2l-1}).

        At ell = 1 these are u_{sigma,j}; at sigma = 1 they are v*_{ell,j},
        since sum_t Bhat_{ell-1+t,ell-1}(1/1!, 1/2!, ...) x^{ell-1+t} =
        (e^x - 1)^{ell-1} and log((e^x - 1)/x) = x/2 + sum_l B_{2l} x^{2l}/(2l (2l)!).
        The exponential runs the recurrence m w_m = sum_k k a_k w_{m-k} from
        w_0 = (2 pi i z)^{ell-1}.
        """
        n = self.depth
        with mp.workprec(self.prec):
            f = 2j * pi * (sigma + mpf(ell - 1) / 2)
            terms = {1: [c * f + g for c, g in zip(self.zser, self.g_series(1))]}
            for k in range(2, jmax + 1):
                if k % 2:
                    terms[k] = self.g_series((k + 1) // 2)
                elif ell > 1:
                    b = bernoulli_over_factorial_fraction(k // 2) * (ell - 1) / k
                    f = mpf(b.numerator) / b.denominator
                    terms[k] = [c * f for c in self.line_power(2j * pi, k)]
            out = [self.line_power(2j * pi, ell - 1)]
            for m in range(1, jmax + 1):
                acc = [mpc(0)] * n
                for kk, ak in terms.items():
                    if kk <= m:
                        acc = [x + y * kk for x, y in zip(acc, mul(ak, out[m - kk], n))]
                f = mpf(1) / m
                out.append([c * f for c in acc])
            return out


@lru_cache(maxsize=64)
def _frame(depth: int, prec: int) -> _Frame:
    """The frame at z0, the saddle of (1, 0): the one saddle the expansions read."""
    return _Frame(find_saddle(1, 0, prec), depth, prec + 32)


def _descent_kernel(p, omega, smax: int) -> list:
    """[[K_{s,0}, ..., K_{s,2s}] for s = 0..smax] at the ambient precision:
    the weights of Wojdylo's descent coefficients
    a_{2s}(f) = sum_{i<=2s} f_{2s-i} K_{s,i} of an amplitude f, for the
    phase p(z) - p(z*) = sum_r p[r] eps^{r+2} and the path direction omega,

    K_{s,i} = (omega / (2 (omega^2 p0)^{1/2})) *
              sum_{j<=i} p0^{-s-j} C(-s-1/2, j) Bhat_{i,j}(p1, ...),

    with the square root chosen so Re((omega^2 p0)^{1/2}) > 0
    (J. Wojdylo, SIAM Review 48, 2006).  One table of the partial ordinary
    Bell polynomials of p_1..p_{2 smax} (`_bell_powers`) serves every s.
    """
    p0 = p[0]
    root = mpmath.sqrt(omega ** 2 * p0)
    if root.real < 0:
        root = -root
    pref = omega / (2 * root)
    bell = _bell_powers(p[1:2 * smax + 1], 2 * smax + 1, 2 * smax)
    kernel = []
    for s in range(smax + 1):
        row = []
        for i in range(2 * s + 1):
            inner = mpc(0)
            for j in range(i + 1):
                if bell[j][i]:
                    cf = binom_half_fraction(s, j)
                    inner += p0 ** (-s - j) * (mpf(cf.numerator) / cf.denominator) * bell[j][i]
            row.append(pref * inner)
        kernel.append(row)
    return kernel


def _u_scalar(sigma, jmax: int, z, prec: int) -> list:
    """u_{sigma,0..jmax}(z) as scalars: exp of v(z; N, sigma) as a series in 1/N,
    with the single g_l of `sine_products._g_sweep`: the derivative
    polynomials P_j(cot) at one cot(pi z), apart from the eps-series of cot
    that `_Frame.weights` differentiates and this oracle checks."""
    with mp.workprec(prec + 16):
        zv = to_mpc(z)
        g = _g_sweep(max(1, (jmax + 1) // 2), zv)
        g[0] += 2j * pi * sigma * zv
        return exp([c for gl in g for c in (mpc(0), gl)], jmax + 1)


def u_weight(sigma: int, j: int, z, prec: int | None = None) -> HPComplex:
    """u_{sigma,j}(z): 1/N^j coefficient of exp(v(z; N, sigma)); u_{sigma,0} = 1.
    sigma is an integer and j an integer >= 0 (ValueError otherwise)."""
    sigma, j = checked_int(sigma, "sigma"), checked_int(j, "j", 0)
    prec = resolve_precision(prec)
    return HPComplex(_u_scalar(sigma, j, z, prec)[j], prec)


def vstar_weight(ell: int, j: int, z, prec: int | None = None) -> HPComplex:
    """v*_{ell,j}(z) = sum_t Bhat_{ell-1+t,ell-1}(1/1!,...) (2 pi i z)^{ell-1+t} u_{1,j-t}(z),
    for integers ell >= 1 and j >= 0 (ValueError otherwise), with
    Bhat_{ell-1+t,ell-1}(1/1!, ...) = (ell-1)! S(ell-1+t, ell-1)/(ell-1+t)!
    from the Stirling numbers: a route apart from the exponential in 1/N
    that `_Frame.weights` runs and this oracle checks."""
    ell, j = checked_int(ell, "ell", 1), checked_int(j, "j", 0)
    prec = resolve_precision(prec)
    with mp.workprec(prec + 16):
        zv = to_mpc(z)
        us = _u_scalar(1, j, zv, prec)
        total = mpc(0)
        for t in range(j + 1):
            bh = Fraction(math.factorial(ell - 1) * stirling2(ell - 1 + t, ell - 1),
                          math.factorial(ell - 1 + t))
            total += (mpf(bh.numerator) / bh.denominator * (2j * pi * zv) ** (ell - 1 + t)
                      * us[j - t])
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
def _descent_values(sigma: int, ell: int, factor: complex, m: int, prec: int) -> tuple:
    """factor * sum_{s<=t} Gamma(s+1/2) a_{2s}(q w_{t-s}) for t < m, at the saddle
    z0, with the weights w_0..w_{m-1} = frame.weights(sigma, ell, m - 1): each
    amplitude q w_j is formed once, and every a_{2s} is read off one
    `_descent_kernel` at prec + 64 bits."""
    depth = 2 * m + 4
    frame = _frame(depth, prec)
    weights = frame.weights(sigma, ell, m - 1)
    with mp.workprec(frame.prec):
        amps = [mul(frame.Q, w, depth) for w in weights]
    with mp.workprec(prec + 64):
        kernel = _descent_kernel(frame.p, frame.z0, m - 1)
        a2s = {(s, j): sum(amps[j][2 * s - i] * k for i, k in enumerate(kernel[s]))
               for s in range(m) for j in range(m - s)}
    with mp.workprec(prec + 32):
        gammas = [mpmath.gamma(s + mpf(1) / 2) for s in range(m)]
        return tuple(factor * sum(gammas[s] * a2s[s, t - s] for s in range(t + 1))
                     for t in range(m))


def b_coeffs(sigma: int, m: int, prec: int | None = None) -> Expansion:
    """Expansion coefficients b_t(sigma), t < m, of the dominant simple-pole sum:

    b_t(sigma) = -4i sum_{s<=t} Gamma(s+1/2) a_{2s}(q u_{sigma,t-s}),
    b_0 = 2 z0 e^{-pi i z0}; evaluated against base w(0,-1) and power N^2.
    sigma must be an integer and m an integer >= 1 (ValueError otherwise).
    """
    sigma, m = checked_int(sigma, "sigma"), checked_int(m, "m", 1)
    prec = resolve_precision(prec)
    zero = find_zero(BranchLabel(0, -1), prec=prec)
    return Expansion("A1-b", zero, 2,
                     _descent_values(sigma, 1, -4j, m, prec))


def c_coeffs(ell: int, m: int, prec: int | None = None) -> Expansion:
    """Expansion coefficients c_{ell,t}, t < m, for the pole-at-1 coefficients:

    c_{ell,t} = 4i sum_{s<=t} Gamma(s+1/2) a_{2s}(q v*_{ell,t-s}),
    c_{ell,0} = -2 z0 e^{-pi i z0} (2 pi i z0)^{ell-1}; base w(0,-1), power ell+1.
    ell and m must be integers >= 1 (ValueError otherwise).
    """
    ell, m = checked_int(ell, "ell", 1), checked_int(m, "m", 1)
    prec = resolve_precision(prec)
    zero = find_zero(BranchLabel(0, -1), prec=prec)
    return Expansion("C01-c", zero, ell + 1,
                     _descent_values(1, ell, 4j, m, prec))


def family_leading(tag: str, parity: int | None = None,
                   prec: int | None = None) -> Expansion:
    """Leading-term expansions of the secondary residue families.

    C: coefficient -z3 e^{-pi i z3}/4 against w(1,-3)^{-N},
    E: coefficient -3 z1 e^{-pi i z1}/2 against w(0,-2)^{-N},
    D: coefficient z0 sqrt(2 e^{-pi i z0}(e^{-pi i z0} + (-1)^N)) against
       w(0,-1)^{-N/2}, parity-dependent, with the documented sign and
       odd-denominator convention (see Expansion).
    """
    prec = resolve_precision(prec)
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
            parity = checked_int(parity, "parity", 0, 1)
            zero = find_zero(BranchLabel(0, -1), prec=prec)
            z0 = find_saddle(1, 0, prec).z.value
            e = mpmath.exp(-1j * pi * z0)
            d0 = z0 * mpmath.sqrt(2 * e * (e + (-1) ** parity))
            return Expansion("familyD", zero, 2, (d0,), parity=parity,
                             half_exponent=True, sign=-1)
    raise ValueError(f"unknown family tag {tag!r}")


def evaluate_expansion(e: Expansion, N: int, m: int | None = None,
                       prec: int | None = None) -> HPReal:
    """Evaluate the m-term truncation of an Expansion at N, an integer >= 1;
    m, all of e's coefficients by default, is an integer from 1 to their count."""
    N = checked_int(N, "N", 1)
    m = len(e.coeffs) if m is None else checked_int(m, "m", 1, len(e.coeffs))
    if e.parity is not None and N % 2 != e.parity:
        raise ValueError(f"expansion was built for N % 2 == {e.parity}")
    prec = resolve_precision(prec)
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

def _clenshaw_curtis(n: int, prec: int) -> tuple:
    """(nodes, weights) on [-1, 1] of the Clenshaw-Curtis rule of level 2n,
    n >= 1, as mpf at prec + 16 bits: the 2n + 1 nodes x_j = cos(j pi/2n),
    descending, with their weights.  The level-m rule, exact through degree
    m, weighs its node cos(j pi/m) by
    (c_j/m) (1 - sum_{k<=m/2} b_k cos(2 pi jk/m)/(4k^2 - 1)), c_j = 1 at the
    ends and 2 inside, b_k = 1 at k = m/2 and 2 below (Waldvogel, BIT 46,
    2006); at m = 2n that cosine is cos(pi M/2n), M = 2jk.  Every cosine is
    the real part of a power of e^{i pi/(2n)} (`_phase`): one `fixed.powers`
    walk over M < n on F = prec + 16 + 2 bitlen(n) fraction bits, 0 at M = n
    and mirrored past it, so the nodes mirror exactly, and each weight is
    one integer sum, every term rounded down.  The level-n nodes are the
    even j: the levels nest (Gentleman, Comm. ACM 15, 1972)."""
    n = checked_int(n, "n", 1)
    F = prec + 16 + 2 * n.bit_length()
    half = powers(*_phase(n, 1, F), F, n)[0]
    cos = half + [0] + [-x for x in reversed(half)]
    cos += cos[-2:0:-1]  # cos(pi M/2n) 2^F, M < 4n

    def weight(j):
        total = sum((1 if k == n else 2) * cos[2 * j * k % (4 * n)] // (4 * k * k - 1)
                    for k in range(1, n + 1))
        return (1 if j % (2 * n) == 0 else 2) * ((1 << F) - total) // (2 * n)

    with mp.workprec(prec + 16):
        return tuple(tuple(mpf((v, -F)) for v in col)
                     for col in (cos[:2 * n + 1], [weight(j) for j in range(2 * n + 1)]))


def saddle_path(prec: int | None = None) -> tuple:
    """Polygonal descent path vertices 1.01 -> 1.01c -> 1.49c -> 1.49 with
    c = 1 + i Im(z0)/Re(z0), passing through the saddle z0."""
    prec = resolve_precision(prec)
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
    vertical edges (expected below 0.06).  samples is an integer >= 3
    (ValueError otherwise).
    """
    samples, prec = checked_int(samples, "samples", 3), resolve_precision(prec)
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


def v_func(z, N: int, sigma: int, prec: int | None = None) -> HPComplex:
    """v(z; N, sigma) = 2 pi i sigma z / N + sum_{l=1}^{L-1} g_l(z) / N^{2l-1}.

    L = floor(0.006 pi e N), the Euler-Maclaurin truncation length with
    Delta = 0.006 and h = 1 that the integral representation uses (`_v_at`).
    N and sigma are integers (ValueError otherwise).
    """
    N, sigma = checked_int(N, "N"), checked_int(sigma, "sigma")
    prec = resolve_precision(prec)
    with mp.workprec(prec + 24):
        return HPComplex(_v_at(to_mpc(z), N, sigma), prec)


def _v_at(zv, N: int, sigma, e=None):
    """v_func at the ambient precision, for v_func and the contour integrand
    alike; e, when given, is e^{2 pi i z} and saves the exponential of the
    sum over g_l, which is one fixed-point accumulation
    (`sine_products._g_sum`)."""
    L = em_length(0.006, N, 1)
    if L < 2:
        raise ValueError("v needs L = floor(0.006 pi e N) >= 2 terms")
    return 2j * pi * sigma * zv / N + _g_sum(L - 1, zv, N, e)


def _a3_node(z, prec: int) -> tuple:
    """The N- and sigma-free part of the integrand at z, at prec + 24 bits:
    (z, e, p_0(z), i pi z/2, sqrt(z/(i (u - 1/u)))) from one u = e^{i pi z},
    e = u^2 feeding Li2(e) in p_0 (`_phase_at`) and, later, v's sum over g_l;
    i (u - 1/u) = 2 sin(pi (z - 1)) is q's denominator."""
    with mp.workprec(prec + 24):
        _check_off_cut(z)
        u = mpmath.exp(1j * pi * z)
        e = u * u
        return (z, e, _phase_at(z, e, 0, 0)[0], 1j * pi * z / 2,
                mpmath.sqrt(z / (1j * (u - 1 / u))))


def _a3_value(node, N: int, sigma: int, prec: int):
    """e^{-N p(z)} q(z) e^{v(z;N,sigma)} at prec + 24 bits at one `_a3_node`:
    v from `_v_at` on the node's e, and one exp(-N p + v - i pi z/2) times
    the node's square root."""
    z, e, p0, ipz, root = node
    with mp.workprec(prec + 24):
        return mpmath.exp(-N * p0 + _v_at(z, N, sigma, e) - ipz) * root


@lru_cache(maxsize=8)
def _a3_nodes(n: int, prec: int) -> tuple:
    """((weight, `_a3_node`), ...) of the Clenshaw-Curtis rule of level 2n
    (`_clenshaw_curtis`), n = 20 2^k, on `saddle_path(prec)` at prec + 16
    bits: the 6n + 1 nodes of its three edges in path order, each once, so
    an inner vertex weighs the sum of both edges' weights there.  Above the
    bottom rung n = 20, entry 2i is entry i of `_a3_nodes(n // 2)`, read and
    not rebuilt, and only the odd entries are new `_a3_node`s.  Everything
    a3_quadrature needs but the N and sigma of `_a3_value`."""
    nodes, weights = _clenshaw_curtis(n, prec)
    below = _a3_nodes(n // 2, prec) if n > 20 else ()
    verts, path = saddle_path(prec), []
    with mp.workprec(prec + 16):
        for a, b in zip(verts, verts[1:]):
            mid, half = (a + b) / 2, (b - a) / 2
            edge = [[w * half, mid - half * x] for x, w in zip(nodes, weights)]
            if path:
                edge[0][0] += path.pop()[0]
            path += edge
        return tuple((w, below[i // 2][1] if below and i % 2 == 0 else _a3_node(z, prec))
                     for i, (w, z) in enumerate(path))


def a3_quadrature(N: int, sigma: int, prec: int | None = None) -> HPReal:
    """(2/N^{3/2}) Im K, K the integral int_P e^{-N p(z)} q(z) e^{v(z;N,sigma)} dz
    over the descent path, by one ladder of Clenshaw-Curtis levels
    40, 80, 160, 320 and 640 on the whole path (`_a3_nodes`): each level
    takes `_a3_value` on its new nodes only and reads the other half of its
    values from the level below, until its sum K and the level below's sum
    G meet |K - G| <= 1e-8 |Im K|; then the value is K's, and its label is
    16 + floor(-log2 |K - G|/|Im K|), at least 42 and at most prec.  Past
    level 640, ConvergenceError.  Each level's nodes, weights and N-free
    node values are one table per (level, prec), shared by every N and
    sigma.  N is an integer >= 131, where the truncated integrand holds,
    and sigma an integer (ValueError otherwise).
    """
    N, sigma = checked_int(N, "N", 131), checked_int(sigma, "sigma")
    prec = resolve_precision(prec)
    below = ()
    with mp.workprec(prec + 16):
        for n in (20, 40, 80, 160, 320):
            table = _a3_nodes(n, prec)
            values = [below[i // 2] if below and i % 2 == 0 else _a3_value(node, N, sigma, prec)
                      for i, (_, node) in enumerate(table)]
            K = sum(w * f for (w, _), f in zip(table, values))
            if below and abs(K - G) <= mpf("1e-8") * abs(K.imag):
                err, value = abs(K - G), K.imag
                bits = (min(prec, 16 + int(mpmath.floor(-mpmath.log(err / abs(value), 2))))
                        if err else prec)
                return HPReal(2 / mpf(N) ** mpf("1.5") * value, bits)
            below, G = values, K
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

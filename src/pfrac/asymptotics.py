"""Saddle-point expansion engine.

Everything here feeds the asymptotic evaluation
    Re[ w^{-N} / N^power * (c_0 + c_1/N + ...) ]
whose coefficients come out of the classical steepest-descent recipe: local
power series of the phase p and the amplitude q at the saddle, and the
descent coefficients a_{2s} in Perron's form, one power of one series per
s (`_descent_kernel`).  The phase p(z) = (zeta(2) - Li2(e^{2 pi i z}))/(2 pi i z)
has its saddle z0 at the dilogarithm zero w0 = w(0, -1) with
e^{-p(z0)} = 1/w0, which is what turns every expansion into powers of w0^{-N}.

Every local series at z0 is a closed form in the cotangent derivatives
cot^{(j)}(pi z0), one table of `sine_products._cot_orders` per frame: since
d/dz log(1 - e^{2 pi i z}) = pi i + pi cot(pi z) and
d/dz Li2(e^{2 pi i z}) = -2 pi i log(1 - e^{2 pi i z}), both series are
integrals of the cot series, 1/z and log z have their own closed forms, and
g_l reads the cot series of order 2l - 2; only series products and one
series exponential remain, never numerical differentiation.

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
from .fixed import powers, unfix
from .precision import HPComplex, HPReal, checked_int, resolve_precision, to_mpc
from .sequences import bernoulli_over_factorial_fraction, stirling2
from .series import exp, mul
from .sine_products import _cot_bits, _cot_orders, _g_sum, _g_sweep, _phase, em_length


class _Frame:
    """Shared series scaffolding at a saddle point, in eps = z - z*.

    Every local series is a closed form in the cotangent derivatives
    C_j = cot^{(j)}(pi z*) of one `_cot_orders` table at b = 1/(e* - 1),
    e* = e^{2 pi i z*} (Im z* > 0), read as the series `cot_series`.  With
    e = e^{2 pi i z}, log(1 - e) has the derivative pi i + pi cot(pi z) and
    Li2(e) the derivative -2 pi i log(1 - e), so both are integrals of the
    cot series, and 1/z = sum_i (-1)^i eps^i/z*^{i+1} integrates to
    log(z/z*).  The phase p is (zeta(2) + 4 pi^2 d - Li2(e))/(2 pi i) times
    1/z, and the amplitude q, with q^2 = i z/(1 - e), is
    q(z*) exp((log(z/z*) - log((1 - e)/(1 - e*)))/2).
    """

    def __init__(self, saddle: SaddlePoint, depth: int, prec: int):
        self.prec = prec
        self.depth = depth
        # cot_series(j) reads C_j..C_{j+depth-1}: the margin covers the
        # orders 2l - 2 of every g_l the weights read
        n = depth + 2 * (depth // 2 + 3)
        with mp.workprec(prec):
            z0 = mpc(saddle.z.value)
            self.z0 = z0
            e0 = mpmath.exp(2j * pi * z0)
            self._C = [unfix(*c) for c in _cot_orders(n, 1, 1 / (e0 - 1), _cot_bits(prec, n))]
            # d/dz log(1 - e^{2 pi i z}) = pi i + pi cot(pi z)
            dlog = [pi * c for c in self.cot_series(0)]
            dlog[0] += 1j * pi
            recip = [(-1) ** i / z0 ** (i + 1) for i in range(depth)]  # 1/z
            # zeta(2) + 4 pi^2 d - Li2(e^{2 pi i z}), an integral of 2 pi i log(1 - e^{2 pi i z})
            numer = [pi ** 2 / 6 + 4 * pi ** 2 * saddle.d - _li2_any(e0),
                     2j * pi * mpmath.log(1 - e0)]
            numer += [2j * pi * dlog[i - 2] / (i * (i - 1)) for i in range(2, depth)]
            P = [c / (2j * pi) for c in mul(numer, recip, depth)]
            if abs(P[1]) > mpf(2) ** (-prec // 2):
                raise ConvergenceError("saddle center is not accurate enough")
            self.p = tuple(P[2:])  # p(z) - p(z*), from the quadratic term
            # amplitude q: q^2 = i z / (1 - e^{2 pi i z}), branch from q(z0)
            half_log = [mpc(0)] + [(recip[i] - dlog[i]) / (2 * i + 2) for i in range(depth - 1)]
            q_at = q_func(z0, prec).value
            self.Q = [c * q_at for c in exp(half_log, depth)]

    def cot_series(self, j: int) -> list:
        """cot^{(j)}(pi (z0 + eps)) as an eps-series: C_{j+i} pi^i/i! at eps^i."""
        if j + self.depth > len(self._C):
            raise ValueError("frame depth margin exhausted; rebuild deeper")
        with mp.workprec(self.prec):
            return [c * pi ** i / math.factorial(i)
                    for i, c in enumerate(self._C[j:j + self.depth])]

    def line_power(self, a, k: int) -> list:
        """(a z)^k = (a (z0 + eps))^k as an eps-series: the binomial row
        C(k, i) a^i (a z0)^{k-i}, with no series product."""
        with mp.workprec(self.prec):
            az = a * self.z0
            return [math.comb(k, i) * a ** i * az ** (k - i) if i <= k else mpc(0)
                    for i in range(self.depth)]

    def g_series(self, ell: int) -> list:
        """g_l(z) = -(B_{2l}/(2l)!) (pi z)^{2l-1} cot^{(2l-2)}(pi z) as a series in eps."""
        with mp.workprec(self.prec):
            b = bernoulli_over_factorial_fraction(ell)
            f = -mpf(b.numerator) / b.denominator
            return [c * f for c in mul(self.line_power(pi, 2 * ell - 1),
                                       self.cot_series(2 * ell - 2), self.depth)]

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
            terms = {1: [c + g for c, g in zip(self.line_power(f, 1), self.g_series(1))]}
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
    (J. Wojdylo, SIAM Review 48, 2006).  The partial ordinary Bell
    polynomial Bhat_{i,j} is homogeneous of degree j, so by the binomial
    theorem sum_j p0^{-j} C(-s-1/2, j) Bhat_{i,j}(p1, ...) = [eps^i] h^{-s-1/2},
    h = 1 + sum_r (p_r/p0) eps^r (Perron's form): each row is one power of
    one series, by J. C. P. Miller's recurrence g_0 = 1,
    g_m = (1/m) sum_{k<=m} ((a + 1) k - m) h_k g_{m-k} at a = -s - 1/2
    (Knuth, TAOCP vol. 2, 4.7), times pref p0^{-s}.
    """
    p0 = p[0]
    root = mpmath.sqrt(omega ** 2 * p0)
    if root.real < 0:
        root = -root
    scale = omega / (2 * root)  # pref p0^{-s}, one division by p0 per row
    h = [1] + [c / p0 for c in p[1:2 * smax + 1]]
    kernel = []
    for s in range(smax + 1):
        g = [mpc(1)]
        for m in range(1, 2 * s + 1):
            # (a + 1) k - m = ((1 - 2s) k - 2m)/2
            g.append(sum(((1 - 2 * s) * k - 2 * m) * h[k] * g[m - k]
                         for k in range(1, m + 1)) / (2 * m))
        kernel.append([scale * c for c in g])
        scale /= p0
    return kernel


def _u_scalar(sigma, jmax: int, z, prec: int) -> list:
    """u_{sigma,0..jmax}(z) as scalars: exp of v(z; N, sigma) as a series in 1/N,
    with the single g_l of `sine_products._g_sweep`: the derivative
    polynomials P_j(cot) at one cot(pi z), apart from the `_cot_orders`
    table that `_Frame.weights` reads and this oracle checks."""
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

    kind is one of A1-b, C01-c, familyC, familyD, familyE.  Only familyD
    carries the parity of N it was built for, and a parity brings its rule
    (`half_exponent`): the conjugate-pair square-root base (exponent -N/2),
    overall sign -1, and the odd number (2 floor(N/2) + 1)^2 in place of N^2
    as denominator; that sign and denominator are calibrated to the
    published m = 1 values at N = 1000 and 1001.
    """
    kind: str
    base: DilogZero
    power: int
    coeffs: tuple
    parity: int | None = None

    @property
    def half_exponent(self) -> bool:
        """Whether the familyD rule holds: exponent -N/2, sign -1, odd denominator."""
        return self.parity is not None

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
            return Expansion("familyD", zero, 2, (d0,), parity=parity)
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
    half = e.half_exponent
    with mp.workprec(prec + 32):
        w = mpc(e.base.w.value)
        expo = -mpf(N) / 2 if half else -mpf(N)
        base = mpmath.exp(expo * mpmath.log(w))
        series = mpc(0)
        Nf = mpf(N)
        for t in range(m - 1, -1, -1):
            series = series / Nf + mpc(e.coeffs[t])
        denom = mpf(2 * (N // 2) + 1) if half else Nf
        val = (-1 if half else 1) * (base * series).real / denom ** e.power
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
    """Least-squares slope of -log(err) against log(N): ValueError unless
    Ns and errors have one equal length, the N are not all equal and every
    error is nonzero."""
    if len(Ns) != len(errors) or len(set(Ns)) < 2 or not all(errors):
        raise ValueError("need as many errors as N, two distinct N and nonzero errors")
    xs = [math.log(n) for n in Ns]
    ys = [-math.log(abs(float(e))) for e in errors]
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den

"""Sine products, their Euler-Maclaurin approximation, and the congruence
statistics that decide which residues dominate.

The central objects are the products prod_{j<=m} 2 sin(pi j h/k), the
remainder T_L left after truncating the Euler-Maclaurin expansion of their
logarithm, and the maximum statistic Psi(h/k) over partial products.  Every
such product in the package is built from the factors of `_sine_factors`,
which rotates e^{i pi h/k} instead of calling sin once per factor; mpf
exponents are unbounded, so the products (up to e^{0.148 k} for h = 1) are
multiplied directly and the sign falls out of the product.

Psi convention: the figure data published for k = 211 corresponds to
max_{0<=m<k} (1/k) log|prod^{-1}(h/k)_m|, the log of the *reciprocal*
product with no outer absolute value (the m = 0 term floors it at 0).
The displayed max of |log|prod|| would be >= log(k)/k for every h (take
m = k-1) and cannot reproduce that data, so this module implements the
reciprocal-product convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from mpmath import mp, mpc, mpf, pi

from .dilog import clausen
from .precision import HPComplex, HPReal, default_precision
from .sequences import bernoulli, stirling2

__all__ = [
    "SineProductValue", "sine_product", "psi", "psi_table",
    "MinimalPair", "minimal_pair", "zero_pairs", "cot_derivative", "g_ell",
    "EMConfig", "r_delta", "em_product_estimate", "em_remainder", "t_l_bound",
    "em_remainder_scan", "s_wave_sum",
]


@dataclass(frozen=True)
class SineProductValue:
    """log|prod_{j<=m} 2 sin(pi j theta)| together with its sign."""
    logAbs: HPReal
    sign: int
    m: int
    theta: object

    def value(self):
        return self.sign * mpmath.exp(self.logAbs.value)


def _sine_factors(h: int, k: int, m: int, prec: int) -> list:
    """Signed factors 2 sin(pi j h/k), j = 1..m, good to `prec` bits each.

    Advances z = e^{i pi j h/k} by one complex multiplication per factor, in
    fixed point z = (x + i y) 2^-wp, where a step costs half of an mpc
    product.  Each step adds about one unit of 2^-wp to the error while the
    smallest factor is about 2 pi/k, so wp carries bitlen(m) + bitlen(k)
    guard bits.
    """
    wp = prec + m.bit_length() + k.bit_length()
    with mp.workprec(wp):
        step = mpmath.expjpi(mpf(h) / k)
        c, s = int(mpmath.ldexp(step.real, wp)), int(mpmath.ldexp(step.imag, wp))
        x, y = 1 << wp, 0
        factors = []
        for _ in range(m):
            x, y = (x * c - y * s) >> wp, (x * s + y * c) >> wp
            factors.append(mpf((y, 1 - wp)))
        return factors


def sine_product(h: int, k: int, m: int, prec: int | None = None) -> SineProductValue:
    """prod_{j=1}^{m} 2 sin(pi j h/k) as log|prod| and sign; the empty product is 1.

    Requires (h, k) = 1 and 0 <= m < k so no factor vanishes.
    """
    if math.gcd(h, k) != 1:
        raise ValueError("h/k must be in lowest terms")
    if not 0 <= m < k:
        raise ValueError("m must satisfy 0 <= m < k (zero factor otherwise)")
    prec = default_precision() if prec is None else prec
    with mp.workprec(prec + 16):
        prod = mpmath.fprod(_sine_factors(h, k, m, prec + 16))
        return SineProductValue(HPReal(mpmath.log(abs(prod)), prec),
                                1 if prod > 0 else -1, m, Fraction(h, k))


@lru_cache(maxsize=32)
def _log_sine_table(k: int, prec: int) -> tuple:
    """log 2 sin(pi r/k) for r = 1..k-1."""
    with mp.workprec(prec + 16):
        return tuple(mpmath.log(f) for f in _sine_factors(1, k, k - 1, prec + 16))


def psi(h: int, k: int, prec: int | None = None) -> HPReal:
    """Max over 0 <= m < k of (1/k) log|prod^{-1}(h/k)_m| (see module note)."""
    if not (1 <= h < k) or math.gcd(h, k) != 1:
        raise ValueError("need 1 <= h < k with (h, k) = 1")
    prec = default_precision() if prec is None else prec
    table = _log_sine_table(k, prec)
    with mp.workprec(prec + 16):
        acc = mpf(0)
        best = mpf(0)
        for j in range(1, k):
            acc -= table[(j * h) % k - 1]
            if acc > best:
                best = acc
        return HPReal(best / k, prec)


def psi_table(k: int, prec: int | None = None) -> list:
    """Rows (h, Psi(h/k), D(h, k)) for 1 <= h < k with (h, k) = 1."""
    return [(h, psi(h, k, prec), minimal_pair(h, k).D)
            for h in range(1, k) if math.gcd(h, k) == 1]


@dataclass(frozen=True)
class MinimalPair:
    beta0: int
    gamma0: int
    D: int


def zero_pairs(h: int, k: int) -> list:
    """Z(h, k): pairs (beta, gamma), 1 <= |beta| < k, 1 <= gamma < k, beta*h = gamma mod k."""
    out = []
    for beta in range(1 - k, k):
        if beta == 0:
            continue
        gamma = (beta * h) % k
        if 1 <= gamma < k:
            out.append((beta, gamma))
    return out


def minimal_pair(h: int, k: int) -> MinimalPair:
    """Pair in Z(h, k) minimizing |beta * gamma|, by brute force."""
    if not (1 <= h < k) or math.gcd(h, k) != 1:
        raise ValueError("need 1 <= h < k with (h, k) = 1")
    best = None
    for beta in range(1 - k, k):
        if beta == 0:
            continue
        gamma = (beta * h) % k
        if gamma == 0:
            continue
        prod = abs(beta * gamma)
        if best is None or prod < best[2]:
            best = (beta, gamma, prod)
    return MinimalPair(best[0], best[1], best[2])


def s_wave_sum(m: int, h: int, k: int, prec: int | None = None) -> HPReal:
    """S(m; h, k) = sum over Z(h,k) of sin(2 pi m gamma / k) / |beta gamma|."""
    prec = default_precision() if prec is None else prec
    with mp.workprec(prec + 16):
        total = mpf(0)
        for beta, gamma in zero_pairs(h, k):
            total += mpmath.sin(2 * pi * mpf(m * gamma) / k) / abs(beta * gamma)
        return HPReal(total, prec)


# -- cotangent derivatives ---------------------------------------------------

def cot_derivative(n: int, z, prec: int | None = None) -> HPComplex:
    """n-th derivative of cot at z.

    For n >= 1 uses the closed form
    cot^{(n)}(z) = (-1)^n (2i)^{n+1} sum_{r=1}^{n+1} (r-1)! S(n+1, r) (e^{2iz}-1)^{-r},
    switching to the e^{-2iz} mirror for Im z < 0 so the exponentials stay bounded.
    """
    prec = default_precision() if prec is None else prec
    with mp.workprec(prec + 16):
        zv = mpc(z) if not isinstance(z, (HPComplex, HPReal)) else mpc(z.value)
        if mpmath.sin(zv) == 0:
            raise ValueError("cotangent pole at a multiple of pi")
        if n == 0:
            return HPComplex(mpmath.cot(zv), prec)
        if zv.imag >= 0:
            base = 1 / (mpmath.exp(2j * zv) - 1)
            front = (-1) ** n * (2j) ** (n + 1)
        else:
            base = 1 / (mpmath.exp(-2j * zv) - 1)
            front = (-1) ** n * (-2j) ** (n + 1)
        total = mpc(0)
        power = mpc(1)
        fact = 1
        for r in range(1, n + 2):
            power *= base
            total += fact * stirling2(n + 1, r) * power
            fact *= r
        return HPComplex(front * total, prec)


@lru_cache(maxsize=None)
def _bern_over_fact(l: int) -> Fraction:
    return Fraction(bernoulli(2 * l), math.factorial(2 * l))


def g_ell(ell: int, z, prec: int | None = None) -> HPComplex:
    """g_l(z) = -(B_{2l}/(2l)!) (pi z)^{2l-1} cot^{(2l-2)}(pi z)."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    prec = default_precision() if prec is None else prec
    with mp.workprec(prec + 16):
        zv = mpc(z) if not isinstance(z, (HPComplex, HPReal)) else mpc(z.value)
        if zv.imag == 0 and zv.real == mpmath.floor(zv.real):
            raise ValueError("pole at integer z")
        b = _bern_over_fact(ell)
        cd = cot_derivative(2 * ell - 2, pi * zv, prec=prec + 16).value
        val = -mpf(b.numerator) / b.denominator * (pi * zv) ** (2 * ell - 1) * cd
    return HPComplex(val, prec)


# -- Euler-Maclaurin estimate and remainder ----------------------------------

@dataclass(frozen=True)
class EMConfig:
    """Parameters of the truncated Euler-Maclaurin product approximation.

    delta_param is the Delta in [0.0048, 0.0079] steering the truncation
    length L = floor(alpha * s / h) with alpha = pi e Delta; W bounds
    Delta log(1/Delta); s is the global size parameter (defaults to k at
    the call site when omitted).
    """
    delta_param: float = 0.006
    W: float = 0.05
    s: int | None = None
    delta_lo: float = 0.0061
    delta_hi: float = 0.01

    def __post_init__(self):
        d = mpf(str(self.delta_param))
        if not mpf("0.00477") <= d <= mpf("0.0079"):
            raise ValueError("Delta must lie in [0.00477, 0.0079]")
        if d * mpmath.log(1 / d) > mpf(str(self.W)) + mpf("1e-15"):
            raise ValueError("requires Delta log(1/Delta) <= W")

    def alpha(self):
        return pi * mpmath.e * mpf(str(self.delta_param))

    def L(self, s: int, h: int) -> int:
        return int(mpmath.floor(self.alpha() * s / h))


def r_delta(delta, tol=mpf("1e-12")) -> mpf:
    """Scale threshold R_Delta = 3 / (r2/e^{r2+1} - r1/e^{r1+1}).

    r1 solves (1/e^{r+1})(1 + r log(r/(2 pi))) = Delta log(1/Delta) and
    r2 solves r/e^{r+1} = 2 pi e Delta, both on [0, 1], by bisection.
    """
    delta = mpf(str(delta))
    if not mpf("0.00477") <= delta <= mpf("0.0079"):
        raise ValueError("Delta must lie in [0.00477, 0.0079]")
    target1 = delta * mpmath.log(1 / delta)

    def f1(r):
        return (1 + r * mpmath.log(r / (2 * pi))) / mpmath.exp(r + 1) - target1

    def f2(r):
        return r / mpmath.exp(r + 1) - 2 * pi * mpmath.e * delta

    def bisect(f, a, b, increasing):
        fa = f(a)
        for _ in range(200):
            mid = (a + b) / 2
            fm = f(mid)
            if abs(b - a) < tol:
                return mid
            if (fm > 0) == increasing:
                b = mid
            else:
                a = mid
        return (a + b) / 2

    r1 = bisect(f1, mpf("1e-6"), mpf(1), increasing=False)
    r2 = bisect(f2, mpf("1e-6"), mpf(1), increasing=True)
    gap = r2 / mpmath.exp(r2 + 1) - r1 / mpmath.exp(r1 + 1)
    if gap <= 0:
        raise ValueError("Delta admits no valid (r1, r2) window")
    return 3 / gap


def _em_main_log(h: int, k: int, m: int, L: int, prec: int) -> mpf:
    """log of the reciprocal-product main term with L-1 correction terms."""
    with mp.workprec(prec + 16):
        theta = mpf(h) / k
        x = pi * m * theta
        lead = mpf(1) / 2 * mpmath.log(h / (2 * k * mpmath.sin(x)))
        cl = clausen(2 * x, prec + 16).value
        em = mpf(0)
        for ell in range(1, L):
            b = _bern_over_fact(ell)
            cd = cot_derivative(2 * ell - 2, x, prec=prec + 16).value.real
            em += mpf(b.numerator) / b.denominator * (pi * theta) ** (2 * ell - 1) * cd
        return lead + k / (2 * pi * h) * cl - em


def em_product_estimate(h: int, k: int, m: int, cfg: EMConfig,
                        prec: int | None = None) -> HPReal:
    """Main-term approximation to the reciprocal sine product prod^{-1}(h/k)_m.

    Validates the truncation preconditions (0 < h < k <= s, R_Delta <= s/h,
    Delta s/h <= m <= k/(2h)) and evaluates
    (h/(2k sin(pi m h/k)))^{1/2} exp((k/(2 pi h)) Cl2(2 pi m h/k))
    exp(-sum_{l<L} (B_{2l}/(2l)!) (pi h/k)^{2l-1} cot^{(2l-2)}(pi m h/k)).
    """
    prec = default_precision() if prec is None else prec
    s = cfg.s if cfg.s is not None else k
    if not (0 < h < k <= s):
        raise ValueError("requires 0 < h < k <= s")
    delta = mpf(str(cfg.delta_param))
    if delta * mpmath.log(1 / delta) > mpf(str(cfg.W)) + mpf("1e-15"):
        raise ValueError("requires Delta log(1/Delta) <= W")
    if r_delta(cfg.delta_param) > mpf(s) / h:
        raise ValueError("requires R_Delta <= s/h")
    if not (delta * s / h <= m + mpf("1e-12")):
        raise ValueError("requires Delta s/h <= m")
    if not (m <= mpf(k) / (2 * h) + mpf("1e-12")):
        raise ValueError("requires m <= k/(2h)")
    L = cfg.L(s, h)
    with mp.workprec(prec + 16):
        return HPReal(mpmath.exp(_em_main_log(h, k, m, L, prec)), prec)


def em_remainder(h: int, k: int, m: int, L: int, prec: int | None = None) -> HPReal:
    """Truncation remainder T_L(m, h/k) = log prod(h/k)_m - truncated expansion."""
    prec = default_precision() if prec is None else prec
    with mp.workprec(prec + 16):
        lp = sine_product(h, k, m, prec + 16).logAbs.value
        return HPReal(lp + _em_main_log(h, k, m, L, prec), prec)


def t_l_bound(L: int, m: int, prec: int | None = None) -> HPReal:
    """Rigorous bound (pi^3/2) ((2L-1)/(2 pi e m))^{2L-1} on |T_L(m, theta)|."""
    if L < 1 or m < 1:
        raise ValueError("need L >= 1 and m >= 1")
    prec = default_precision() if prec is None else prec
    with mp.workprec(prec + 16):
        val = pi ** 3 / 2 * ((2 * L - 1) / (2 * pi * mpmath.e * m)) ** (2 * L - 1)
        return HPReal(val, prec)


# -- the double-precision scan with selective high-precision recheck ---------

@lru_cache(maxsize=1)
def _cot_poly_float(jmax: int = 50):
    """cot^{(j)}(x) = P_j(cot x); float64 coefficient arrays for j <= jmax."""
    polys = [[Fraction(0), Fraction(1)]]
    for _ in range(jmax):
        p = polys[-1]
        dp = [i * p[i] for i in range(1, len(p))]
        new = [Fraction(0)] * (len(dp) + 2)
        for i, c in enumerate(dp):
            new[i] -= c
            new[i + 2] -= c
        polys.append(new)
    return [np.array([float(c) for c in p]) for p in polys], polys


def _cl2_float(theta):
    """Clausen's integral on [0, pi], vectorized double precision."""
    th = np.asarray(theta, dtype=float)
    out = np.where(th > 0, th - th * np.log(np.maximum(th, 1e-300)), 0.0)
    t2 = th * th
    term = th.copy()
    for r in range(1, 40):
        term = term * t2
        coef = float(abs(_bern_over_fact(r))) / (2 * r * (2 * r + 1))
        out = out + coef * term
    return out


def _t_exact(h: int, k: int, m: int, L: int, polys_frac, prec: int = 192):
    """(|prod^{-1} T_L|, |T_L|) for one (m, k) pair at high precision."""
    with mp.workprec(prec):
        th = mpf(h) / k
        lp = mpmath.log(mpmath.fprod(_sine_factors(h, k, m, prec)))
        x = pi * m * th
        c = mpmath.cot(x)
        em = mpf(0)
        for ell in range(1, L):
            acc = mpf(0)
            for coef in reversed(polys_frac[2 * ell - 2]):
                acc = acc * c + mpf(coef.numerator) / coef.denominator
            b = _bern_over_fact(ell)
            em += mpf(b.numerator) / b.denominator * (pi * th) ** (2 * ell - 1) * acc
        cl = clausen(2 * x, prec).value
        main = mpf(1) / 2 * mpmath.log(2 * mpmath.sin(x) / th) - cl / (2 * pi * th) + em
        T = lp - main
        return float(mpmath.exp(-lp) * abs(T)), float(abs(T))


def em_remainder_scan(h: int, s: int = 500, delta: float = 0.006,
                      recheck_prec: int = 192):
    """(max |prod^{-1} T_L|, max |T_L|) over Delta s/h <= m <= k/(2h), k <= s.

    First pass runs in double precision.  Where the product e^{-log prod}
    amplifies double roundoff beyond the running maximum, the pair is
    recomputed at `recheck_prec` bits; pairs whose rigorous |T_L| bound
    already rules them out are skipped.
    """
    L = int(math.pi * math.e * delta * s / h)
    polys_float, polys_frac = _cot_poly_float()
    bf = [0.0] + [float(_bern_over_fact(l)) for l in range(1, L)]
    m_lo = max(1, math.ceil(delta * s / h - 1e-12))
    max_T = 0.0
    reliable_max = 0.0
    pending = []  # (k, m, log potential) for pairs double precision cannot settle
    tl_log = {}
    for k in range(2, s + 1):
        if math.gcd(h, k) != 1:
            continue
        m_hi = k // (2 * h)
        if m_hi < m_lo:
            continue
        theta = h / k
        ms = np.arange(1, m_hi + 1)
        logprod = np.cumsum(np.log(2 * np.sin(np.pi * ms * theta)))
        msel = ms[ms >= m_lo]
        lp = logprod[msel - 1]
        x = np.pi * msel * theta
        c = 1.0 / np.tan(x)
        em = np.zeros_like(lp)
        for ell in range(1, L):
            p = polys_float[2 * ell - 2]
            acc = np.zeros_like(c)
            for coef in p[::-1]:
                acc = acc * c + coef
            em += bf[ell] * (np.pi * theta) ** (2 * ell - 1) * acc
        main = (0.5 * np.log(2 * np.sin(x) / theta)
                - _cl2_float(2 * x) / (2 * np.pi * theta) + em)
        T = lp - main
        absT = np.abs(T)
        max_T = max(max_T, float(absT.max()))
        err = 2e-13 * np.maximum(np.abs(lp), np.abs(em) + np.abs(main) + 1)
        PT = np.exp(-lp) * absT
        trusted = err < 0.05 * np.maximum(absT, 1e-300)
        if trusted.any():
            reliable_max = max(reliable_max, float(PT[trusted].max()))
        for mm, lpv, tv, ev, ok in zip(msel, lp, absT, err, trusted):
            if ok:
                continue
            mi = int(mm)
            if mi not in tl_log:
                tl_log[mi] = math.log(math.pi ** 3 / 2) + (2 * L - 1) * math.log(
                    (2 * L - 1) / (2 * math.pi * math.e * mi))
            cap = min(tl_log[mi], math.log(tv + ev) if tv + ev > 0 else -1e30)
            pending.append((k, mi, cap - lpv))
    max_PT = reliable_max
    for k, m, potential in sorted(pending, key=lambda t: -t[2]):
        if potential <= math.log(max(max_PT, 1e-300)):
            break
        pt, _ = _t_exact(h, k, m, L, polys_frac, recheck_prec)
        max_PT = max(max_PT, pt)
    return max_PT, max_T

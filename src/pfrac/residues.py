"""Exact and semi-exact computations around the restricted partition
generating function: Farey pole enumeration, residues of
Q(z; N, sigma) = e^{2 pi i sigma z} / prod_{j<=N} (1 - e^{2 pi i j z}),
conversions between the two coefficient families, restricted partition
counts, the dominant simple-pole sums, and a high-precision Laurent
oracle for the coefficients at the pole q = 1.

The Laurent oracle uses the closed form
prod_{j<=N}(1 - e^{jx}) = (-1)^N N! x^N exp(Phat(x)),
Phat(x) = S_1(N) x/2 + sum_k B_{2k} S_{2k}(N) x^{2k} / (2k (2k)!),
with S_r(N) = sum_{j<=N} j^r, so a single series exponential produces every
coefficient; it is validated by re-running with 64 extra bits.

Single-threaded: all of it runs in mpmath's global `mp` context, and the
module caches take no locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd

import mpmath
from mpmath import mp, mpc, mpf, pi

from .precision import HPComplex, HPReal, default_precision
from .sequences import bernoulli_over_factorial, power_sum_table
from .series import exp, inv, mul
from .sine_products import _sine_factors

__all__ = [
    "FareyFraction", "farey", "p_restricted", "q_simple", "q_general",
    "residue_sum", "residue_sum_expected", "c_from_q", "q_from_c", "a1_sum",
    "FamilySelector", "family_sum", "c01l_exact", "q01_exact", "principal_part",
    "reconstruct_product", "sylvester_wave", "residue_report",
    "PrecisionLossError",
]


class PrecisionLossError(RuntimeError):
    """Cancellation destroyed more than the allowed share of working bits."""


@dataclass(frozen=True, order=True)
class FareyFraction:
    h: int
    k: int

    def __post_init__(self):
        if not (0 <= self.h < self.k) or gcd(self.h, self.k) != 1:
            raise ValueError(f"{self.h}/{self.k} is not a reduced fraction in [0, 1)")

    def __str__(self):
        return f"{self.h}/{self.k}"


def farey(N: int) -> list[FareyFraction]:
    """Farey fractions of order N in [0, 1), ascending (Stern-Brocot steps)."""
    if N < 1:
        raise ValueError("need N >= 1")
    out = [FareyFraction(0, 1)]
    if N == 1:
        return out
    a, b, c, d = 0, 1, 1, N
    while (c, d) != (1, 1):
        out.append(FareyFraction(c, d))
        step = (N + b) // d
        a, b, c, d = c, d, step * c - a, step * d - b
    return out


_partition_tables: dict[int, list[int]] = {}


def p_restricted(N: int, n: int) -> int:
    """Partitions of n into at most N parts, by the bounded-part DP (exact)."""
    if N < 0 or n < 0:
        raise ValueError("need N, n >= 0")
    if N == 0:
        return 1 if n == 0 else 0
    table = _partition_tables.get(N)
    if table is None or len(table) <= n:
        size = max(n + 1, 2 * len(table) if table else 64)
        table = [1] + [0] * (size - 1)
        for part in range(1, N + 1):
            for amount in range(part, size):
                table[amount] += table[amount - part]
        _partition_tables[N] = table
    return table[n]


# -- residues -----------------------------------------------------------------

def q_simple(h: int, k: int, sigma, N: int, prec: int | None = None) -> HPComplex:
    """Q_{h k sigma}(N) for a simple pole (N/2 < k <= N), closed form.

    Q = ((-1)^{k+1}/k^2) e^{-pi i h (N^2+N-4 sigma)/(2k)}
        e^{(pi i/2)(2Nh+N+h+k-hk)} prod_{j<=N-k} 1/(2 sin(pi j h/k)),
    with the signed sine factors multiplied directly.  sigma may be real.
    """
    if not (N / 2 < k <= N):
        raise ValueError("simple-pole residue needs N/2 < k <= N")
    if gcd(h, k) != 1:
        raise ValueError("h/k must be reduced")
    prec = default_precision() if prec is None else prec
    with mp.workprec(prec + 16):
        product = mpmath.fprod(_sine_factors(h, k, N - k, prec + 16))
        return HPComplex(_q_simple_at(h, k, sigma, N, product), prec)


def _q_simple_at(h: int, k: int, sigma, N: int, product):
    """q_simple's closed form at the working precision, given its sine product."""
    return ((-1) ** (k + 1) / mpf(k) ** 2
            * mpmath.exp(-1j * pi * h * (mpf(N) * N + N - 4 * sigma) / (2 * k))
            * mpmath.exp(1j * pi / 2 * mpf(2 * N * h + N + h + k - h * k))
            / product)


def _norm_sigma(sigma):
    """sigma as an int when it is integral, else as an mpmath number."""
    sigma = sigma if isinstance(sigma, int) else mpmath.mpmathify(sigma)
    return int(sigma) if mpmath.isint(sigma) else sigma


@lru_cache(maxsize=256)
def _roots_of_unity(k: int, wprec: int) -> tuple:
    """(e^{2 pi i r/k} for r = 0..k-1) at wprec bits."""
    with mp.workprec(wprec):
        return tuple(mpmath.exp(2j * pi * mpf(r) / k) for r in range(k))


@lru_cache(maxsize=4096)
def _pole_inverse(h: int, k: int, N: int, wprec: int):
    """Cached Laurent data at z = h/k, s = floor(N/k): the coefficients of
    1 / (prod_{mu<=s} E(mu k y) * prod_{k|j false, j<=N} (1 - zeta^j e^{jy}))
    to order y^{s-1}, where y = 2 pi i (z - h/k) and E(x) = (e^x - 1)/x."""
    s = N // k
    n = s  # coefficients y^0 .. y^{s-1}
    with mp.workprec(wprec):
        zpow = _roots_of_unity(k, wprec)
        den = [mpc(0)] * n
        den[0] = mpc(1)
        # E(mu k y) factors
        invfact = [mpf(1)]
        for i in range(1, n + 1):
            invfact.append(invfact[-1] / i)
        for mu in range(1, s + 1):
            f = [(mpf(mu * k) ** i) * invfact[i + 1] for i in range(n)]
            den = mul(den, f, n)
        # analytic factors
        for j in range(1, N + 1):
            if j % k == 0:
                continue
            zj = zpow[(h * j) % k]
            f = [1 - zj]
            jp = mpf(1)
            for i in range(1, n):
                jp *= j
                f.append(-zj * jp * invfact[i])
            den = mul(den, f, n)
        return tuple(inv(den, n))


def _work_prec(prec: int, s: int, N: int) -> int:
    return max(prec + 64, 64 + 8 * s + 2 * max(1, N).bit_length())


def q_general(h: int, k: int, sigma, N: int, prec: int | None = None) -> HPComplex:
    """Q_{h k sigma}(N) = 2 pi i Res_{z=h/k} Q(z; N, sigma), any pole order.

    Expands every factor locally in y = 2 pi i (z - h/k): the s = floor(N/k)
    factors with k | j contribute the pole, everything else stays analytic.
    The final coefficient pick monitors cancellation and retries with doubled
    working precision (three times) before raising PrecisionLossError.
    """
    if not (1 <= k <= N):
        raise ValueError("need 1 <= k <= N")
    if gcd(h, k) != 1 or not 0 <= h < k:
        raise ValueError("h/k must be a reduced fraction in [0, 1)")
    prec = default_precision() if prec is None else prec
    sigma = _norm_sigma(sigma)
    s = N // k
    for attempt in range(4):
        wprec = _work_prec(prec, s, N) << attempt
        with mp.workprec(wprec):
            inv = _pole_inverse(h, k, N, wprec)
            zeta_sig = mpmath.exp(2j * pi * h * sigma / k)
            total = mpc(0)
            largest = mpf(0)  # >= the largest |term|: |re| + |im| needs no square root
            sigpow = mpf(1)
            fact = mpf(1)
            for i in range(s):
                term = sigpow / fact * inv[s - 1 - i]
                total += term
                largest = max(largest, abs(term.real) + abs(term.imag))
                sigpow *= sigma
                fact *= i + 1
            size = max(abs(total.real), abs(total.imag))  # <= |total|
            pre = (-mpf(k)) ** (-s) / mpmath.factorial(s)
            # absolute error of the convolution ~ 2^-wprec * largest; accept on
            # either retained relative accuracy or the ambient absolute tolerance
            abs_err = mpmath.ldexp(largest, 8 - wprec)
            if (not largest or abs_err <= mpmath.ldexp(size, -prec)
                    or abs_err * abs(pre) <= mpmath.ldexp(1, -prec)):
                return HPComplex(zeta_sig * pre * total, prec)
    lost = mpmath.log(largest / size, 2) if size else mpf(wprec)
    raise PrecisionLossError(f"residue at {h}/{k} lost {float(lost):.0f} of {wprec} bits")


def residue_sum(N: int, sigma, prec: int | None = None) -> HPComplex:
    """Sum of Q_{h k sigma}(N) over all Farey fractions of order N.

    Equals 0 for 0 < sigma < N(N+1)/2, -p_N(-sigma) for sigma <= 0, and
    (-1)^N p_N(sigma - N(N+1)/2) above; summation runs in ascending (k, h)
    order at full precision for reproducibility.

    For integer sigma, Q_{(k-h) k sigma} = conj Q_{h k sigma}, so only the
    poles with 2h <= k are evaluated: 0/1 and 1/2 add Q, every other pole adds
    2 Re Q.  A non-integer sigma breaks that symmetry and sums every pole.
    """
    prec = default_precision() if prec is None else prec
    sigma = _norm_sigma(sigma)
    fold = isinstance(sigma, int)
    fractions = sorted(farey(N), key=lambda f: (f.k, f.h))
    with mp.workprec(prec + 16):
        total = mpc(0)
        for f in fractions:
            if fold and 2 * f.h > f.k:
                continue
            q = q_general(f.h, f.k, sigma, N, prec + 16).value
            total += 2 * q.real if fold and 0 < 2 * f.h < f.k else q
    return HPComplex(total, prec)


def residue_sum_expected(N: int, sigma: int) -> int:
    """Exact value of residue_sum(N, sigma): -p_N(-sigma) for sigma <= 0, 0 for
    0 < sigma < N(N+1)/2, and (-1)^N p_N(sigma - N(N+1)/2) above."""
    M = N * (N + 1) // 2
    if sigma <= 0:
        return -p_restricted(N, -sigma)
    if sigma < M:
        return 0
    return (-1) ** N * p_restricted(N, sigma - M)


def _c_from_q_all(h: int, k: int, ell: int, N: int, wprec: int) -> list:
    """[C_{h k 1}(N), ..., C_{h k ell}(N)] at wprec bits, one Q_{h k sigma}(N) per
    sigma <= ell: C_l = sum_{sigma<=l} C(l-1, sigma-1) (-zeta)^{l-sigma} Q_{h k sigma}(N)."""
    with mp.workprec(wprec):
        zeta = _roots_of_unity(k, wprec)[h]
        qs = [q_general(h, k, sigma, N, wprec).value for sigma in range(1, ell + 1)]
        return [sum((comb(l - 1, sigma - 1) * (-zeta) ** (l - sigma) * qs[sigma - 1]
                     for sigma in range(1, l + 1)), mpc(0)) for l in range(1, ell + 1)]


def c_from_q(h: int, k: int, ell: int, N: int, prec: int | None = None) -> HPComplex:
    """C_{h k ell}(N) = sum_{sigma<=ell} C(ell-1, sigma-1) (-zeta)^{ell-sigma} Q_{h k sigma}(N)."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    prec = default_precision() if prec is None else prec
    return HPComplex(_c_from_q_all(h, k, ell, N, prec + 16)[-1], prec)


def q_from_c(h: int, k: int, sigma: int, N: int, prec: int | None = None) -> HPComplex:
    """Inverse conversion Q_{h k sigma}(N) = sum_{ell<=sigma} C(sigma-1, ell-1) zeta^{sigma-ell} C_{h k ell}(N)."""
    if sigma < 1:
        raise ValueError("need sigma >= 1")
    prec = default_precision() if prec is None else prec
    cs = _c_from_q_all(h, k, sigma, N, prec + 32)
    with mp.workprec(prec + 16):
        zeta = _roots_of_unity(k, prec + 16)[h]
        total = mpc(0)
        for ell in range(1, sigma + 1):
            total += comb(sigma - 1, ell - 1) * zeta ** (sigma - ell) * cs[ell - 1]
    return HPComplex(total, prec)


# -- dominant simple-pole sums -------------------------------------------------

def a1_sum(N: int, sigma: int, prec: int | None = None) -> HPReal:
    """Simple-pole family sum over N/2 < k <= N, h in {1, k-1}:

    Im sum_k (2 (-1)^k / k^2) e^{(i pi/2)[(-N^2-N+4 sigma)/k + 3N]} prod^{-1}(1/k)_{N-k},
    evaluated as the family-A residue sum (the pole 1/2 counted once).
    """
    return family_sum(FamilySelector("A", N), sigma, prec)


@dataclass(frozen=True)
class FamilySelector:
    """One of the dominant residue families:

    A: N/2 < k <= N,       h in {1, k-1}          (simple poles)
    C: N/2 < k <= N odd,   h in {2, k-2}          (simple poles)
    D: N/2 < k <= N odd,   h in {(k-1)/2, (k+1)/2} (simple poles)
    E: N/3 < k <= N/2,     h in {1, k-1}          (double poles)
    """
    tag: str
    N: int

    def fractions(self) -> list[FareyFraction]:
        N = self.N
        out = set()
        if self.tag in ("A", "C", "D"):
            for k in range(N // 2 + 1, N + 1):
                if self.tag == "A":
                    hs = (1, k - 1)
                elif k % 2 == 0:
                    continue
                elif self.tag == "C":
                    hs = (2, k - 2)
                else:
                    hs = ((k - 1) // 2, (k + 1) // 2)
                for h in hs:
                    if 1 <= h < k and gcd(h, k) == 1:
                        out.add(FareyFraction(h, k))
        elif self.tag == "E":
            for k in range(N // 3 + 1, N // 2 + 1):
                for h in (1, k - 1):
                    if 1 <= h < k and gcd(h, k) == 1:
                        out.add(FareyFraction(h, k))
        else:
            raise ValueError(f"unknown family tag {self.tag!r}")
        return sorted(out, key=lambda f: (f.k, f.h))


def family_sum(sel: FamilySelector, sigma: int, prec: int | None = None) -> HPReal:
    """Sum of Q_{h k sigma}(N) over the family; real by conjugate symmetry.

    In families A, C and D the pair h, k - h shares one sine product, as
    2 sin(pi j (k-h)/k) = (-1)^{j+1} 2 sin(pi j h/k); both residues are still
    formed, so the imaginary-part check keeps testing their phases.
    """
    prec = default_precision() if prec is None else prec
    fractions = sel.fractions()
    if not fractions:
        raise ValueError(f"family {sel.tag} is empty at N={sel.N}")
    wp = prec + 16
    products = {}  # k -> sine product of the smaller h of the pair at k
    with mp.workprec(wp):
        total = mpc(0)
        for f in fractions:
            if sel.tag == "E":
                total += q_general(f.h, f.k, sigma, sel.N, wp).value
                continue
            m = sel.N - f.k
            if 2 * f.h > f.k and f.k in products:
                product = (-1) ** (m * (m + 3) // 2) * products[f.k]
            else:
                product = products[f.k] = mpmath.fprod(_sine_factors(f.h, f.k, m, wp))
            total += _q_simple_at(f.h, f.k, sigma, sel.N, product)
        if abs(total.imag) > mpf(2) ** (-prec // 2) * (1 + abs(total.real)):
            raise PrecisionLossError(f"family {sel.tag} sum has a large imaginary part")
    return HPReal(total.real, prec)


# -- the Laurent oracle at q = 1 -----------------------------------------------

@lru_cache(maxsize=16)
def _laurent_core(N: int, wprec: int) -> tuple:
    """Coefficients of exp(-Phat(x)) to order x^{N-1} at wprec bits."""
    S = power_sum_table(max(N - 1, 1), N)
    with mp.workprec(wprec):
        n = N
        f = [mpf(0)] * n
        if n > 1:
            f[1] = -mpf(S[1]) / 2
        for kk in range(1, (n - 1) // 2 + 1):
            f[2 * kk] = -bernoulli_over_factorial(kk, wprec) * mpf(S[2 * kk]) / (2 * kk)
        return tuple(exp(f, n))


def _c01l_at(N: int, ell: int, wprec: int) -> mpf:
    g = _laurent_core(N, wprec)
    with mp.workprec(wprec):
        # numerator e^x (e^x - 1)^{ell-1} = sum_i C(ell-1, i) (-1)^{ell-1-i} e^{(i+1)x}
        val = mpf(0)
        invfact = [mpf(1)]
        for i in range(1, N + 1):
            invfact.append(invfact[-1] / i)
        for a in range(N):
            num_a = mpf(0)
            for i in range(ell):
                num_a += comb(ell - 1, i) * (-1) ** (ell - 1 - i) * mpf(i + 1) ** a
            if num_a:
                val += num_a * invfact[a] * g[N - 1 - a]
        return (-1) ** N / mpmath.factorial(N) * val


def c01l_exact(N: int, ell: int, precision: int | None = None) -> HPReal:
    """C_{0 1 ell}(N): coefficient of (q-1)^{-ell} in prod_{j<=N} 1/(1-q^j).

    Evaluated as (-1)^N/N! [x^{N-1}] e^x (e^x-1)^{ell-1} exp(-Phat(x)) (see
    module docstring); each value is validated by recomputing with 64 extra
    bits, doubling the working precision when the two runs disagree.
    """
    if not 1 <= ell <= N:
        raise ValueError("need 1 <= ell <= N")
    precision = (512 if N > 400 else default_precision()) if precision is None else precision
    wprec = precision
    for _ in range(4):
        v1 = _c01l_at(N, ell, wprec)
        v2 = _c01l_at(N, ell, wprec + 64)
        with mp.workprec(wprec + 64):
            err = abs(v1 - v2)
            good = err <= abs(v2) * mpf(2) ** (-48) if v2 != 0 else err == 0
        if good:
            return HPReal(v2, precision)
        wprec *= 2
    raise PrecisionLossError(f"Laurent oracle unstable at N={N}, ell={ell}")


def q01_exact(N: int, sigma: int, prec: int | None = None) -> HPReal:
    """Q_{0 1 sigma}(N) = (-1)^N/N! [x^{N-1}] exp(sigma x - Phat(x)) (real)."""
    prec = default_precision() if prec is None else prec
    g = _laurent_core(N, prec + 64)
    with mp.workprec(prec + 64):
        val = mpf(0)
        invfact = mpf(1)
        sp = mpf(1)
        for a in range(N):
            if a:
                invfact /= a
                sp *= sigma
            val += sp * invfact * g[N - 1 - a]
        return HPReal((-1) ** N / mpmath.factorial(N) * val, prec)


# -- reconstruction and waves ---------------------------------------------------

def principal_part(h: int, k: int, N: int, prec: int | None = None) -> list[HPComplex]:
    """[C_{h k 1}(N), ..., C_{h k s}(N)] for the pole of order s at h/k."""
    prec = default_precision() if prec is None else prec
    return [HPComplex(c, prec) for c in _c_from_q_all(h, k, N // k, N, prec + 16)]


def reconstruct_product(N: int, q, prec: int | None = None) -> HPComplex:
    """Evaluate the full partial-fraction expansion of prod_{j<=N} 1/(1-q^j)
    at the point q, summing every pole's principal part."""
    prec = default_precision() if prec is None else prec
    with mp.workprec(prec + 16):
        qv = mpc(q)
        total = mpc(0)
        for f in sorted(farey(N), key=lambda fr: (fr.k, fr.h)):
            base = 1 / (qv - _roots_of_unity(f.k, prec + 16)[f.h])
            power = mpc(1)
            for coeff in principal_part(f.h, f.k, N, prec + 16):
                power *= base
                total += coeff.value * power
    return HPComplex(total, prec)


def sylvester_wave(k: int, N: int, n: int, prec: int | None = None) -> HPReal:
    """Wave W_k(N, n) = -sum_{(h,k)=1, 0<=h<k} Q_{h k (-n)}(N); the waves sum
    to the restricted partition count p_N(n) over k = 1..N."""
    prec = default_precision() if prec is None else prec
    with mp.workprec(prec + 16):
        total = mpc(0)
        for h in range(k):
            if gcd(h, k) == 1:
                total -= q_general(h, k, -n, N, prec + 16).value
    return HPReal(total.real, prec)


def residue_report(N: int, sigma: int, prec: int | None = None, digits: int = 30) -> list[dict]:
    """Rows {h, k, order, re, im} for every pole of Q(z; N, sigma)."""
    rows = []
    for f in sorted(farey(N), key=lambda fr: (fr.k, fr.h)):
        q = q_general(f.h, f.k, sigma, N, prec)
        rows.append({
            "h": f.h,
            "k": f.k,
            "order": N // f.k,
            "re": mpmath.nstr(q.value.real, digits),
            "im": mpmath.nstr(q.value.imag, digits),
        })
    return rows

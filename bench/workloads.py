"""Seeded inputs, operations and their independent checks for the three
benchmark workloads.

An operation ("op") is one call into a pfrac public function with generated
inputs, followed by a check of its result against a route that does not
share the code under test.  Each op returns the text that goes into the
run's result digest and whether its check passed.

Why these workloads:

* ``dominant``: large-N simple poles, sine products and the q = 1 Laurent
  oracle, checked against the saddle-point expansions.  The sigma = 1 and
  sigma = 2 dominant sums share their sine products.
* ``identity``: small-N poles of every order through the general residue,
  with heavy cache reuse across sigma and no sine products or dilogarithms.
* ``landscape``: dilogarithm zeros and saddles, sine products at low
  precision over full-length products, the Euler-Maclaurin scan and contour
  quadrature; the residue layer does no work here.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np
from mpmath import mp, mpc, mpf, pi

from pfrac import refdata
from pfrac.residues import FamilySelector

DOMINANT_BANDS = [(lo, lo + 100) for lo in range(200, 700, 100)]
IDENTITY_N_MAX = 26
IDENTITY_POINTS = 20
RECONSTRUCT_N_MAX = 12
PSI_STRATA = [(200, 325), (325, 450)]
QUADRATURE_N = (200, 250)
ADMISSIBLE_SADDLES = [(1, 0), (2, 0), (2, 1), (3, -1), (3, 0), (3, 1)]

# working precisions, as the acceptance suite uses them
SUM_PREC = 256         # a1_sum, family sums, family leading terms
EXPANSION_PREC = 320   # b_t, c_{l,t} and their evaluation
ORACLE_PREC = 512      # the q = 1 Laurent oracle
IDENTITY_PREC = 320    # residue sums
RECONSTRUCT_PREC = 256
ZERO_PREC = 256
PSI_PREC = 128
QUADRATURE_PREC = 192
PATH_SAMPLES, PATH_PREC = 200, 128

# |exact - expansion| |w0|^N (|w0|^{N/2} for family D) must stay below
# C N^-order.  For the expansions the order is power + m (the first omitted
# term), and C is three to six times the largest value seen over the kind's N
# range: for a1 and c01.1 that value is the first omitted coefficient,
# |b_4(1)| = 2.2e5, plus the next term.  c_{4,t} carries a subdominant term
# that decays exponentially against w0^{-N} and is largest at N = 400.  The
# quadrature is limited by its truncated integrand, not by the expansion, so
# its order is the power.
ERROR_BOUNDS = {
    "a1": (1e6, 6),
    "c01.1": (1e6, 6),
    "c01.4": (5e10, 9),
    "familyD": (200.0, 3),
    "a3": (2e-3, 2),
}
C01_N_MIN = 400  # the published c01 tables start here; at N ~ 217 m = 4 is off by 1%

ZERO_RESIDUAL = mpf("1e-70")   # residuals at 256 bits, re-evaluated with mpmath.polylog
REF_ZERO_TOL = 1e-9            # the published zeros carry ten decimals
PSI_FLOAT_TOL = 1e-10          # Psi against a float64 recomputation
PSI_REF_TOL = 5e-6             # Psi against the published k = 211 data
# the precision contract: a value carried at p bits is good to 2^(16-p) of its scale
TRICHOTOMY_TOL = mpf(2) ** (16 - IDENTITY_PREC)
RECONSTRUCT_TOL = mpf(2) ** (16 - RECONSTRUCT_PREC)
# truncation-remainder scan tolerances of the acceptance suite: h -> (|prod^-1 T|, |T|)
EM_TOL = {1: (0.5, 0.0005), 3: (0.005, 0.001)}


@dataclass(frozen=True)
class Op:
    kind: str                              # names the root span of a traced run
    label: str                             # the op and its inputs
    run: Callable[[], tuple[str, bool]]    # -> (digest text, check passed)


@dataclass
class Outcome:
    attempted: int
    failed: int
    digest: str


# -- inputs -------------------------------------------------------------------

def draw_dominant(rng: random.Random) -> list[int]:
    """One N per 100-wide band of [200, 700), in a Latin-hypercube design:
    each band's N falls in a different fifth of its band, so the total work
    varies less between seeds while every N of a band stays reachable."""
    fifths = rng.sample(range(5), 5)
    return [lo + 20 * f + rng.randrange(20) for (lo, _), f in zip(DOMINANT_BANDS, fifths)]


def trichotomy_regimes(N: int) -> list[range]:
    """sigma <= 0, 0 < sigma < N(N+1)/2 and sigma >= N(N+1)/2, each cut to
    2N + 1 values next to the boundary; the middle one is empty for N = 1."""
    M = N * (N + 1) // 2
    return [range(-2 * N, 1), range(1, M), range(M, M + 2 * N + 1)]


def draw_identity(rng: random.Random) -> dict:
    sigmas = {}
    for N in range(1, IDENTITY_N_MAX + 1):
        sigmas[N] = sorted(s for r in trichotomy_regimes(N)
                           for s in rng.sample(r, min(2, len(r))))
    points = []
    for _ in range(IDENTITY_POINTS):
        N = rng.randint(1, RECONSTRUCT_N_MAX)
        q = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        if abs(q) > 0.5:
            q *= 0.5 / abs(q)
        points.append((N, q))
    return {"sigmas": sigmas, "points": points}


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1))


def draw_landscape(rng: random.Random) -> dict:
    """Two primes k in [200, 450), one per stratum; three saddles; one N per
    quadrature sigma."""
    ks = [rng.choice([k for k in range(lo, hi) if _is_prime(k)]) for lo, hi in PSI_STRATA]
    return {
        "psi_k": ks,
        "saddles": rng.sample(ADMISSIBLE_SADDLES, 3),
        "quadrature_N": {sigma: rng.randrange(*QUADRATURE_N) for sigma in (1, 2)},
    }


DRAW = {"dominant": draw_dominant, "identity": draw_identity, "landscape": draw_landscape}


def draw(workload: str, seed: int):
    """The workload's inputs; the same seed gives the same inputs."""
    return DRAW[workload](random.Random(f"{workload}/{seed}"))


# -- checks -------------------------------------------------------------------

def nstr(x, digits: int = 25) -> str:
    return mpmath.nstr(x, digits)


def sigfigs_match(value, ref: float, digits: int = 6) -> bool:
    """`value` rounds to the printed `ref` at `digits` significant digits."""
    value = float(value)
    ulp = 10.0 ** (math.floor(math.log10(abs(ref))) - digits + 1)
    return abs(value - ref) <= 0.51 * ulp


def expansion_check(kind: str, exact, approx, expansion, N: int) -> tuple[str, bool]:
    """Scaled disagreement between an exact value and its expansion, against
    the kind's bound C N^-order."""
    const, order = ERROR_BOUNDS[kind]
    with mp.workprec(EXPANSION_PREC):
        w = abs(mpc(expansion.base.w.value))
        exponent = mpf(N) / 2 if expansion.half_exponent else mpf(N)
        scaled = abs(mpf(exact) - mpf(approx)) * w ** exponent
        ok = scaled <= const * mpf(N) ** -order
    return f"{nstr(exact)} {nstr(approx)}", ok


def residue_sum_expected(N: int, sigma: int, p_restricted) -> int:
    M = N * (N + 1) // 2
    if sigma <= 0:
        return -p_restricted(N, -sigma)
    if sigma < M:
        return 0
    return (-1) ** N * p_restricted(N, sigma - M)


def li2_branch_residual(w, A: int, B: int):
    return abs(mpmath.polylog(2, w) + 4 * pi ** 2 * A + 2j * pi * B * mpmath.log(w))


def p_and_slope(z, d: int):
    """p_d(z) and p_d'(z) through mpmath's own dilogarithm."""
    e = mpmath.exp(2j * pi * z)
    p = (-mpmath.polylog(2, e) + pi ** 2 / 6 + 4 * pi ** 2 * d) / (2j * pi * z)
    return p, -(p - mpmath.log(1 - e)) / z


def psi_float(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(Psi(h/k), D(h, k)) for h = 1..k-1 in float64 and integers."""
    j = np.arange(1, k)
    h = j[:, None]
    logs = np.log(2 * np.sin(np.pi * np.arange(1, k) / k))
    partial = -np.cumsum(logs[(h * j[None, :]) % k - 1], axis=1)
    psi = np.maximum(partial.max(axis=1), 0.0) / k
    betas = np.concatenate([np.arange(1 - k, 0), j])
    gammas = (betas[None, :] * h) % k
    prods = np.where(gammas == 0, k * k, np.abs(betas[None, :] * gammas))
    return psi, prods.min(axis=1)


# -- operations ---------------------------------------------------------------

def dominant_ops(Ns: list[int], k) -> list[Op]:
    res, asy = k.residues, k.asymptotics
    ops = []

    def a1(N, sigma):
        def run():
            exact = res.a1_sum(N, sigma, SUM_PREC).value
            expansion = asy.b_coeffs(sigma, 4, EXPANSION_PREC)
            approx = asy.evaluate_expansion(expansion, N, 4, EXPANSION_PREC).value
            text, ok = expansion_check("a1", exact, approx, expansion, N)
            if sigma == 1 and N in refdata.TABLE_A1:
                row = refdata.TABLE_A1[N]
                ok = ok and sigfigs_match(exact, row[4]) and sigfigs_match(approx, row[3])
            return text, ok
        return Op("a1", f"a1 N={N} sigma={sigma}", run)

    def family_d(N):
        def run():
            exact = -res.family_sum(FamilySelector("D", N), 1, SUM_PREC).value
            expansion = asy.family_leading("D", N % 2, SUM_PREC)
            approx = asy.evaluate_expansion(expansion, N, 1, SUM_PREC).value
            return expansion_check("familyD", exact, approx, expansion, N)
        return Op("familyD", f"familyD N={N}", run)

    def c01(N, ell):
        table = {1: refdata.TABLE_C011, 4: refdata.TABLE_C014}[ell]

        def run():
            exact = res.c01l_exact(N, ell, ORACLE_PREC).value
            expansion = asy.c_coeffs(ell, 4, EXPANSION_PREC)
            approx = asy.evaluate_expansion(expansion, N, 4, EXPANSION_PREC).value
            text, ok = expansion_check(f"c01.{ell}", exact, approx, expansion, N)
            if N in table:
                ok = ok and sigfigs_match(exact, table[N][4]) and sigfigs_match(approx, table[N][3])
            return text, ok
        return Op("c01", f"c01 N={N} ell={ell}", run)

    for N in Ns:
        ops += [a1(N, 1), a1(N, 2), family_d(N)]
        if N >= C01_N_MIN:
            ops += [c01(N, 1), c01(N, 4)]
    return ops


def identity_ops(inputs: dict, k) -> list[Op]:
    res = k.residues
    ops = []

    def trichotomy(N, sigma):
        def run():
            got = res.residue_sum(N, sigma, IDENTITY_PREC).value
            want = residue_sum_expected(N, sigma, res.p_restricted)
            with mp.workprec(IDENTITY_PREC):
                ok = abs(got - want) <= TRICHOTOMY_TOL * (1 + abs(want))
            return f"{want} {nstr(got.real)} {nstr(got.imag, 5)}", ok
        return Op("residue_sum", f"residue_sum N={N} sigma={sigma}", run)

    def reconstruct(N, q):
        def run():
            got = res.reconstruct_product(N, q, RECONSTRUCT_PREC).value
            with mp.workprec(RECONSTRUCT_PREC + 64):
                qv = mpc(q)
                want = 1 / mpmath.fprod([1 - qv ** j for j in range(1, N + 1)])
                ok = abs(got - want) <= RECONSTRUCT_TOL * abs(want)
            return nstr(got), ok
        return Op("reconstruct", f"reconstruct N={N} q={q!r}", run)

    for N, sigmas in inputs["sigmas"].items():
        ops += [trichotomy(N, s) for s in sigmas]
    ops += [reconstruct(N, q) for N, q in inputs["points"]]
    return ops


def landscape_ops(inputs: dict, k, observed: dict) -> list[Op]:
    dil, sp, asy, acc = k.dilog, k.sine_products, k.asymptotics, k.acceptance
    ops = []

    def zero(A, B):
        def run():
            w = dil.find_zero((A, B), prec=ZERO_PREC).w.value
            with mp.workprec(ZERO_PREC + 44):
                ok = li2_branch_residual(w, A, B) <= ZERO_RESIDUAL
            for label, value in (((A, B), w), ((A, -B), mpmath.conj(w))):
                if label in refdata.DILOG_ZEROS:
                    ok = ok and abs(complex(value) - complex(*refdata.DILOG_ZEROS[label])) <= REF_ZERO_TOL
            return nstr(w), ok
        return Op("zero", f"zero A={A} B={B}", run)

    def saddle(m, d):
        def run():
            s = dil.find_saddle(m, d, ZERO_PREC)
            z = s.z.value
            with mp.workprec(ZERO_PREC + 44):
                p, slope = p_and_slope(z, d)
                ok = (m - 0.5 < z.real < m + 0.5 and abs(slope) <= ZERO_RESIDUAL
                      and abs(p - s.pValue.value) <= ZERO_RESIDUAL)
                if (m, d) == (1, 0):
                    b0 = -2j * z * mpmath.exp(-1j * pi * z)
                    ok = (ok and abs(abs(b0) - refdata.ALPHA_CONST) <= 1e-4
                          and abs(mpmath.arg(b0) - refdata.BETA_CONST) <= 1e-4)
            return nstr(z), ok
        return Op("saddle", f"saddle m={m} d={d}", run)

    def psi_rows(kk):
        def run():
            rows = sp.psi_table(kk, PSI_PREC)
            want_psi, want_d = psi_float(kk)
            got_psi = np.array([float(r[1].value) for r in rows])
            ok = (len(rows) == kk - 1
                  and bool(np.all(np.abs(got_psi - want_psi) <= PSI_FLOAT_TOL))
                  and [r[2] for r in rows] == want_d.tolist())
            if kk == 211:
                ok = ok and all(abs(got_psi[h - 1] - v) <= PSI_REF_TOL for h, v in refdata.PSI_211)
            text = " ".join(f"{r[0]}:{nstr(r[1].value, 15)}:{r[2]}" for r in rows)
            return hashlib.sha256(text.encode()).hexdigest(), ok
        return Op("psi_table", f"psi_table k={kk}", run)

    def em_scan(h):
        def run():
            pt, tmax = sp.em_remainder_scan(h)
            _, pt_want, t_want = refdata.EM_CHECK[h]
            pt_tol, t_tol = EM_TOL[h]
            ok = abs(pt - pt_want) <= pt_tol and abs(tmax - t_want) <= t_tol
            return f"{pt:.12g} {tmax:.12g}", ok
        return Op("em_scan", f"em_remainder_scan h={h}", run)

    def path():
        def run():
            chk = asy.path_positivity_check(PATH_SAMPLES, PATH_PREC)
            rise, height, vertical = (chk[key].value for key in
                                      ("min_rise", "saddle_height", "vertical_max"))
            ok = rise > 0 and vertical < mpf("0.06") and abs(height - refdata.U_CONST) <= 1e-6
            return f"{nstr(rise)} {nstr(height)} {nstr(vertical)}", ok
        return Op("path", "path_positivity_check", run)

    def quadrature(N, sigma):
        def run():
            exact = asy.a3_quadrature(N, sigma, QUADRATURE_PREC).value
            expansion = asy.b_coeffs(sigma, 4, EXPANSION_PREC)
            approx = asy.evaluate_expansion(expansion, N, 4, EXPANSION_PREC).value
            return expansion_check("a3", exact, approx, expansion, N)
        return Op("a3", f"a3_quadrature N={N} sigma={sigma}", run)

    def criterion(number, fn):
        def run():
            result = fn()
            observed[f"acceptance.criterion_{number}.headroom_s"] = 1.0 - result.seconds
            return f"passed={result.passed}", result.passed
        return Op("criterion", f"criterion {number}", run)

    for B in (-3, -2, -1, 1, 2, 3):
        ops += [zero(A, B) for A in range(-abs(B), abs(B) + 1)
                if -abs(B) / 2 < A <= abs(B) / 2]
    ops += [saddle(m, d) for m, d in inputs["saddles"]]
    ops += [psi_rows(kk) for kk in inputs["psi_k"]]
    ops += [em_scan(1), em_scan(3), path()]
    ops += [quadrature(N, sigma) for sigma, N in inputs["quadrature_N"].items()]
    ops += [criterion(1, acc.criterion_1_zeros), criterion(2, acc.criterion_2_constants),
            criterion(7, acc.criterion_7_table_c121)]
    return ops


def build_ops(workload: str, inputs, k, observed: dict) -> list[Op]:
    """The workload's ops, calling pfrac only through the kernel namespace `k`."""
    if workload == "dominant":
        return dominant_ops(inputs, k)
    if workload == "identity":
        return identity_ops(inputs, k)
    return landscape_ops(inputs, k, observed)


# -- the closed loop ----------------------------------------------------------

def run_ops(ops: list[Op], tracer=None, log=sys.stderr, between=None) -> Outcome:
    """Issue the ops back to back.  An op that raises or fails its check
    counts as failed and the loop goes on.  `between`, if given, is called
    before each op and after the last, outside every span."""
    lines, failed = [], 0
    for op in ops:
        if between:
            between()
        try:
            with tracer.span(f"op.{op.kind}") if tracer else nullcontext():
                text, ok = op.run()
        except Exception as exc:
            text, ok = f"raised {type(exc).__name__}: {exc}", False
        lines.append(f"{op.label}: {text}")
        if not ok:
            failed += 1
            print(f"FAILED {op.label}: {text}", file=log)
    if between:
        between()
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return Outcome(len(ops), failed, digest)

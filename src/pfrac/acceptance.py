"""Verification suite: one callable per criterion, each returning a
CriterionResult; the CLI `verify` command and the acceptance tests both run
these, so the gate lives in exactly one place.

Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpc, mpf

from . import refdata
from .dilog import find_saddle, find_zero
from .asymptotics import (a3_quadrature, b_coeffs, c_coeffs, decay_exponent,
                          evaluate_expansion, family_leading,
                          path_positivity_check)
from .residues import (a1_sum, c01l_exact, reconstruct_product,
                       residue_sum, residue_sum_expected)
from .sine_products import em_remainder_scan, psi

TABLE_MISMATCH, IDENTITY_FAILURE, CONVERGENCE_FAILURE, PRECISION_EXHAUSTION = 2, 3, 4, 5


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    exit_code: int  # code reported when this criterion fails


def sigfigs_equal(value, ref, digits: int) -> bool:
    """True when `value` matches `ref` to `digits` displayed significant digits."""
    value, ref = mpf(value), mpf(str(ref))
    if ref == 0:
        return abs(value) < mpf(10) ** (-digits)
    ulp = mpf(10) ** (int(mpmath.floor(mpmath.log10(abs(ref)))) - digits + 1)
    return abs(value - ref) <= mpf("0.51") * ulp


def criterion_1_zeros() -> CriterionResult:
    """Six reference dilogarithm zeros to 1e-9; residuals below 1e-20."""
    t0 = time.time()
    bad = []
    for (A, B), (re, im) in refdata.DILOG_ZEROS.items():
        z = find_zero((A, B), prec=256)
        err = abs(z.w.value - mpc(mpf(str(re)), mpf(str(im))))
        if err > mpf("1e-9") or z.residual.value > mpf("1e-20"):
            bad.append(f"({A},{B}): err {mpmath.nstr(err, 3)} resid {mpmath.nstr(z.residual.value, 3)}")
    dt = time.time() - t0
    ok = not bad and dt < 1.0
    detail = "; ".join(bad) if bad else f"six zeros within 1e-9, residuals < 1e-20"
    if dt >= 1.0:
        detail += f"; too slow ({dt:.2f}s >= 1s)"
    return CriterionResult(1, "dilog zeros", ok, detail, dt, CONVERGENCE_FAILURE)


def criterion_2_constants() -> CriterionResult:
    """U, V, |b0|, arg(-2 i z0 e^{-pi i z0}) against their published values."""
    t0 = time.time()
    with mp.workprec(300):
        w0 = find_zero((0, -1), prec=256).w.value
        z0 = find_saddle(1, 0, 256).z.value
        U = -mpmath.log(abs(w0))
        V = mpmath.arg(1 / w0)
        alpha = abs(-2j * z0 * mpmath.exp(-1j * mpmath.pi * z0))
        beta = mpmath.arg(-2j * z0 * mpmath.exp(-1j * mpmath.pi * z0))
    checks = [
        ("U", U, refdata.U_CONST, mpf("1e-6")),
        ("V", V, refdata.V_CONST, mpf("1e-6")),
        ("alpha", alpha, refdata.ALPHA_CONST, mpf("1e-4")),
        ("beta", beta, refdata.BETA_CONST, mpf("1e-4")),
    ]
    bad = [f"{n}={mpmath.nstr(v, 8)} (want {r})" for n, v, r, tol in checks
           if abs(v - mpf(str(r))) > tol]
    dt = time.time() - t0
    ok = not bad and dt < 1.0
    return CriterionResult(2, "derived constants", ok,
                           "; ".join(bad) or "U, V, alpha, beta all match", dt,
                           IDENTITY_FAILURE)


def criterion_3_trichotomy(n_max: int = 25) -> CriterionResult:
    """Residue sums hit {-p_N(-sigma), 0, (-1)^N p_N(sigma - N(N+1)/2)}."""
    t0 = time.time()
    bad = []
    for N in range(1, n_max + 1):
        M = N * (N + 1) // 2
        sigmas = [s for s in range(-6, 7)] + [M, M + 3]
        for sigma in sigmas:
            got = residue_sum(N, sigma, 320).value
            want = residue_sum_expected(N, sigma)
            if abs(got - want) > mpf("1e-15") * (1 + abs(want)):
                bad.append(f"N={N} sigma={sigma}")
    dt = time.time() - t0
    ok = not bad and dt < 120.0
    detail = "; ".join(bad[:4]) if bad else f"all N <= {n_max}, 15 sigma values each"
    if dt >= 120.0:
        detail += f"; too slow ({dt:.1f}s >= 120s)"
    return CriterionResult(3, "residue trichotomy", ok, detail, dt, IDENTITY_FAILURE)


def criterion_4_reconstruction(seed: int = 20240) -> CriterionResult:
    """Partial fractions re-sum to the product at 20 random points, N <= 12."""
    t0 = time.time()
    rng = random.Random(seed)
    worst = mpf(0)
    with mp.workprec(300):
        for i in range(20):
            N = rng.randint(1, 12)
            q = mpc(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            if abs(q) > 0.5:
                q *= mpf("0.5") / abs(q)
            lhs = reconstruct_product(N, q, 256).value
            rhs = 1 / mpmath.fprod([1 - q ** j for j in range(1, N + 1)])
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    dt = time.time() - t0
    ok = worst < mpf("1e-15") and dt < 60.0
    return CriterionResult(4, "partial-fraction reconstruction", ok,
                           f"worst relative error {mpmath.nstr(worst, 3)}", dt,
                           IDENTITY_FAILURE)


def criterion_5_table_a1() -> CriterionResult:
    """Dominant-sum table: expansions m = 1..4 and reference, 6 digits."""
    t0 = time.time()
    bad = []
    exp = b_coeffs(1, 4, 320)
    for N, row in refdata.TABLE_A1.items():
        for m in range(1, 5):
            got = evaluate_expansion(exp, N, m, 320).value
            if not sigfigs_equal(got, row[m - 1], 6):
                bad.append(f"N={N} m={m}: {mpmath.nstr(got, 7)} vs {row[m - 1]}")
        ref = a1_sum(N, 1, 420).value
        if not sigfigs_equal(ref, row[4], 6):
            bad.append(f"N={N} ref: {mpmath.nstr(ref, 7)} vs {row[4]}")
    dt = time.time() - t0
    ok = not bad and dt < 300.0
    return CriterionResult(5, "table: dominant sum", ok,
                           "; ".join(bad[:4]) or "all 25 printed values reproduced",
                           dt, TABLE_MISMATCH)


def criterion_6_tables_c01() -> CriterionResult:
    """Pole-at-1 tables: oracle references, expansion columns, c_{1,t} = -b_t(1)."""
    t0 = time.time()
    bad = []
    for ell, table in ((1, refdata.TABLE_C011), (4, refdata.TABLE_C014)):
        exp = c_coeffs(ell, 4, 320)
        for N, row in table.items():
            for m in range(1, 5):
                got = evaluate_expansion(exp, N, m, 320).value
                if not sigfigs_equal(got, row[m - 1], 6):
                    bad.append(f"ell={ell} N={N} m={m}: {mpmath.nstr(got, 7)}")
            ref = c01l_exact(N, ell, 512).value
            if not sigfigs_equal(ref, row[4], 6):
                bad.append(f"ell={ell} N={N} oracle: {mpmath.nstr(ref, 7)} vs {row[4]}")
    bexp = b_coeffs(1, 4, 320)
    cexp = c_coeffs(1, 4, 320)
    with mp.workprec(360):
        for t in range(4):
            if abs(mpc(cexp.coeffs[t]) + mpc(bexp.coeffs[t])) > mpf("1e-20"):
                bad.append(f"c_(1,{t}) != -b_{t}(1)")
    dt = time.time() - t0
    ok = not bad and dt < 1800.0
    return CriterionResult(6, "tables: pole-at-1 coefficients", ok,
                           "; ".join(bad[:4]) or "oracle and expansion columns reproduced",
                           dt, TABLE_MISMATCH)


def criterion_7_table_c121() -> CriterionResult:
    """Parity-split family-D leading values at N = 1000 and 1001."""
    t0 = time.time()
    bad = []
    for N in (1000, 1001):
        exp = family_leading("D", N % 2, 256)
        got = evaluate_expansion(exp, N, 1, 256).value
        want = refdata.TABLE_C121[N][0]
        if not sigfigs_equal(got, want, 6):
            bad.append(f"N={N}: {mpmath.nstr(got, 7)} vs {want}")
    dt = time.time() - t0
    ok = not bad and dt < 1.0
    return CriterionResult(7, "table: parity family leading term", ok,
                           "; ".join(bad) or "both parity values reproduced", dt,
                           TABLE_MISMATCH)


def criterion_8_psi() -> CriterionResult:
    """All 210 published Psi(h/211) values to 5 decimals; the six h above U."""
    t0 = time.time()
    bad = []
    above = []
    for h, want in refdata.PSI_211:
        got = float(psi(h, 211, 128).value)
        if abs(got - want) > 5e-6:
            bad.append(f"h={h}: {got:.6f} vs {want}")
        if got > refdata.U_CONST:
            above.append(h)
    if above != [1, 2, 105, 106, 209, 210]:
        bad.append(f"h above U: {above}")
    dt = time.time() - t0
    ok = not bad and dt < 30.0
    return CriterionResult(8, "maximum statistic for k=211", ok,
                           "; ".join(bad[:4]) or "210 values match; six h exceed U",
                           dt, TABLE_MISMATCH)


def criterion_9_em_scan() -> CriterionResult:
    """Truncation-remainder maxima over the admissible (m, k) grid."""
    t0 = time.time()
    bad = []
    checks = {1: (144.7, 0.5, 0.002, 0.0005), 3: (0.133, 0.005, 0.005, 0.001)}
    for h, (pt_want, pt_tol, t_want, t_tol) in checks.items():
        pt, tmax = em_remainder_scan(h, 500, 0.006)
        if abs(pt - pt_want) > pt_tol:
            bad.append(f"h={h}: max|prod^-1 T| = {pt:.4f} vs {pt_want}")
        if abs(tmax - t_want) > t_tol:
            bad.append(f"h={h}: max|T| = {tmax:.5f} vs {t_want}")
    dt = time.time() - t0
    return CriterionResult(9, "Euler-Maclaurin remainder scan", not bad,
                           "; ".join(bad) or "both scans inside tolerance", dt,
                           IDENTITY_FAILURE)


def criterion_10_error_order() -> CriterionResult:
    """Fitted decay exponent of the expansion error is >= m + 1.7."""
    t0 = time.time()
    bad = []
    Ns = list(range(200, 1001, 100))
    with mp.workprec(420):
        w0 = find_zero((0, -1), prec=420).w.value
        for sigma in (1, 2):
            exp = b_coeffs(sigma, 4, 320)
            a1 = {N: a1_sum(N, sigma, 420).value for N in Ns}
            for m in (1, 2, 3):
                errs = [abs(a1[N] - evaluate_expansion(exp, N, m, 320).value)
                        * abs(w0) ** N for N in Ns]
                expo = decay_exponent(Ns, errs)
                if expo < m + 1.7:
                    bad.append(f"sigma={sigma} m={m}: exponent {expo:.2f} < {m + 1.7}")
    dt = time.time() - t0
    return CriterionResult(10, "expansion error order", not bad,
                           "; ".join(bad) or "exponents >= m + 1.7 for all six cases",
                           dt, IDENTITY_FAILURE)


def criterion_11_quadrature() -> CriterionResult:
    """Contour integral agrees with the sum; descent path is admissible."""
    t0 = time.time()
    bad = []
    a3 = a3_quadrature(200, 1, 192).value
    a1 = a1_sum(200, 1, 320).value
    rel = abs(a3 - a1) / abs(a1)
    if rel > mpf("1e-3"):
        bad.append(f"relative gap {mpmath.nstr(rel, 3)} > 1e-3")
    chk = path_positivity_check(200, 128)
    if chk["min_rise"].value <= 0:
        bad.append("Re(p - p(z0)) not positive along the path")
    if chk["vertical_max"].value >= mpf("0.06"):
        bad.append(f"vertical Re[-p] reaches {mpmath.nstr(chk['vertical_max'].value, 4)}")
    dt = time.time() - t0
    return CriterionResult(11, "contour quadrature and path", not bad,
                           "; ".join(bad) or f"relative gap {mpmath.nstr(rel, 3)}; path admissible",
                           dt, CONVERGENCE_FAILURE)


ALL_CRITERIA = [
    criterion_1_zeros, criterion_2_constants, criterion_3_trichotomy,
    criterion_4_reconstruction, criterion_5_table_a1, criterion_6_tables_c01,
    criterion_7_table_c121, criterion_8_psi, criterion_9_em_scan,
    criterion_10_error_order, criterion_11_quadrature,
]


def run_all(report=print, seed: int = 20240) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        try:
            res = fn(seed) if fn is criterion_4_reconstruction else fn()
        except Exception as exc:  # a crash counts as a failure of that criterion
            res = CriterionResult(len(results) + 1, fn.__name__, False,
                                  f"{type(exc).__name__}: {exc}", 0.0,
                                  PRECISION_EXHAUSTION)
        results.append(res)
        if report:
            status = "PASS" if res.passed else "FAIL"
            report(f"[{status}] criterion {res.number:2d} ({res.name}): "
                   f"{res.detail} [{res.seconds:.1f}s]")
    return results

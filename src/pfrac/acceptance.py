"""Verification suite: one callable per criterion, each returning a
CriterionResult; the CLI `verify` command and the acceptance tests both run
these, so the gate lives in exactly one place.  The CLI's `table` and
`identity` commands check through the table recipes and the identity gate
defined here, and every command exits with the codes defined here.

Tolerances are pinned here and nowhere else.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass

import mpmath
from mpmath import mp, mpc, mpf

from . import refdata
from .dilog import ConvergenceError, find_saddle, find_zero
from .asymptotics import (a3_quadrature, b_coeffs, c_coeffs, decay_exponent,
                          evaluate_expansion, family_leading,
                          path_positivity_check)
from .residues import (FamilySelector, a1_sum, c01l_exact, family_sum,
                       reconstruct_product, residue_sum, residue_sum_expected)
from .sine_products import em_remainder_scan, psi

EXIT_OK, TABLE_MISMATCH, IDENTITY_FAILURE, CONVERGENCE_FAILURE, PRECISION_EXHAUSTION = 0, 2, 3, 4, 5

TABLE_DIGITS = 6          # significant digits the published tables print
EXPANSION_PREC = 320      # least precision of a table's expansion columns
A1_ORACLE_PREC = 420      # least precision of the dominant-sum reference a1_sum
C01_ORACLE_PREC = 512     # precision of the pole-at-1 reference c01l_exact

# name: (published rows, caption, smallest N the table's sums are defined at)
TABLES = {
    "a1": (refdata.TABLE_A1, "dominant simple-pole sum and its expansion", 2),
    "c011": (refdata.TABLE_C011, "pole-at-1 coefficient, first order", 1),
    "c014": (refdata.TABLE_C014, "pole-at-1 coefficient, fourth order", 4),
    "c121": (refdata.TABLE_C121, "half-pole parity family, leading term", 3),
}


def exit_code(exc: Exception) -> int:
    """Exit code for an error that ends a command or a criterion."""
    return CONVERGENCE_FAILURE if isinstance(exc, ConvergenceError) else PRECISION_EXHAUSTION


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


def table_columns(name: str, N: int, prec: int) -> dict:
    """{"m1": ..., "m4": ...} of table `name` at N (c121 has only m1), at `prec` bits."""
    if name == "a1":
        exp = b_coeffs(1, 4, prec)
    elif name == "c121":
        exp = family_leading("D", N % 2, prec)
    else:  # c01<ell>
        exp = c_coeffs(int(name.removeprefix("c01")), 4, prec)
    return {f"m{m}": evaluate_expansion(exp, N, m, prec).value
            for m in range(1, len(exp.coeffs) + 1)}


def table_reference(name: str, N: int, prec: int):
    """The exact value in the reference column of table `name` at N."""
    if name == "a1":
        return a1_sum(N, 1, max(prec, A1_ORACLE_PREC)).value
    if name == "c121":
        return -family_sum(FamilySelector("D", N), 1, 256).value
    return c01l_exact(N, int(name.removeprefix("c01")), C01_ORACLE_PREC).value


def table_mismatches(name: str, N: int, columns: dict, reference=None) -> list[str]:
    """The values of row N that miss the printed digits of table `name`: the
    columns, and the reference when one is given.  Empty when no row N is printed."""
    printed = TABLES[name][0].get(N, ())
    bad = [f"{name} N={N} {col}: {mpmath.nstr(got, 7)} vs {want}"
           for (col, got), want in zip(columns.items(), printed)
           if not sigfigs_equal(got, want, TABLE_DIGITS)]
    if reference is not None and printed and not sigfigs_equal(reference, printed[4], TABLE_DIGITS):
        bad.append(f"{name} N={N} reference: {mpmath.nstr(reference, 7)} vs {printed[4]}")
    return bad


def _published_rows_mismatches(name: str) -> list[str]:
    """table_mismatches over every printed row of table `name`, columns and reference."""
    return [msg for N in TABLES[name][0]
            for msg in table_mismatches(name, N, table_columns(name, N, EXPANSION_PREC),
                                        table_reference(name, N, EXPANSION_PREC))]


def identity_holds(N: int, sigma: int, prec: int | None = None):
    """(got, want, ok): the residue sum for (N, sigma) at `prec` bits, its exact
    value, and whether they agree within 1e-15 (1 + |want|)."""
    got = residue_sum(N, sigma, prec).value
    want = residue_sum_expected(N, sigma)
    return got, want, abs(got - want) <= mpf("1e-15") * (1 + abs(want))


def _criterion(number: int, name: str, failure_code: int, budget: float | None = None):
    """Turn a criterion body, which returns (failures, success detail), into a
    function returning its CriterionResult: timed, failed at `budget` seconds or
    more, and with a crash reported as a failure carrying the crash's exit code."""
    def wrap(body):
        @functools.wraps(body)
        def run(*args, **kwargs) -> CriterionResult:
            t0 = time.perf_counter()
            try:
                bad, detail = body(*args, **kwargs)
            except Exception as exc:  # a crash counts as a failure of this criterion
                return CriterionResult(number, name, False, f"{type(exc).__name__}: {exc}",
                                       time.perf_counter() - t0, exit_code(exc))
            dt = time.perf_counter() - t0
            notes = bad[:4]
            if budget is not None and dt >= budget:
                notes.append(f"too slow ({dt:.2f}s >= {budget:g}s)")
            return CriterionResult(number, name, not notes, "; ".join(notes) or detail,
                                   dt, failure_code)
        return run
    return wrap


@_criterion(1, "dilog zeros", CONVERGENCE_FAILURE, budget=1.0)
def criterion_1_zeros():
    """Six reference dilogarithm zeros to 1e-9; residuals below 1e-20."""
    bad = []
    for (A, B), (re, im) in refdata.DILOG_ZEROS.items():
        z = find_zero((A, B), prec=256)
        err = abs(z.w.value - mpc(mpf(str(re)), mpf(str(im))))
        if err > mpf("1e-9") or z.residual.value > mpf("1e-20"):
            bad.append(f"({A},{B}): err {mpmath.nstr(err, 3)} resid {mpmath.nstr(z.residual.value, 3)}")
    return bad, "six zeros within 1e-9, residuals < 1e-20"


@_criterion(2, "derived constants", IDENTITY_FAILURE, budget=1.0)
def criterion_2_constants():
    """U, V, |b0|, arg(-2 i z0 e^{-pi i z0}) against their published values."""
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
    return bad, "U, V, alpha, beta all match"


@_criterion(3, "residue trichotomy", IDENTITY_FAILURE, budget=120.0)
def criterion_3_trichotomy(n_max: int = 25):
    """Residue sums hit {-p_N(-sigma), 0, (-1)^N p_N(sigma - N(N+1)/2)}."""
    bad = []
    for N in range(1, n_max + 1):
        M = N * (N + 1) // 2
        sigmas = [s for s in range(-6, 7)] + [M, M + 3]
        for sigma in sigmas:
            if not identity_holds(N, sigma, 320)[2]:
                bad.append(f"N={N} sigma={sigma}")
    return bad, f"all N <= {n_max}, 15 sigma values each"


@_criterion(4, "partial-fraction reconstruction", IDENTITY_FAILURE, budget=60.0)
def criterion_4_reconstruction(seed: int = 20240):
    """Partial fractions re-sum to the product at 20 random points, N <= 12."""
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
    detail = f"worst relative error {mpmath.nstr(worst, 3)}"
    return ([] if worst < mpf("1e-15") else [detail]), detail


@_criterion(5, "table: dominant sum", TABLE_MISMATCH, budget=300.0)
def criterion_5_table_a1():
    """Dominant-sum table: expansions m = 1..4 and reference, 6 digits."""
    return _published_rows_mismatches("a1"), "all 25 printed values reproduced"


@_criterion(6, "tables: pole-at-1 coefficients", TABLE_MISMATCH, budget=1800.0)
def criterion_6_tables_c01():
    """Pole-at-1 tables: oracle references, expansion columns, c_{1,t} = -b_t(1)."""
    bad = _published_rows_mismatches("c011") + _published_rows_mismatches("c014")
    bexp = b_coeffs(1, 4, EXPANSION_PREC)
    cexp = c_coeffs(1, 4, EXPANSION_PREC)
    with mp.workprec(360):
        for t in range(4):
            if abs(mpc(cexp.coeffs[t]) + mpc(bexp.coeffs[t])) > mpf("1e-20"):
                bad.append(f"c_(1,{t}) != -b_{t}(1)")
    return bad, "oracle and expansion columns reproduced"


@_criterion(7, "table: parity family leading term", TABLE_MISMATCH, budget=1.0)
def criterion_7_table_c121():
    """Parity-split family-D leading values at N = 1000 and 1001; only the
    leading column, since the family-sum reference takes about 0.6 s a row."""
    bad = [msg for N in refdata.TABLE_C121
           for msg in table_mismatches("c121", N, table_columns("c121", N, 256))]
    return bad, "both parity values reproduced"


@_criterion(8, "maximum statistic for k=211", TABLE_MISMATCH, budget=30.0)
def criterion_8_psi():
    """All 210 published Psi(h/211) values to 5 decimals; the six h above U."""
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
    return bad, "210 values match; six h exceed U"


@_criterion(9, "Euler-Maclaurin remainder scan", IDENTITY_FAILURE)
def criterion_9_em_scan():
    """Truncation-remainder maxima over the admissible (m, k) grid."""
    bad = []
    tolerances = {1: (0.5, 0.0005), 3: (0.005, 0.001)}  # h -> on max|prod^-1 T|, on max|T|
    for h, (pt_tol, t_tol) in tolerances.items():
        _, pt_want, t_want = refdata.EM_CHECK[h]
        pt, tmax = em_remainder_scan(h, 500, 0.006)
        if abs(pt - pt_want) > pt_tol:
            bad.append(f"h={h}: max|prod^-1 T| = {pt:.4f} vs {pt_want}")
        if abs(tmax - t_want) > t_tol:
            bad.append(f"h={h}: max|T| = {tmax:.5f} vs {t_want}")
    return bad, "both scans inside tolerance"


@_criterion(10, "expansion error order", IDENTITY_FAILURE)
def criterion_10_error_order():
    """Fitted decay exponent of the expansion error is >= m + 1.7."""
    bad = []
    Ns = list(range(200, 1001, 100))
    with mp.workprec(A1_ORACLE_PREC):
        w0 = find_zero((0, -1), prec=A1_ORACLE_PREC).w.value
        # sigma inside N: the pole inverses a1_sum caches for one N serve both
        a1 = {(N, sigma): a1_sum(N, sigma, A1_ORACLE_PREC).value
              for N in Ns for sigma in (1, 2)}
        for sigma in (1, 2):
            exp = b_coeffs(sigma, 4, EXPANSION_PREC)
            for m in (1, 2, 3):
                errs = [abs(a1[N, sigma] - evaluate_expansion(exp, N, m, EXPANSION_PREC).value)
                        * abs(w0) ** N for N in Ns]
                expo = decay_exponent(Ns, errs)
                if expo < m + 1.7:
                    bad.append(f"sigma={sigma} m={m}: exponent {expo:.2f} < {m + 1.7}")
    return bad, "exponents >= m + 1.7 for all six cases"


@_criterion(11, "contour quadrature and path", CONVERGENCE_FAILURE)
def criterion_11_quadrature():
    """Contour integral agrees with the sum; descent path is admissible."""
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
    return bad, f"relative gap {mpmath.nstr(rel, 3)}; path admissible"


def run_all(report=print, seed: int = 20240) -> list[CriterionResult]:
    results = []
    for fn in (criterion_1_zeros, criterion_2_constants, criterion_3_trichotomy,
               functools.partial(criterion_4_reconstruction, seed), criterion_5_table_a1,
               criterion_6_tables_c01, criterion_7_table_c121, criterion_8_psi,
               criterion_9_em_scan, criterion_10_error_order, criterion_11_quadrature):
        res = fn()
        results.append(res)
        if report:
            status = "PASS" if res.passed else "FAIL"
            report(f"[{status}] criterion {res.number:2d} ({res.name}): "
                   f"{res.detail} [{res.seconds:.1f}s]")
    return results

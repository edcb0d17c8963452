"""Command-line surface.

Subcommands reproduce the published tables and figure data, dump zeros,
saddles, expansions, and residues, run the residue-sum identity sweep, and
run the full verification suite.  Output is deterministic CSV or JSON.

Exit codes: 0 ok, 2 table mismatch, 3 identity failure, 4 convergence
failure, 5 precision exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import mpmath
from mpmath import mpf

from . import acceptance, refdata
from .asymptotics import b_coeffs, c_coeffs, evaluate_expansion, family_leading
from .dilog import ConvergenceError, find_zero
from .precision import default_precision, set_default_precision
from .residues import (FamilySelector, PrecisionLossError, a1_sum, c01l_exact,
                       family_sum, residue_report, residue_sum,
                       residue_sum_expected)
from .sine_products import minimal_pair, psi

EXIT_OK = 0
EXIT_TABLE_MISMATCH = 2
EXIT_IDENTITY_FAILURE = 3
EXIT_CONVERGENCE_FAILURE = 4
EXIT_PRECISION_EXHAUSTION = 5


def _emit(rows, header, fmt, out, comment=None):
    if fmt == "json":
        text = json.dumps([dict(zip(header, r)) for r in rows], indent=1)
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        if comment:
            buf.write(f"# {comment}\n")
        w.writerow(header)
        w.writerows(rows)
        text = buf.getvalue()
    if out:
        with open(out, "w") as f:
            f.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _admissible_labels(max_b):
    out = []
    for absb in range(1, max_b + 1):
        for B in (absb, -absb):
            for A in range(-absb, absb + 1):
                if -absb / 2 < A <= absb / 2:
                    out.append((A, B))
    return sorted(set(out), key=lambda ab: (abs(ab[1]), ab[1] < 0, ab[0]))


def cmd_zeros(args) -> int:
    prec = default_precision()
    rows = []
    for A, B in _admissible_labels(args.max_b):
        try:
            z = find_zero((A, B), prec=prec)
        except (ConvergenceError, ValueError) as exc:
            print(f"error: zero ({A},{B}): {exc}", file=sys.stderr)
            return EXIT_CONVERGENCE_FAILURE
        rows.append((A, B, mpmath.nstr(z.w.value.real, 25), mpmath.nstr(z.w.value.imag, 25),
                     mpmath.nstr(z.residual.value, 3)))
    _emit(rows, ["A", "B", "re_w", "im_w", "residual"], args.format, args.out,
          "continued-dilogarithm zeros w(A,B)")
    return EXIT_OK


def cmd_psi(args) -> int:
    k = args.k
    rows = []
    for h in range(1, k):
        if math.gcd(h, k) != 1:
            continue
        rows.append((h, mpmath.nstr(psi(h, k).value, 6), minimal_pair(h, k).D))
    _emit(rows, ["h", "psi", "D"], args.format, args.out,
          f"maximum reciprocal-sine-product statistic for k={k}")
    return EXIT_OK


_TABLES = {
    "a1": (refdata.TABLE_A1, "dominant simple-pole sum and its expansion"),
    "c011": (refdata.TABLE_C011, "pole-at-1 coefficient, first order"),
    "c014": (refdata.TABLE_C014, "pole-at-1 coefficient, fourth order"),
    "c121": (refdata.TABLE_C121, "half-pole parity family, leading term"),
}


def cmd_table(args) -> int:
    name = args.name
    ref_table, caption = _TABLES[name]
    rows_wanted = args.rows or sorted(ref_table)
    prec = max(default_precision(), 320)
    out_rows = []
    mismatch = False

    def fmt6(x):
        return mpmath.nstr(mpf(x), 6)

    for N in rows_wanted:
        if name == "a1":
            exp = b_coeffs(args.sigma, 4, prec)
            cols = [evaluate_expansion(exp, N, m, prec).value for m in range(1, 5)]
            ref = a1_sum(N, args.sigma, max(prec, 420)).value
        elif name in ("c011", "c014"):
            ell = 1 if name == "c011" else 4
            exp = c_coeffs(ell, 4, prec)
            cols = [evaluate_expansion(exp, N, m, prec).value for m in range(1, 5)]
            ref = c01l_exact(N, ell, 512).value
        else:  # c121: leading term only, reference from the family residue sum
            exp = family_leading("D", N % 2, prec)
            cols = [evaluate_expansion(exp, N, 1, prec).value]
            ref = -family_sum(FamilySelector("D", N), args.sigma, 256).value
        if N in ref_table:
            printed = ref_table[N]
            for i, c in enumerate(cols):
                if not acceptance.sigfigs_equal(c, printed[i], 6):
                    mismatch = True
            if not acceptance.sigfigs_equal(ref, printed[4], 6):
                mismatch = True
        out_rows.append([N] + [fmt6(c) for c in cols] + [fmt6(ref)])
    header = ["N"] + [f"m{m}" for m in range(1, len(out_rows[0]) - 1)] + ["reference"]
    _emit(out_rows, header, args.format, args.out, caption)
    return EXIT_TABLE_MISMATCH if mismatch else EXIT_OK


def cmd_identity(args) -> int:
    sigmas = args.sigma_set or list(range(-3, 4))
    failures = []
    for N in range(1, args.n_max + 1):
        for sigma in sigmas:
            got = residue_sum(N, sigma).value
            want = residue_sum_expected(N, sigma)
            if abs(got - want) > mpf("1e-15") * (1 + abs(want)):
                failures.append((N, sigma))
                print(f"FAIL N={N} sigma={sigma}: {mpmath.nstr(got, 10)} != {want}")
    print(f"residue-sum identity: {'ok' if not failures else f'{len(failures)} failures'} "
          f"(N <= {args.n_max}, sigma in {sigmas})")
    return EXIT_IDENTITY_FAILURE if failures else EXIT_OK


def cmd_expansion(args) -> int:
    kind = args.kind
    if kind == "a1":
        exp = b_coeffs(args.sigma, args.m)
    elif kind == "c01":
        exp = c_coeffs(args.ell, args.m)
    elif kind in ("C", "D", "E"):
        exp = family_leading(kind, args.parity)
    else:
        print(f"unknown expansion kind {kind}", file=sys.stderr)
        return EXIT_TABLE_MISMATCH
    text = json.dumps(exp.to_json(), indent=1)
    if args.out:
        open(args.out, "w").write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_residues(args) -> int:
    rows = residue_report(args.n, args.sigma)
    text = json.dumps(rows, indent=1)
    if args.out:
        open(args.out, "w").write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def cmd_a1(args) -> int:
    rows = [(N, mpmath.nstr(a1_sum(N, args.sigma, max(default_precision(), 420)).value, 10))
            for N in (args.rows or [200, 400, 600, 800, 1000])]
    _emit(rows, ["N", "a1"], args.format, args.out,
          f"dominant simple-pole sum, sigma={args.sigma}")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = acceptance.run_all(seed=args.seed)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    if not failed:
        return EXIT_OK
    return failed[0].exit_code


def _int_list(text):
    return [int(x) for x in text.split(",") if x.strip()]


def _at_least(low):
    """argparse type: an integer no smaller than low."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def _a1_rows(text):
    return [_at_least(2)(x) for x in text.split(",") if x.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pfrac",
        description="Partial-fraction coefficients of the restricted partition "
                    "generating function: exact residues and their asymptotics.")
    parser.add_argument("--precision-bits", type=int, default=None,
                        help="default working precision in bits "
                             "(or set PFRAC_PRECISION_BITS)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="write output to a file")
    parser.add_argument("--seed", type=int, default=20240,
                        help="seed for randomized identity sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zeros", help="continued-dilogarithm zeros w(A,B)")
    p.add_argument("--max-b", type=_at_least(1), default=3)
    p.set_defaults(fn=cmd_zeros)

    p = sub.add_parser("table", help="reproduce a published table")
    p.add_argument("name", choices=sorted(_TABLES))
    p.add_argument("--rows", type=_int_list, default=None)
    p.add_argument("--sigma", type=int, default=1)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("psi", help="maximum statistic Psi(h/k) with D(h,k)")
    p.add_argument("--k", type=_at_least(2), default=211)
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("identity", help="residue-sum identity sweep")
    p.add_argument("--n-max", type=_at_least(1), default=25)
    p.add_argument("--sigma-set", type=_int_list, default=None)
    p.set_defaults(fn=cmd_identity)

    p = sub.add_parser("expansion", help="dump expansion coefficients as JSON")
    p.add_argument("kind", choices=("a1", "c01", "C", "D", "E"))
    p.add_argument("--sigma", type=int, default=1)
    p.add_argument("--ell", type=_at_least(1), default=1)
    p.add_argument("--m", type=_at_least(1), default=4)
    p.add_argument("--parity", type=int, choices=(0, 1), default=0)
    p.set_defaults(fn=cmd_expansion)

    p = sub.add_parser("residues", help="dump all residues for (N, sigma) as JSON")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--sigma", type=int, default=1)
    p.set_defaults(fn=cmd_residues)

    p = sub.add_parser("a1", help="dominant simple-pole sum sweep (CSV)")
    p.add_argument("--rows", type=_a1_rows, default=None)
    p.add_argument("--sigma", type=int, default=1)
    p.set_defaults(fn=cmd_a1)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    previous = default_precision()
    if args.precision_bits is not None:
        try:
            set_default_precision(args.precision_bits)
        except ValueError as exc:
            parser.error(f"--precision-bits: {exc}")
    try:
        return args.fn(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE_FAILURE
    except PrecisionLossError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION_EXHAUSTION
    finally:
        set_default_precision(previous)


if __name__ == "__main__":
    sys.exit(main())

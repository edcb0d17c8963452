"""Command-line surface.

Subcommands reproduce the published tables and figure data, dump zeros,
saddles, expansions, and residues, run the residue-sum identity sweep, and
run the full verification suite.  Output is deterministic CSV or JSON.

Exit codes (defined in pfrac.acceptance): 0 ok, 2 table mismatch,
3 identity failure, 4 convergence failure, 5 precision exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

import mpmath
from mpmath import mpf

from . import acceptance
from .asymptotics import b_coeffs, c_coeffs, family_leading
from .dilog import BranchLabel, ConvergenceError, find_zero
from .precision import (_ENV_VAR, MIN_PRECISION, PrecisionLossError, checked_int,
                        default_precision, set_default_precision)
from .residues import a1_sum, residue_report
from .sine_products import psi_table

# Usage limits of `pfrac identity`: `--n-max 100` with the default seven
# sigma values takes about 26 s (2 vCPU VM, Python 3.11), and |sigma| sizes
# the exact p_N table (residues.P_RESTRICTED_MAX_N bounds it as well).
IDENTITY_N_MAX = 100
IDENTITY_SIGMA_MAX = 10_000
# `pfrac residues` grows like about N^2.6: `--n 200` prints its 12 232
# residues in about 4 s (same VM); its --sigma shares identity's cap.
RESIDUES_N_MAX = 200
# `pfrac psi` costs O(k phi(k)) integer additions, most at a prime k:
# `--k 2797` takes about 1.4 s.  `pfrac zeros` solves max_b (max_b + 1)
# zeros: `--max-b 30` takes about 28 s (same VM).
PSI_K_MAX = 2800
ZEROS_MAX_B = 30
# Each size below takes about 4 s at its cap, one value at a time, at the
# default 256 bits (same VM); a list such as `--rows` is capped per value.
# Working precision: `--precision-bits 1536` takes about 3.1 s for `zeros`
# and 3.7 s for `table a1`.  A table row: `table c014 --rows 1500` about
# 4.4 s, the slowest of the four tables.  A row of `pfrac a1`: `--rows 4000`
# about 3.8 s.  Expansion terms: `expansion c01 --m 14` about 3.7 s, and
# each further term costs about 1.5 times the one before.  The pole-at-1
# order: `expansion c01 --ell 2000` about 4.5 s.
PRECISION_BITS_MAX = 1536
TABLE_N_MAX = 1500
A1_N_MAX = 4000
EXPANSION_M_MAX = 14
EXPANSION_ELL_MAX = 2000


def _write(text, out):
    """Write text, ending in one newline, to the file `out` or to stdout."""
    text = text if text.endswith("\n") else text + "\n"
    if out:
        with open(out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


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
    _write(text, out)


def _admissible_labels(max_b):
    """Admissible labels with 1 <= |B| <= max_b, by |B|, then B > 0 first, then A."""
    labels = (BranchLabel(A, B) for absb in range(1, max_b + 1)
              for B in (absb, -absb) for A in range(-absb, absb + 1))
    return [label for label in labels if label.admissible()]


def cmd_zeros(args) -> int:
    prec = default_precision()
    rows = []
    for label in _admissible_labels(args.max_b):
        A, B = label.A, label.B
        try:
            z = find_zero(label, prec=prec)
        except (ConvergenceError, ValueError) as exc:
            print(f"error: zero ({A},{B}): {exc}", file=sys.stderr)
            return acceptance.CONVERGENCE_FAILURE
        rows.append((A, B, mpmath.nstr(z.w.value.real, 25), mpmath.nstr(z.w.value.imag, 25),
                     mpmath.nstr(z.residual.value, 3)))
    _emit(rows, ["A", "B", "re_w", "im_w", "residual"], args.format, args.out,
          "continued-dilogarithm zeros w(A,B)")
    return acceptance.EXIT_OK


def cmd_psi(args) -> int:
    rows = [(h, mpmath.nstr(value.value, 6), D) for h, value, D in psi_table(args.k)]
    _emit(rows, ["h", "psi", "D"], args.format, args.out,
          f"maximum reciprocal-sine-product statistic for k={args.k}")
    return acceptance.EXIT_OK


def cmd_table(args) -> int:
    published, caption, _ = acceptance.TABLES[args.name]
    prec = max(default_precision(), acceptance.EXPANSION_PREC)
    rows, bad = [], []
    for N in args.rows or sorted(published):
        cols = acceptance.table_columns(args.name, N, prec)
        ref = acceptance.table_reference(args.name, N, prec)
        bad += acceptance.table_mismatches(args.name, N, cols, ref)
        rows.append([N] + [mpmath.nstr(mpf(x), acceptance.TABLE_DIGITS)
                           for x in [*cols.values(), ref]])
    _emit(rows, ["N", *cols, "reference"], args.format, args.out, caption)
    return acceptance.TABLE_MISMATCH if bad else acceptance.EXIT_OK


def cmd_identity(args) -> int:
    sigmas = args.sigma_set or list(range(-3, 4))
    failures = []
    for N in range(1, args.n_max + 1):
        for sigma in sigmas:
            got, want, ok = acceptance.identity_holds(N, sigma)
            if not ok:
                failures.append((N, sigma))
                print(f"FAIL N={N} sigma={sigma}: {mpmath.nstr(got, 10)} != {want}")
    print(f"residue-sum identity: {'ok' if not failures else f'{len(failures)} failures'} "
          f"(N <= {args.n_max}, sigma in {sigmas})")
    return acceptance.IDENTITY_FAILURE if failures else acceptance.EXIT_OK


def cmd_expansion(args) -> int:
    if args.kind == "a1":
        exp = b_coeffs(args.sigma, args.m)
    elif args.kind == "c01":
        exp = c_coeffs(args.ell, args.m)
    else:
        exp = family_leading(args.kind, args.parity)
    _write(json.dumps(exp.to_json(), indent=1), args.out)
    return acceptance.EXIT_OK


def cmd_residues(args) -> int:
    _write(json.dumps(residue_report(args.n, args.sigma), indent=1), args.out)
    return acceptance.EXIT_OK


def cmd_a1(args) -> int:
    prec = max(default_precision(), acceptance.A1_ORACLE_PREC)
    rows = [(N, mpmath.nstr(a1_sum(N, args.sigma, prec).value, 10))
            for N in (args.rows or [200, 400, 600, 800, 1000])]
    _emit(rows, ["N", "a1"], args.format, args.out,
          f"dominant simple-pole sum, sigma={args.sigma}")
    return acceptance.EXIT_OK


def cmd_verify(args) -> int:
    results = acceptance.run_all(seed=args.seed)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return failed[0].exit_code if failed else acceptance.EXIT_OK


def _bounded(name, low, high):
    """argparse type: an integer in [low, high], checked by `checked_int`,
    whose message names `name`."""
    def integer(text):
        value = int(text)
        try:
            return checked_int(value, name, low, high)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return integer


def _list_of(item):
    """argparse type: comma-separated values, each read by the type `item`."""
    def integers(text):
        return [item(x) for x in text.split(",") if x.strip()]
    return integers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pfrac",
        description="Partial-fraction coefficients of the restricted partition "
                    "generating function: exact residues and their asymptotics.")
    # a PFRAC_PRECISION_BITS string is the default, which argparse reads
    # through the same type, so it exits 2 out of range before any work
    parser.add_argument("--precision-bits", default=os.environ.get(_ENV_VAR),
                        type=_bounded("precision", MIN_PRECISION, PRECISION_BITS_MAX),
                        help=f"default working precision in bits (or set {_ENV_VAR})")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--out", default=None, help="write output to a file")
    parser.add_argument("--seed", type=int, default=20240,
                        help="seed of verify's partial-fraction reconstruction criterion")
    sub = parser.add_subparsers(dest="command", required=True)
    sigma = _bounded("sigma", -IDENTITY_SIGMA_MAX, IDENTITY_SIGMA_MAX)

    p = sub.add_parser("zeros", help="continued-dilogarithm zeros w(A,B)")
    p.add_argument("--max-b", type=_bounded("|B|", 1, ZEROS_MAX_B), default=3)
    p.set_defaults(fn=cmd_zeros)

    p = sub.add_parser("table", help="reproduce a published table")
    p.add_argument("name", choices=sorted(acceptance.TABLES))
    p.add_argument("--rows", type=_list_of(_bounded("N", None, TABLE_N_MAX)), default=None)
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("psi", help="maximum statistic Psi(h/k) with D(h,k)")
    p.add_argument("--k", type=_bounded("k", 2, PSI_K_MAX), default=211)
    p.set_defaults(fn=cmd_psi)

    p = sub.add_parser("identity", help="residue-sum identity sweep")
    p.add_argument("--n-max", type=_bounded("N", 1, IDENTITY_N_MAX), default=25)
    p.add_argument("--sigma-set", type=_list_of(sigma), default=None)
    p.set_defaults(fn=cmd_identity)

    p = sub.add_parser("expansion", help="dump expansion coefficients as JSON")
    p.add_argument("kind", choices=("a1", "c01", "C", "D", "E"))
    p.add_argument("--sigma", type=int, default=1)
    p.add_argument("--ell", type=_bounded("ell", 1, EXPANSION_ELL_MAX), default=1)
    p.add_argument("--m", type=_bounded("m", 1, EXPANSION_M_MAX), default=4)
    p.add_argument("--parity", type=int, choices=(0, 1), default=0)
    p.set_defaults(fn=cmd_expansion)

    p = sub.add_parser("residues", help="dump all residues for (N, sigma) as JSON")
    p.add_argument("--n", type=_bounded("N", 1, RESIDUES_N_MAX), required=True)
    p.add_argument("--sigma", type=sigma, default=1)
    p.set_defaults(fn=cmd_residues)

    p = sub.add_parser("a1", help="dominant simple-pole sum sweep (CSV)")
    p.add_argument("--rows", type=_list_of(_bounded("N", 2, A1_N_MAX)), default=None)
    p.add_argument("--sigma", type=int, default=1)
    p.set_defaults(fn=cmd_a1)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    if args.command == "table":
        try:  # each table's floor, once the table is known
            for N in args.rows or ():
                checked_int(N, "N", acceptance.TABLES[args.name][2])
        except ValueError as exc:
            parser.error(f"argument --rows: table {args.name}: {exc}")
    previous = default_precision()
    if args.precision_bits is not None:
        set_default_precision(args.precision_bits)
    try:
        return args.fn(args)
    except (ConvergenceError, PrecisionLossError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return acceptance.exit_code(exc)
    finally:
        set_default_precision(previous)


if __name__ == "__main__":
    sys.exit(main())

"""Acceptance gate: every criterion at its pinned tolerance.

Each test runs one criterion from pfrac.acceptance (the same functions the
`pfrac verify` command uses) and prints its PASS/FAIL line.  The last tests
check how the shared harness reports a budget overrun and a crash.
"""

import itertools
from types import SimpleNamespace

import pytest

from pfrac import acceptance
from pfrac.dilog import ConvergenceError


def _run(fn):
    res = fn()
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] criterion {res.number:2d} ({res.name}): {res.detail} "
          f"[{res.seconds:.1f}s]")
    assert res.passed, f"criterion {res.number}: {res.detail}"


def test_criterion_01_dilog_zeros():
    _run(acceptance.criterion_1_zeros)


def test_criterion_02_derived_constants():
    _run(acceptance.criterion_2_constants)


def test_criterion_03_residue_trichotomy():
    _run(acceptance.criterion_3_trichotomy)


def test_criterion_04_partial_fraction_reconstruction():
    _run(acceptance.criterion_4_reconstruction)


def test_criterion_05_table_dominant_sum():
    _run(acceptance.criterion_5_table_a1)


def test_criterion_06_tables_pole_at_one():
    _run(acceptance.criterion_6_tables_c01)


def test_criterion_07_table_parity_family():
    _run(acceptance.criterion_7_table_c121)


def test_criterion_08_psi_figure():
    _run(acceptance.criterion_8_psi)


def test_criterion_09_em_remainder_scan():
    _run(acceptance.criterion_9_em_scan)


def test_criterion_10_expansion_error_order():
    _run(acceptance.criterion_10_error_order)


def test_criterion_11_quadrature_and_path():
    _run(acceptance.criterion_11_quadrature)


@pytest.mark.parametrize("fn, budget", [
    (acceptance.criterion_1_zeros, "1"), (acceptance.criterion_2_constants, "1"),
    (acceptance.criterion_4_reconstruction, "60"),
    (acceptance.criterion_7_table_c121, "1"), (acceptance.criterion_8_psi, "30")])
def test_budget_overrun_fails_and_says_so(monkeypatch, fn, budget):
    # a clock that advances 100 s a reading puts every body over its budget
    ticks = itertools.count(0, 100)

    def clock():
        return float(next(ticks))

    monkeypatch.setattr(acceptance, "time", SimpleNamespace(perf_counter=clock))
    res = fn()
    assert not res.passed
    assert res.detail == f"too slow (100.00s >= {budget}s)"


@pytest.mark.parametrize("error, code", [
    (ConvergenceError("Newton stalled"), acceptance.CONVERGENCE_FAILURE),
    (ZeroDivisionError("division by zero"), acceptance.PRECISION_EXHAUSTION)])
def test_crash_fails_its_own_criterion_with_the_error_exit_code(monkeypatch, error, code):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(acceptance, "find_zero", broken)
    res = acceptance.criterion_1_zeros()
    assert (res.number, res.name, res.passed, res.exit_code) == (1, "dilog zeros", False, code)
    assert res.detail == f"{type(error).__name__}: {error}"

"""Command-line surface: determinism, schemas, exit codes."""

import csv
import hashlib
import io
import json

import pytest

from pfrac.cli import main
from pfrac.precision import default_precision
from pfrac.refdata import PSI_211


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("bits", ["0", "4"])
def test_precision_bits_below_limit_is_a_usage_error(capsys, bits):
    with pytest.raises(SystemExit) as exc:
        main(["--precision-bits", bits, "psi", "--k", "11"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"--precision-bits: precision must be an integer of at least 8 bits, got {bits}" in err


def test_precision_bits_do_not_leak_into_the_process_default(capsys):
    before = default_precision()
    code, _ = run_cli(capsys, "--precision-bits", "320", "psi", "--k", "11")
    assert code == 0
    assert default_precision() == before


def test_a1_sweep_output_is_pinned(capsys):
    code, out = run_cli(capsys, "a1", "--rows", "200,300", "--sigma", "2")
    assert code == 0
    assert out.splitlines()[2:] == ["200,-28.33407583", "300,22004.0141"]


def test_psi_211_output_is_pinned(capsys):
    code, out = run_cli(capsys, "psi", "--k", "211")
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "022fd788677c002360f03fb6b8b51d52d9a6c742b7bac75b205024a21b4bb91c")


USAGE_ERRORS = {
    "residues --n 0": "--n: must be at least 1, got 0",
    "a1 --rows 200,1": "--rows: must be at least 2, got 1",
    "expansion a1 --m 0": "--m: must be at least 1, got 0",
    "expansion c01 --ell 0": "--ell: must be at least 1, got 0",
    "expansion D --parity 2": "--parity: invalid choice: 2 (choose from 0, 1)",
    "psi --k 1": "--k: must be at least 2, got 1",
    "psi --k -3": "--k: must be at least 2, got -3",
    "identity --n-max 0": "--n-max: must be at least 1, got 0",
}


@pytest.mark.parametrize("command", USAGE_ERRORS)
def test_out_of_range_argument_is_a_usage_error(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == 2
    assert f"argument {USAGE_ERRORS[command]}" in capsys.readouterr().err


SADDLE_FRAME_SHA256 = {
    "expansion a1 --m 4":
        "89061f91288378e713f74043e7216cb7981fefabb39194e1b0052e1095db882c",
    "expansion c01 --ell 4 --m 4":
        "635c73a5326b1fb71efb945835f45a5f3edec9635f9e648635266f167796904d",
}


@pytest.mark.parametrize("command", SADDLE_FRAME_SHA256)
def test_saddle_frame_output_is_pinned(capsys, command):
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SADDLE_FRAME_SHA256[command]


def test_zeros_max_b_zero(capsys):
    # no label has |B| = 0: an empty table is a usage error, not a result
    with pytest.raises(SystemExit) as exc:
        main(["zeros", "--max-b", "0"])
    assert exc.value.code == 2
    assert "argument --max-b: must be at least 1, got 0" in capsys.readouterr().err


def test_zeros_max_b_one(capsys):
    code, out = run_cli(capsys, "zeros", "--max-b", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.split("\n", 1)[1])))
    assert len(rows) == 2
    assert sorted((int(r["A"]), int(r["B"])) for r in rows) == [(0, -1), (0, 1)]
    pair = {int(r["B"]): (float(r["re_w"]), float(r["im_w"])) for r in rows}
    assert pair[1][0] == pair[-1][0] and pair[1][1] == -pair[-1][1]


def test_zeros_max_b_three(capsys):
    # all admissible labels: sum over |B| <= 3 of 2 |B| = 12, conjugate-closed
    code, out = run_cli(capsys, "zeros", "--max-b", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.split("\n", 1)[1])))
    assert len(rows) == 12
    got = {(int(r["A"]), int(r["B"])): (float(r["re_w"]), float(r["im_w"])) for r in rows}
    re, im = got[(-1, -3)]
    assert abs(re - (-0.5459030969)) < 1e-9 and abs(im - 0.8812307423) < 1e-9
    assert all(float(r["residual"]) < 1e-20 for r in rows)


def test_psi_csv_matches_reference(capsys):
    code, out = run_cli(capsys, "psi", "--k", "211")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.split("\n", 1)[1])))
    assert len(rows) == 210
    ref = dict(PSI_211)
    for r in rows:
        assert abs(float(r["psi"]) - ref[int(r["h"])]) < 5e-6
    assert int(rows[0]["D"]) == 1 and int(rows[1]["D"]) == 2


def test_psi_deterministic(capsys):
    _, out1 = run_cli(capsys, "psi", "--k", "101")
    _, out2 = run_cli(capsys, "psi", "--k", "101")
    assert out1 == out2


def test_identity_exit_zero(capsys):
    code, out = run_cli(capsys, "identity", "--n-max", "8", "--sigma-set=-2,0,1,3")
    assert code == 0
    assert "ok" in out


def test_table_a1_row_matches(capsys):
    code, out = run_cli(capsys, "--precision-bits", "320", "table", "a1", "--rows", "200")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.split("\n", 1)[1])))
    assert rows[0]["N"] == "200"
    assert rows[0]["m1"].startswith("-33.868")
    assert rows[0]["m4"].startswith("-32.468")
    assert rows[0]["reference"].startswith("-32.469")


def test_table_header_has_caption(capsys):
    code, out = run_cli(capsys, "--precision-bits", "320", "table", "a1", "--rows", "200")
    assert out.splitlines()[0].startswith("#")


def test_expansion_json(capsys):
    code, out = run_cli(capsys, "expansion", "D", "--parity", "1")
    assert code == 0
    js = json.loads(out)
    assert js["kind"] == "familyD" and js["parity"] == 1
    assert js["base"] == {"A": 0, "B": -1, "w": js["base"]["w"]}


def test_residues_json(capsys):
    code, out = run_cli(capsys, "residues", "--n", "5", "--sigma", "2")
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["order"] == 5 and rows[0]["k"] == 1
    assert len(rows) == 10  # |farey(5)|


def test_a1_sweep(capsys):
    code, out = run_cli(capsys, "a1", "--rows", "200", "--sigma", "1")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.split("\n", 1)[1])))
    assert abs(float(rows[0]["a1"]) - (-32.4692)) < 1e-3


def test_out_file(tmp_path, capsys):
    target = tmp_path / "psi.csv"
    code, _ = run_cli(capsys, "--out", str(target), "psi", "--k", "11")
    assert code == 0
    text = target.read_text()
    assert text.startswith("#") and "h,psi,D" in text


def test_table_c121_row(capsys):
    # leading-term column and the family-sum reference both match print digits
    code, out = run_cli(capsys, "table", "c121", "--rows", "1001")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.split("\n", 1)[1])))
    assert rows[0]["m1"].startswith("2.10996")
    assert rows[0]["reference"].startswith("2.11418")


def test_verify_exit_code_mapping(monkeypatch, capsys):
    from pfrac import acceptance

    def fake_run_all(report=print, seed=0):
        return [acceptance.CriterionResult(5, "x", False, "d", 0.0,
                                           acceptance.TABLE_MISMATCH)]

    monkeypatch.setattr(acceptance, "run_all", fake_run_all)
    code, out = run_cli(capsys, "verify")
    assert code == acceptance.TABLE_MISMATCH
    assert "0/1 criteria passed" in out

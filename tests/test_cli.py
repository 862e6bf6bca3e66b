import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bellwigner import cross_correlation
from bellwigner.cli import main
from bellwigner.datafile import read_outcome_csv

WITNESS = "0,2.0943951023931953,1.0471975511965976"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def write_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_check_data_triple_file(tmp_path, capsys):
    path = write_file(tmp_path, "d.csv", "a,b,bp\n+1,+1,+1\n" + "1,-1,+1\n" * 99)
    rc, out, _ = run(capsys, "check-data", path)
    payload = json.loads(out)
    assert rc == 0
    assert payload["kind"] == "DATA_BELL_3"
    assert payload["mode"] == "EXACT_DATA"
    assert payload["satisfied"] is True
    assert payload["n"] == 100
    assert payload["tolerance"] == 0.0


def test_check_data_quad_file(tmp_path, capsys):
    path = write_file(tmp_path, "q.csv", "a,ap,b,bp\n+1,+1,+1,+1\n-1,+1,-1,-1\n")
    rc, out, _ = run(capsys, "check-data", path)
    payload = json.loads(out)
    assert rc == 0
    assert payload["kind"] == "DATA_BELL_4"
    assert payload["satisfied"] is True


def test_check_data_csv_format(tmp_path, capsys):
    path = write_file(tmp_path, "d.csv", "a,b,bp\n+1,-1,+1\n")
    rc, out, _ = run(capsys, "check-data", path, "--format", "csv")
    lines = out.strip().split("\n")
    assert rc == 0
    assert len(lines) == 2
    assert lines[0].startswith("command,path,n,kind")


def test_check_data_reports_bad_cell_line(tmp_path, capsys):
    path = write_file(tmp_path, "d.csv", "a,b,bp\n+1,+1,+1\n+1,0,+1\n")
    rc, _, err = run(capsys, "check-data", path)
    assert rc == 2
    assert "line 3" in err
    assert "'0'" in err


def test_check_data_reports_ragged_row(tmp_path, capsys):
    path = write_file(tmp_path, "d.csv", "a,b,bp\n+1,+1\n")
    rc, _, err = run(capsys, "check-data", path)
    assert rc == 2
    assert "line 2" in err
    assert "expected 3 cells" in err


@pytest.mark.parametrize(
    "prefix, suffix", [("\ufeff", ""), ("", "\n"), ("", "\r\n\n")], ids=["bom", "blank", "blanks"]
)
def test_check_data_accepts_bom_and_trailing_blank_lines(tmp_path, capsys, prefix, suffix):
    body = "+1,+1,+1\n" + "1,-1,+1\n" * 9
    clean = write_file(tmp_path, "clean.csv", "a,b,bp\n" + body)
    variant = write_file(tmp_path, "variant.csv", prefix + "a,b,bp\n" + body + suffix)
    rc_clean, out_clean, _ = run(capsys, "check-data", clean)
    rc, out, err = run(capsys, "check-data", variant)
    assert rc == rc_clean == 0, err
    expected, payload = json.loads(out_clean), json.loads(out)
    expected.pop("path"), payload.pop("path")
    assert payload == expected


def test_check_data_line_numbers_count_blank_lines(tmp_path, capsys):
    path = write_file(tmp_path, "d.csv", "a,b,bp\n+1,+1,+1\n\n+1,x,+1\n")
    rc, _, err = run(capsys, "check-data", path)
    assert rc == 2
    assert "line 4" in err


def test_check_data_rejects_unknown_header(tmp_path, capsys):
    path = write_file(tmp_path, "d.csv", "x,y,z\n+1,+1,+1\n")
    rc, _, err = run(capsys, "check-data", path)
    assert rc == 2
    assert "header" in err


def test_check_data_missing_file(capsys):
    rc, _, err = run(capsys, "check-data", "/nonexistent/data.csv")
    assert rc == 2
    assert "error:" in err


def test_check_data_empty_body(tmp_path, capsys):
    path = write_file(tmp_path, "d.csv", "a,b,bp\n")
    rc, _, err = run(capsys, "check-data", path)
    assert rc == 2
    assert "no data rows" in err


def test_simulate_writes_deterministic_csv(tmp_path, capsys):
    out1 = str(tmp_path / "s1.csv")
    out2 = str(tmp_path / "s2.csv")
    rc1, text1, _ = run(
        capsys, "simulate", "--angles", WITNESS, "--n", "500", "--seed", "42", "--out", out1
    )
    rc2, text2, _ = run(
        capsys, "simulate", "--angles", WITNESS, "--n", "500", "--seed", "42", "--out", out2
    )
    assert rc1 == rc2 == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()
    summary = json.loads(text1)
    assert summary["data_inequality"]["satisfied"] is True
    assert set(summary["estimates"]) == {"c_ab", "c_abp", "c_bbp"}
    assert set(summary["analytic"]) == {"c_ab", "c_abp", "c3"}
    s1, s2 = json.loads(text1), json.loads(text2)
    s1.pop("out"), s2.pop("out")
    assert s1 == s2


def test_simulate_csv_round_trips_through_check_data(tmp_path, capsys):
    out = str(tmp_path / "sim.csv")
    rc, _, _ = run(capsys, "simulate", "--n", "50", "--out", out)
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["a", "b", "bp"]
    assert len(rows) == 51
    assert set(cell for row in rows[1:] for cell in row) <= {"+1", "-1"}
    rc, out_text, _ = run(capsys, "check-data", out)
    assert rc == 0
    assert json.loads(out_text)["satisfied"] is True


def test_simulate_report_matches_its_file(tmp_path, capsys):
    # the summary is computed from the counts of the rows written, so it
    # must agree with what check-data and the columns read back say
    out = str(tmp_path / "sim.csv")
    rc, text, _ = run(capsys, "simulate", "--angles", WITNESS, "--n", "777", "--seed", "5", "--out", out)
    assert rc == 0
    summary = json.loads(text)
    rc, checked, _ = run(capsys, "check-data", out)
    assert rc == 0
    checked = json.loads(checked)
    assert checked["n"] == 777
    assert summary["data_inequality"] == {
        k: v for k, v in checked.items() if k not in ("command", "path", "n")
    }
    data = read_outcome_csv(out)
    assert summary["estimates"] == {
        "c_ab": cross_correlation(data.a, data.b).value,
        "c_abp": cross_correlation(data.a, data.bp).value,
        "c_bbp": cross_correlation(data.b, data.bp).value,
    }


def test_simulate_degrees_flag(tmp_path, capsys):
    out = str(tmp_path / "deg.csv")
    rc, text, _ = run(
        capsys, "simulate", "--angles", "0,120,60", "--degrees", "--n", "10", "--out", out
    )
    assert rc == 0
    summary = json.loads(text)
    assert summary["analytic"]["c_ab"] == pytest.approx(0.5, abs=1e-12)
    assert summary["analytic"]["c3"] == pytest.approx(-0.25, abs=1e-12)


def test_simulate_rejects_bad_n(capsys, tmp_path):
    rc, _, err = run(
        capsys, "simulate", "--n", "0", "--out", str(tmp_path / "x.csv")
    )
    assert rc == 2
    assert "--n" in err


def test_analytic_paper_witness(capsys):
    rc, out, _ = run(capsys, "analytic", "--angles", WITNESS, "--mode", "paper")
    payload = json.loads(out)
    assert rc == 0
    assert payload["wigner"]["margin"] == pytest.approx(0.0625, abs=1e-12)
    assert payload["wigner_slack"] == pytest.approx(0.125, abs=1e-12)
    assert payload["bell"]["margin"] == pytest.approx(0.25, abs=1e-12)
    assert payload["third_pair"]["ppm"] == pytest.approx(0.3125, abs=1e-12)
    assert payload["joint_ab"]["pp"] == pytest.approx(0.375, abs=1e-12)


def test_analytic_naive_witness_exits_one(capsys):
    rc, out, _ = run(capsys, "analytic", "--angles", WITNESS, "--mode", "naive")
    payload = json.loads(out)
    assert rc == 1
    assert payload["wigner"]["margin"] == pytest.approx(-0.125, abs=1e-12)
    assert payload["bell"]["margin"] == pytest.approx(-0.5, abs=1e-12)
    assert payload["wigner"]["satisfied"] is False


def test_analytic_aligned_settings(capsys):
    rc, out, _ = run(capsys, "analytic", "--angles", "0,0,0")
    payload = json.loads(out)
    assert rc == 0
    assert payload["correlations"]["c_ab"] == -1.0
    assert payload["correlations"]["c3"] == 1.0


def test_analytic_rejects_malformed_angles(capsys):
    rc, _, err = run(capsys, "analytic", "--angles", "1,2")
    assert rc == 2
    assert "--angles" in err


def test_sweep_paper_exits_zero(capsys):
    rc, out, _ = run(
        capsys, "sweep", "--kind", "wigner", "--mode", "paper", "--resolution", "6"
    )
    payload = json.loads(out)
    assert rc == 0
    assert payload["violations"] == 0
    assert payload["min_margin"] >= -1e-12
    assert payload["n_points"] == 216


def test_sweep_naive_exits_one_with_witness(capsys):
    rc, out, _ = run(
        capsys, "sweep", "--kind", "wigner", "--mode", "naive", "--resolution", "6"
    )
    payload = json.loads(out)
    assert rc == 1
    assert payload["violations"] > 0
    assert payload["min_margin"] == pytest.approx(-0.125, abs=1e-9)
    argmin = payload["argmin"]
    assert not math.isnan(argmin["a"])


def test_sweep_writes_record_file(tmp_path, capsys):
    out_path = str(tmp_path / "sweep.csv")
    rc, out, _ = run(
        capsys,
        "sweep", "--kind", "bell", "--mode", "naive", "--resolution", "6",
        "--out", out_path,
    )
    assert rc == 1
    with open(out_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 217
    assert rows[0] == ["a", "b", "bp", "kind", "mode", "lhs", "rhs", "margin"]
    payload = json.loads(out)
    assert payload["records_written"] == 216


def test_sweep_records_to_stdout_keeps_summary_on_stderr(capsys):
    rc, out, err = run(
        capsys,
        "sweep", "--kind", "wigner", "--mode", "paper", "--resolution", "3",
        "--out", "-",
    )
    assert rc == 0
    assert out.startswith("a,b,bp,kind,mode")
    assert len(out.strip().split("\n")) == 28
    assert json.loads(err)["violations"] == 0


def test_convergence_csv_output(capsys):
    rc, out, _ = run(
        capsys, "convergence", "--n-list", "50,200", "--seed", "7"
    )
    lines = out.strip().split("\n")
    assert rc == 0
    assert lines[0] == "n_samples,estimate,analytic,abs_error,std_error,seed"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "50"


def test_convergence_json_output(tmp_path, capsys):
    out_path = str(tmp_path / "conv.json")
    rc, _, _ = run(
        capsys,
        "convergence", "--n-list", "50,200", "--format", "json", "--out", out_path,
    )
    assert rc == 0
    with open(out_path) as fh:
        rows = json.load(fh)
    assert [r["n_samples"] for r in rows] == [50, 200]
    assert all(r["seed"] == 42 for r in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--resolution", "2000000"],
        ["simulate", "--n", "100000000000000", "--out", "unused.csv"],
    ],
    ids=["sweep", "simulate"],
)
def test_sizes_too_large_for_memory_exit_two(capsys, tmp_path, monkeypatch, argv):
    # each size fails at its first allocation, so nothing large is ever touched
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_convergence_rejects_bad_n_list(capsys):
    rc, _, err = run(capsys, "convergence", "--n-list", "10,abc")
    assert rc == 2
    assert "--n-list" in err


def test_cli_import_pulls_in_no_heavy_modules():
    # every command pays for what importing the CLI loads: concurrent.futures
    # alone adds ~0.7 MB to each command's peak RSS, numpy.ma ~1.5 MB, and
    # fractions pulls in decimal
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import bellwigner.cli, sys; "
        "print([m for m in ('concurrent.futures', 'logging', 'fractions', 'decimal', 'numpy.ma') "
        "if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest

from bellwigner import AngleConfig, data_bell_margin_3, make_rng, sample_dataset
from bellwigner import EmptyDataError, LengthMismatchError, datafile, sampler
from bellwigner.cli import main
from bellwigner.datafile import DataParseError, read_outcome_csv, write_triples_csv
from conftest import SRC, blas_is_openblas

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


def test_check_data_reports_csv_error(tmp_path, capsys):
    # a cell longer than the csv module's field limit is an input error, not a violation
    path = tmp_path / "d.csv"
    path.write_bytes(b"a,b,bp\n1" + b" " * 200_000 + b",1,1\n")
    rc, _, err = run(capsys, "check-data", str(path))
    assert rc == 2
    assert err.startswith("error:") and "field larger than field limit" in err


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
    # each estimate is the exact integer product sum of two columns over n
    assert summary["estimates"] == {
        key: int((x * y).sum(dtype="int64")) / 777
        for key, x, y in (("c_ab", data.a, data.b), ("c_abp", data.a, data.bp),
                          ("c_bbp", data.b, data.bp))
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


def test_simulate_bad_seed_leaves_out_untouched(capsys, tmp_path):
    # the seed is checked before --out is opened, so nothing is truncated or made
    existing = tmp_path / "existing.csv"
    existing.write_bytes(b"a,b,bp\n+1,-1,+1\n-1,+1,+1\n+1,+1,-1\n-1,-1,-1\n+1,-1,-1\n")
    before = existing.read_bytes()
    absent = tmp_path / "absent.csv"
    for out in (existing, absent):
        rc, _, err = run(capsys, "simulate", "--n", "5", "--seed", "-1", "--out", str(out))
        assert rc == 2
        assert "seed" in err
    assert existing.read_bytes() == before
    assert not absent.exists()


@pytest.mark.parametrize("command", ["analytic", "simulate", "convergence"])
@pytest.mark.parametrize("angles", ["-1e308,1e308,0", "0,1.7e308,0"])
def test_angles_whose_difference_overflows_exit_two(capsys, tmp_path, command, angles):
    # each angle is finite, but b - a (or twice it, in the OPTICAL trig
    # argument) is not; the config is refused before --out is opened, so an
    # existing file is left as it was
    existing = tmp_path / "existing.csv"
    existing.write_bytes(b"a,b,bp\n+1,-1,+1\n-1,+1,+1\n")
    before = existing.read_bytes()
    out_args = [] if command == "analytic" else ["--out", str(existing)]
    rc, out, err = run(
        capsys, command, f"--angles={angles}", "--convention", "optical", *out_args
    )
    assert rc == 2
    assert out == ""
    assert "angles b and a must differ by less than 2**1023" in err
    assert existing.read_bytes() == before


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


def test_sweep_records_to_a_closed_pipe_exit_two(tmp_path):
    # like `sweep --out - | head -2`: the reader takes two lines and closes
    # the pipe long before the 27,000 records are written
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "bellwigner", "sweep", "--resolution", "30", "--out", "-"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=tmp_path,
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert lines[0].startswith(b"a,b,bp,kind,mode")
    records = int(err.removeprefix("error: output closed after ").removesuffix(" records\n"))
    assert 0 < records < 27_000


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
        # the census holds O(R) floats, so only a working set that cannot be
        # allocated (8 PB at R = 10^15) is refused
        ["sweep", "--resolution", str(10**15), "--kind", kind, "--mode", mode]
        for kind in ("bell", "wigner") for mode in ("paper", "naive")
    ],
    ids=["sweep-bell-paper", "sweep-bell-naive", "sweep-wigner-paper", "sweep-wigner-naive"],
)
def test_sizes_too_large_for_memory_exit_two(capsys, tmp_path, monkeypatch, argv):
    # each size fails at its first allocation, so nothing large is ever touched
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith(f"error: resolution {10**15} needs")
    assert "Traceback" not in err


def test_streamed_simulate_writes_the_sampled_data_set(tmp_path, capsys):
    # slices end inside the file, yet the rows land in trial order: the
    # bytes of writing the whole sampled data set
    cfg = AngleConfig(0.0, 2 * math.pi / 3, math.pi / 3)
    with mock.patch.object(sampler, "_DRAW_SLICE", 7):
        rc, out, _ = run(capsys, "simulate", "--n", "1000", "--seed", "5", "--out", str(tmp_path / "s.csv"))
        expected = write_triples_csv(str(tmp_path / "w.csv"), sample_dataset(cfg, 1000, make_rng(5)))
    assert rc == 0
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "w.csv").read_bytes()
    assert json.loads(out)["data_inequality"] == data_bell_margin_3(expected).as_dict()


def test_simulate_memory_does_not_grow_with_n(tmp_path, capsys):
    # whole int8 columns would take 6 MB at n = 2e6 and 12 MB at 4e6; the
    # streamed rows hold one slice of draws at any n
    out = str(tmp_path / "s.csv")
    with mock.patch.object(sampler, "_DRAW_SLICE", 1 << 12):
        run(capsys, "simulate", "--n", "10000", "--out", out)  # warm-up
        for n in (2_000_000, 4_000_000):
            tracemalloc.start()
            try:
                rc, _, _ = run(capsys, "simulate", "--n", str(n), "--out", out)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert rc == 0
            assert peak < 2 * 2**20, (n, peak)
    assert os.path.getsize(out) == len("a,b,bp\n") + 9 * 4_000_000


def test_convergence_rejects_bad_n_list(capsys):
    rc, _, err = run(capsys, "convergence", "--n-list", "10,abc")
    assert rc == 2
    assert "--n-list" in err


def test_cli_import_pulls_in_no_heavy_modules(python):
    # every command pays for what importing the CLI loads: numpy alone takes
    # ~0.15 s, concurrent.futures adds ~0.7 MB to each command's peak RSS,
    # numpy.ma ~1.5 MB, and fractions pulls in decimal
    code = (
        "import bellwigner.cli, bellwigner.core, bellwigner.analytic, bellwigner.sweep, sys; "
        "print([m for m in ('numpy', 'concurrent.futures', 'logging', 'fractions', 'decimal', "
        "'numpy.ma') if m in sys.modules])"
    )
    assert python(code).strip() == "[]"


# runs main(argv) and prints its exit code and the loaded module names last
MODULES_AFTER_MAIN = """\
import json, sys
from bellwigner.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
print(json.dumps([rc, sorted(sys.modules)]))
"""


def modules_after_main(python, *argv, cwd=None):
    rc, modules = json.loads(python(MODULES_AFTER_MAIN, *argv, cwd=cwd).splitlines()[-1])
    return rc, set(modules)


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["sweep", "--help"], 0), (["sweep", "--resolution", "2x"], 2)],
    ids=["help", "sweep-help", "usage-error"],
)
def test_argument_parsing_loads_neither_numpy_nor_the_submodules(python, argv, code):
    rc, modules = modules_after_main(python, *argv)
    assert rc == code
    assert "numpy" not in modules
    assert {m for m in modules if m.startswith("bellwigner")} == {"bellwigner", "bellwigner.cli"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        # the census and the record streams evaluate the kernel in plain floats;
        # the value types are plain classes, so no command loads dataclasses
        *(
            (
                ["sweep", "--resolution", "12", *args],
                {
                    "numpy", "dataclasses", "inspect", "bellwigner.data_inequality",
                    "bellwigner.sampler", "bellwigner.datafile",
                },
            )
            for args in ([], ["--out", "r.csv"], ["--out", "-"])
        ),
        # the reader counts sign patterns from the file's bytes, the csv fallback included
        *(
            (
                ["check-data", *args],
                {
                    "numpy", "dataclasses", "inspect", "bellwigner.analytic",
                    "bellwigner.sampler", "bellwigner.sweep",
                },
            )
            for args in (["d.csv"], ["q.csv"], ["d.csv", "--format", "csv"], ["quoted.csv"])
        ),
        # the closed forms of one setting triple are plain floats
        (["analytic"], {"numpy", "dataclasses", "bellwigner.data_inequality"}),
        (["convergence", "--n-list", "100,1000"], {"bellwigner.datafile", "bellwigner.sweep"}),
    ],
    ids=[
        "sweep", "sweep-out", "sweep-out-stdout", "check-data", "check-data-quads",
        "check-data-csv", "check-data-csv-fallback", "analytic", "convergence",
    ],
)
def test_each_command_loads_only_its_own_modules(python, tmp_path, argv, absent):
    (tmp_path / "d.csv").write_text("a,b,bp\n+1,-1,+1\n")
    (tmp_path / "q.csv").write_text("a,ap,b,bp\n+1,-1,+1,1\n")
    (tmp_path / "quoted.csv").write_text('a,b,bp\n"+1",-1,+1\n')
    rc, modules = modules_after_main(python, *argv, cwd=tmp_path)
    assert rc in (0, 1)
    assert ("numpy" in modules) is ("numpy" not in absent)
    assert not modules & absent


@pytest.mark.parametrize(
    "error",
    [DataParseError(3, "bad cell"), EmptyDataError("no trials"), LengthMismatchError("3 != 4")],
    ids=lambda e: type(e).__name__,
)
def test_data_errors_inside_a_command_exit_two(capsys, monkeypatch, error):
    def read_pattern_counts(path):
        raise error

    monkeypatch.setattr(datafile, "read_pattern_counts", read_pattern_counts)
    rc, out, err = run(capsys, "check-data", "d.csv")
    assert rc == 2
    assert out == ""
    assert err == f"error: {error}\n"


# runs the CLI as the console script does, with argv from sys.argv, and
# prints the process's thread count and its OpenBLAS setting afterwards
THREADS_AFTER_MAIN = """\
import os, sys
from bellwigner import cli
sys.argv = ["bellwigner", "convergence", "--n-list", "1000"]
rc = cli.main()
print(rc, len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
@pytest.mark.skipif(not blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.parametrize("inherited, kept", [(None, "1"), ("2", "2")], ids=["unset", "set"])
def test_the_program_asks_openblas_for_one_thread(python, monkeypatch, inherited, kept):
    # no command calls BLAS, so OpenBLAS's worker threads are pure launch
    # cost; a value already in the environment is the user's and wins
    if inherited is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", inherited)
    rc, threads, setting = python(THREADS_AFTER_MAIN).splitlines()[-1].split()
    assert rc == "0"
    assert setting == kept
    if inherited is None:
        assert threads == "1"


def test_main_with_argv_leaves_the_environment_alone(capsys, monkeypatch):
    # in-process callers pass argv; only a program run sets the OpenBLAS default
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    assert run(capsys, "analytic")[0] == 0
    assert dict(os.environ) == before

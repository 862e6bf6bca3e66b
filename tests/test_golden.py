"""Golden outputs: bytes and values that every refactor must reproduce exactly.

The hashes and values were taken from the code before the record and data
paths became columnar; the spin sweep hashes are the ones the benchmark's
oracles pin as well.
"""

import hashlib
import json
import math

import pytest

from bellwigner import AngleConfig, make_rng, matched_pairs_estimate
from bellwigner.cli import main

MC_CONFIG = AngleConfig(0.0, math.pi / 3, 2 * math.pi / 3)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "kind, mode, convention, digest",
    [
        ("bell", "paper", "spin", "cf5da3f76b576dc3b5b6aa332f8c79ee5b4ad083dc406b96335500b86f6af0e6"),
        ("wigner", "naive", "spin", "f74cd6ea5050202a6e9b92d623b312764b4f33dfbe39a1bf7bad69edc245d37a"),
        ("wigner", "naive", "optical", "417248fc57255eb0d0bc7a1d760a6747681fc4f879f48b8853b23c176829f60f"),
    ],
)
def test_sweep_records_bytes(tmp_path, capsys, kind, mode, convention, digest):
    out = tmp_path / "records.csv"
    main(["sweep", "--kind", kind, "--mode", mode, "--convention", convention,
          "--resolution", "12", "--out", str(out)])
    capsys.readouterr()
    assert sha256(out) == digest


def test_simulate_file_bytes(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--n", "1000", "--seed", "42", "--out", str(out)]) == 0
    capsys.readouterr()
    assert sha256(out) == "2f388b838b97403c239395d16b1e34731f824281092ad13ea0f484abaf375dc0"


@pytest.mark.parametrize(
    "extra, digest",
    [
        ([], "f31db8f693fef61cb0960f43130f89412dd1bf3a1f97f5d13668279756efa721"),
        (["--convention", "optical", "--format", "json"],
         "b0f0ffb25ff1987119402bb2dd9e72f653769adc9451227e5b25ff146b79767e"),
    ],
    ids=["csv", "optical-json"],
)
def test_convergence_output_bytes(tmp_path, capsys, extra, digest):
    # the sample counts fall on both sides of the 2**19-trial draw slice
    out = tmp_path / "convergence.out"
    argv = ["convergence", "--n-list", "1,524287,524288,1048577,3000001", "--seed", "1"]
    assert main(argv + extra + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert sha256(out) == digest


def test_matched_pairs_value():
    value = matched_pairs_estimate(MC_CONFIG, 10**4, make_rng(42, stream=1))
    assert value == -0.26189042745334135


def test_check_data_quad_report(tmp_path, capsys):
    path = tmp_path / "q.csv"
    path.write_text("a,ap,b,bp\n+1,+1,+1,+1\n-1,+1,-1,-1\n1,-1,1,-1\n-1,-1,+1,+1\n+1,-1,-1,+1\n")
    assert main(["check-data", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "command": "check-data",
        "path": str(path),
        "n": 5,
        "kind": "DATA_BELL_4",
        "mode": "EXACT_DATA",
        "lhs": 0.4,
        "rhs": 2.0,
        "margin": 1.6,
        "satisfied": True,
        "tolerance": 0.0,
    }

"""The scripts run end to end at small sizes and print their reports; the mutation gate's edits apply."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, line",
    [
        (
            "witness_contrast.py",
            ["--n", "2000", "--resolution", "12"],
            "violation census over 12^3 = 1728 grid points",
        ),
        ("convergence_table.py", ["--n-list", "100,1000"], "target C3 = -0.250000;"),
    ],
)
def test_script_runs_and_reports(script, args, line):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert any(text.startswith(line) for text in proc.stdout.splitlines()), proc.stdout


def test_mutation_gate_edits_apply_to_the_source():
    # the gate itself re-runs test files and stays out of the suite; here
    # each of its edits must still find its one target and name a test file
    spec = importlib.util.spec_from_file_location("mutation_gate", ROOT / "scripts" / "mutation_gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    assert gate.MUTANTS
    for mutant in gate.MUTANTS:
        assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
        assert (ROOT / mutant.tests).is_file(), mutant.name

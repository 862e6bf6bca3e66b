"""The experiment scripts run end to end at small sizes and print their reports."""

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

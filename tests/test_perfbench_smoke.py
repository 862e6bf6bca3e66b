"""The benchmark's own smoke run, so a library change cannot break it silently.

`perfbench/run.py --smoke` runs every workload at tiny sizes through the CLI
and in-process, checking each output against oracles that do not use the
package: pinned census counts, pinned sweep-record sha256s, closed-form
margins and exact integer sums for data files.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke ok" in proc.stdout

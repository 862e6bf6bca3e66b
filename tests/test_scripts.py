"""The scripts run end to end at small sizes and print their reports; the mutation gate's edits apply."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import blas_is_openblas

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


# runs a script as `python SCRIPT ARGS` does, then prints the process's
# thread count and its OpenBLAS setting
THREADS_AFTER_SCRIPT = """\
import os, runpy, sys
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
@pytest.mark.skipif(not blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.parametrize(
    "script, args",
    [
        ("witness_contrast.py", ["--n", "2000", "--resolution", "12"]),
        ("convergence_table.py", ["--n-list", "100,1000"]),
    ],
    ids=["witness_contrast.py", "convergence_table.py"],
)
def test_scripts_ask_openblas_for_one_thread(python, monkeypatch, script, args):
    # neither script calls BLAS, so OpenBLAS's worker threads are launch cost only
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    out = python(THREADS_AFTER_SCRIPT, str(ROOT / "scripts" / script), *args)
    assert out.splitlines()[-1].split() == ["1", "1"]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutation_gate_edits_apply_to_the_source():
    # the gate itself re-runs test files and stays out of the suite; here
    # each of its edits must still find its one target and name a test file
    gate = load_script("mutation_gate")
    assert gate.MUTANTS
    for mutant in gate.MUTANTS:
        assert (ROOT / mutant.path).read_text().count(mutant.old) == 1, mutant.name
        assert mutant.new != mutant.old, mutant.name
        assert (ROOT / mutant.tests).is_file(), mutant.name


@pytest.mark.parametrize(
    "change, lower, word",
    [(1.26, "0/10", "worse"), (1.2, "0/10", "held"), (0.85, "9/10", "gain"),
     (0.95, "10/10", "held"), (0.85, "8/10", "held")],
)
def test_bench_pairs_verdict(change, lower, word):
    # parent median 1.0 s with IQR 0.1 s, bound 25%: worse past the bound;
    # a gain needs >= 9/10 pairs lower and the medians apart by more than the IQR
    entry = {"parent_median": 1.0, "parent_iqr": 0.1, "change_median": change, "change_lower": lower}
    assert load_script("bench_pairs").verdict(entry, 0.25) == word

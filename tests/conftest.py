import math
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest

from bellwigner import AngleConfig, AngleConvention, DataSetTriple

TAU = 2 * math.pi

angles = st.floats(min_value=0.0, max_value=TAU, exclude_max=True, allow_nan=False)
conventions = st.sampled_from(AngleConvention)
configs = st.builds(AngleConfig, a=angles, b=angles, bp=angles, convention=conventions)

outcomes = st.sampled_from((1, -1))
trial_rows = st.tuples(outcomes, outcomes, outcomes)
quad_rows = st.tuples(outcomes, outcomes, outcomes, outcomes)
datasets = st.lists(trial_rows, min_size=1, max_size=64).map(DataSetTriple.from_trials)


SRC = str(Path(__file__).resolve().parent.parent / "src")


def blas_is_openblas() -> bool:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.fixture
def python():
    """Run code in a fresh interpreter that imports the package from src/; return its stdout.

    The child inherits ``os.environ`` as it is at the call, so a test can
    set its environment with ``monkeypatch.setenv``.
    """

    def run(code, *args, cwd=None):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code, *args], env=env, cwd=cwd, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run

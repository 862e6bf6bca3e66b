#!/usr/bin/env python3
"""Mutation gate for the fast paths: every listed mutant must fail its tests.

Each mutant is one source edit (a file, a text that occurs in it exactly
once, and its replacement) and the test file that must kill it. The gate
copies `src/`, `tests/` and `pyproject.toml` into a temporary directory,
applies one edit at a time, runs that test file there with pytest (`-x`),
and restores the file. A mutant dies when pytest reports failed tests; it
survives when they all pass. The gate prints one line per mutant and exits
0 only if every mutant died.

    python scripts/mutation_gate.py

It re-runs whole test files, so it takes minutes and is not part of the
test suite; `tests/test_scripts.py` checks only that every edit still
applies to the source.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SWEEP = "src/bellwigner/sweep.py"
ANALYTIC = "src/bellwigner/analytic.py"
DATAFILE = "src/bellwigner/datafile.py"
DATA_INEQUALITY = "src/bellwigner/data_inequality.py"
CORE = "src/bellwigner/core.py"
SAMPLER = "src/bellwigner/sampler.py"
PHILOX = "src/bellwigner/philox.py"
CLI = "src/bellwigner/cli.py"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in `path`
    new: str
    tests: str  # the test file that must fail


MUTANTS = (
    # the census minimum: candidate rows and points of grid_sweep
    Mutant(
        "census allowance delta = 0",
        SWEEP,
        "_ALLOWANCE = 1e-13",
        "_ALLOWANCE = 0.0",
        "tests/test_sweep.py",
    ),
    Mutant(
        "NAIVE Bell columns dropped",
        SWEEP,
        "            visit((i, j) for j in lines)\n"
        "            if bell:\n"
        "                visit((j, i) for j in lines)\n",
        "            visit((i, j) for j in lines)\n",
        "tests/test_sweep.py",
    ),
    Mutant(
        "PAPER Bell transposes dropped",
        SWEEP,
        "            visit((i, j) for j in prefix)\n"
        "            if bell:\n"
        "                visit((j, i) for j in prefix)\n",
        "            visit((i, j) for j in prefix)\n",
        "tests/test_sweep.py",
    ),
    # the record streams: per-plane terms, per-row NAIVE terms, the combiners
    Mutant(
        "records from plane 0, rolled",
        SWEEP,
        "terms = [term(math, k, x - a) for x in angles]",
        "terms = [term(math, k, angles[(j - ia) % resolution]) for j in range(resolution)]",
        "tests/test_sweep.py",
    ),
    Mutant(
        "b - b' as (b - a) - (b' - a)",
        SWEEP,
        "third(math, k, b - bp) for bp in angles",
        "third(math, k, (b - a) - (bp - a)) for bp in angles",
        "tests/test_sweep.py",
    ),
    # the record writer's text cache: 0.0 == -0.0, so zeros stay out of it
    Mutant(
        "_float_text caches zeros",
        SWEEP,
        "        if x:\n            if len(cache) >= limit:",
        "        if True:\n            if len(cache) >= limit:",
        "tests/test_sweep.py",
    ),
    # the one kind-and-mode table that the census minimum and the streams share
    Mutant(
        "Wigner third step as the Bell term",
        ANALYTIC,
        "_sin2_cos2, _wigner_third, _wigner_sides",
        "_sin2_cos2, _bell_term, _wigner_sides",
        "tests/test_sweep.py",
    ),
    # halving is exact, so 0.5 * (c2b * s2bp + s2b * c2bp) would be the
    # same floats; sin^2 as 1 - cos^2 is the same rhs rounded otherwise
    Mutant(
        "Wigner PAPER rhs with sin^2 as 1 - cos^2",
        ANALYTIC,
        "0.5 * c2b * s2bp + 0.5 * s2b * c2bp",
        "0.5 * c2b * (1.0 - c2bp) + 0.5 * s2b * c2bp",
        "tests/test_golden.py",
    ),
    # check-data's fast path: the flag-plane grammar and the canonical rows
    Mutant(
        "sign-before-1 check dropped",
        DATAFILE,
        "    if after_sign & c != after_sign:\n"
        "        return None  # \"+ 1\" is one bad cell, not +1\n",
        "",
        "tests/test_datafile.py",
    ),
    Mutant(
        "MINUS << 8 as << 0",
        DATAFILE,
        "((c >> 6 & lsb) << 8)",
        "((c >> 6 & lsb) << 0)",
        "tests/test_datafile.py",
    ),
    Mutant(
        "canonical chunk[1::3] check dropped",
        DATAFILE,
        "        and chunk[1::3] == b\"1\" * (rows * width)\n",
        "",
        "tests/test_datafile.py",
    ),
    # the one sign-pattern fold of PatternCounts and check-data
    Mutant(
        "fold bit-plane sides swapped",
        DATA_INEQUALITY,
        "sides = (minus, minus ^ mask)",
        "sides = (minus ^ mask, minus)",
        "tests/test_data_inequality.py",
    ),
    # an exact margin of 0 is satisfied: the identity's equality cases
    Mutant(
        "_exact_report satisfied on > 0",
        DATA_INEQUALITY,
        "satisfied=margin_scaled >= 0,",
        "satisfied=margin_scaled > 0,",
        "tests/test_data_inequality.py",
    ),
    # the checked angle differences: the kernels take sin and cos of twice one
    Mutant(
        "angle difference checked, not twice it",
        CORE,
        "if not math.isfinite(2.0 * d):",
        "if not math.isfinite(d):",
        "tests/test_core.py",
    ),
    # the value types: equality within one class, no assignment
    Mutant(
        "value __eq__ without the same-class check",
        CORE,
        "    if other.__class__ is not self.__class__:\n        return NotImplemented\n",
        "",
        "tests/test_core.py",
    ),
    Mutant(
        "value __setattr__ not overridden",
        CORE,
        "    cls.__setattr__ = _frozen_setattr\n",
        "",
        "tests/test_core.py",
    ),
    # the one list of sign patterns, which analytic's plain-float model uses too;
    # q is symmetric under flipping every sign, so reversing the list is no mutant
    Mutant(
        "sign_patterns with the columns reversed",
        CORE,
        "return list(itertools.product((-1, 1), repeat=width))",
        "return [p[::-1] for p in itertools.product((-1, 1), repeat=width)]",
        "tests/test_analytic.py",
    ),
    # PatternCounts.from_columns refuses other column counts before it folds
    Mutant(
        "from_columns column-count check dropped",
        DATA_INEQUALITY,
        "        if len(columns) not in (3, 4):\n"
        "            raise ValueError(f\"expected 3 or 4 columns, got {len(columns)}\")\n",
        "",
        "tests/test_data_inequality.py",
    ),
    # the sampler's conditional column: both compares, then a picks one per trial
    Mutant(
        "_conditional without alt &= a",
        SAMPLER,
        "    alt &= a\n",
        "",
        "tests/test_sampler.py",
    ),
    Mutant(
        "_conditional limits swapped",
        SAMPLER,
        "    _below(draws, limits[0], out)\n    _below(draws, limits[1], alt)\n",
        "    _below(draws, limits[1], out)\n    _below(draws, limits[0], alt)\n",
        "tests/test_sampler.py",
    ),
    Mutant(
        "_conditional out ^= alt as out |= alt",
        SAMPLER,
        "    out ^= alt\n",
        "    out |= alt\n",
        "tests/test_sampler.py",
    ),
    # the driver: one Philox per column, jumped once; rng left after every column
    Mutant(
        "column generators jumped by slice size, not n",
        SAMPLER,
        "_philox_at(np.random.Philox(), state, j * n)",
        "_philox_at(np.random.Philox(), state, j * size)",
        "tests/test_sampler.py",
    ),
    Mutant(
        "rng left after one column",
        SAMPLER,
        "_leave_at(bg, state, width * n)",
        "_leave_at(bg, state, n)",
        "tests/test_sampler.py",
    ),
    # the raw limits: random() < p exactly when raw < ceil(p * 2**53) << 11
    Mutant(
        "_draw_limit with floor for ceil",
        PHILOX,
        "return math.ceil(p * 2**53) << 11",
        "return math.floor(p * 2**53) << 11",
        "tests/test_sampler.py",
    ),
    Mutant(
        "_leave_at drops the pending 32-bit half",
        SAMPLER,
        '    end.update(has_uint32=state["has_uint32"], uinteger=state["uinteger"])\n',
        "",
        "tests/test_sampler.py",
    ),
    # the one reduction of sampled slices: simulate and convergence report its sums
    Mutant(
        "stream_dataset third pair (a, bp)",
        SAMPLER,
        "((a, b), (a, bp), (b, bp))",
        "((a, b), (a, bp), (a, bp))",
        "tests/test_sampler.py",
    ),
    # the sampling model: P(+1 | a = -1) is cos^2, P(+1 | a = +1) sin^2
    Mutant(
        "_conditionals without [::-1]",
        PHILOX,
        "sin2_cos2(k, s - cfg.a)[::-1]",
        "sin2_cos2(k, s - cfg.a)",
        "tests/test_sampler.py",
    ),
    # the standard-library Philox: numpy's key, counter and rounds
    Mutant(
        "run entropy not padded to the pool size",
        PHILOX,
        "    entropy += [0] * (_POOL_SIZE - len(entropy))\n",
        "",
        "tests/test_philox.py",
    ),
    Mutant(
        "first Philox block at counter 0",
        PHILOX,
        'array("Q", range(first + 1, first + count + 1))',
        'array("Q", range(first, first + count))',
        "tests/test_philox.py",
    ),
    Mutant(
        "one round-key bump skipped",
        PHILOX,
        "        if r:\n",
        "        if r > 1:\n",
        "tests/test_philox.py",
    ),
    # the CLI run as a program asks OpenBLAS for one thread
    Mutant(
        "OPENBLAS_NUM_THREADS default dropped",
        CLI,
        '        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n',
        "        pass\n",
        "tests/test_cli.py",
    ),
)


def run_mutant(copy: Path, mutant: Mutant) -> int:
    """Pytest's exit code for `mutant.tests` with the edit applied in `copy`."""
    target = copy / mutant.path
    original = target.read_text()
    if original.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: the edited text must occur once in {mutant.path}")
    target.write_text(original.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", mutant.tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
    finally:
        target.write_text(original)


def main() -> int:
    not_killed = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        for mutant in MUTANTS:
            code = run_mutant(copy, mutant)
            # pytest exits 1 when tests failed; any other code is no kill
            verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"ERROR (exit {code})"
            not_killed += code != 1
            print(f"{verdict:<16} {mutant.name}  [{mutant.tests}]", flush=True)
    print(f"{len(MUTANTS) - not_killed} of {len(MUTANTS)} mutants killed")
    return 1 if not_killed else 0


if __name__ == "__main__":
    sys.exit(main())

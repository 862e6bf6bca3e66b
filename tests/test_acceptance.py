"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. Every tolerance and runtime bound is pinned here, not tuned.
"""

import contextlib
import io
import itertools
import math
import time

import numpy as np

from bellwigner import (
    AngleConfig,
    AngleConvention,
    InequalityKind,
    Mode,
    DataSetQuad,
    DataSetTriple,
    bell_correlation,
    bell_margin,
    data_bell_margin_3,
    data_bell_margin_4,
    grid_angles,
    grid_sweep,
    joint_probability,
    make_rng,
    matched_pairs_estimate,
    sample_dataset,
    third_correlation,
    third_pair_probabilities,
    violation_census,
    wigner_margin,
)
from bellwigner.analytic import pattern_probabilities, wigner_margin_parts
from bellwigner.cli import main as cli_main

SPIN = AngleConvention.SPIN
WITNESS = AngleConfig(0.0, 2 * math.pi / 3, math.pi / 3)
MC_CONFIG = AngleConfig(0.0, math.pi / 3, 2 * math.pi / 3)
WITNESS_ARG = "0,2.0943951023931953,1.0471975511965976"


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_data_identity_exhaustive_and_random():
    start = time.perf_counter()
    all_triples = list(itertools.product((1, -1), repeat=3))
    checked = 0
    for n in range(1, 5):
        for rows in itertools.product(all_triples, repeat=n):
            arr = np.array(rows, dtype=np.int8)
            report = data_bell_margin_3(DataSetTriple(arr[:, 0], arr[:, 1], arr[:, 2]))
            assert report.tolerance == 0.0
            assert report.margin >= 0.0
            assert report.satisfied
            checked += 1
    assert checked == 8 + 64 + 512 + 4096

    rng = make_rng(20250810)
    random_trials = 0
    for _ in range(100):
        cols = rng.integers(0, 2, size=(1000, 3), dtype=np.int8) * 2 - 1
        report = data_bell_margin_3(DataSetTriple(cols[:, 0], cols[:, 1], cols[:, 2]))
        assert report.margin >= 0.0
        assert report.satisfied
        random_trials += 1000
    assert random_trials == 10**5

    elapsed = time.perf_counter() - start
    _report(
        1,
        elapsed < 5.0,
        f"{checked} exhaustive + {random_trials} random triples, "
        f"zero violations, {elapsed:.2f}s",
    )


def test_criterion_2_four_set_identity_exhaustive():
    start = time.perf_counter()
    all_quads = list(itertools.product((1, -1), repeat=4))
    checked = 0
    for n in range(1, 4):
        for quads in itertools.product(all_quads, repeat=n):
            report = data_bell_margin_4(DataSetQuad.from_trials(quads))
            assert report.lhs <= 2.0
            assert report.margin >= 0.0
            assert report.satisfied
            checked += 1
    assert checked == 16 + 256 + 4096
    elapsed = time.perf_counter() - start
    _report(2, elapsed < 5.0, f"{checked} quad sets, |mean bracket| <= 2, {elapsed:.2f}s")


def test_criterion_3_third_correlation_analytic_and_monte_carlo():
    start = time.perf_counter()
    analytic = third_correlation(MC_CONFIG)
    assert abs(analytic - (-0.25)) <= 1e-12

    data = sample_dataset(MC_CONFIG, 10**6, make_rng(42))
    mc = int((data.b * data.bp).sum(dtype=np.int64)) / 10**6
    assert abs(mc - (-0.25)) <= 0.005

    matched = matched_pairs_estimate(MC_CONFIG, 10**6, make_rng(42, stream=1))
    assert abs(matched - (-0.25)) <= 0.01

    elapsed = time.perf_counter() - start
    _report(
        3,
        elapsed < 10.0,
        f"analytic {analytic:+.6f}, sampled {mc:+.6f}, matched-pairs "
        f"{matched:+.6f}, {elapsed:.2f}s",
    )


def test_criterion_4_marginals_split_from_naive_form():
    data = sample_dataset(MC_CONFIG, 10**6, make_rng(4242))
    c_ab = int((data.a * data.b).sum(dtype=np.int64)) / 10**6
    assert abs(c_ab - (-0.5)) <= 0.005

    c_bbp = int((data.b * data.bp).sum(dtype=np.int64)) / 10**6
    se = math.sqrt((1 - c_bbp**2) / 10**6)
    assert abs(c_bbp - (-0.25)) <= 0.005
    distance = abs(c_bbp - (-0.5))
    assert distance > 25 * se
    _report(
        4,
        True,
        f"C(a,b)={c_ab:+.4f}; C(b,b')={c_bbp:+.4f} sits "
        f"{distance / se:.0f} standard errors away from the naive -0.5",
    )


def test_criterion_5_wigner_slack_identity_on_grid():
    start = time.perf_counter()
    angles = grid_angles(60)
    b, bp = np.meshgrid(angles, angles, indexing="ij")
    max_dev = 0.0
    min_margin = np.inf
    for a in angles:
        lhs, rhs = wigner_margin_parts(a, b, bp, 0.5, Mode.PAPER)
        q = pattern_probabilities(a, b, bp, 0.5)
        slack = 2 * (q[2] + q[5])
        max_dev = max(max_dev, float(np.abs(2.0 * (rhs - lhs) - slack).max()))
        min_margin = min(min_margin, float((rhs - lhs).min()))
    assert max_dev < 1e-12
    assert min_margin >= -1e-12
    elapsed = time.perf_counter() - start
    _report(
        5,
        elapsed < 30.0,
        f"60^3 grid: |2*margin - slack| <= {max_dev:.2e}, "
        f"min margin {min_margin:+.2e}, {elapsed:.2f}s",
    )


def test_criterion_6_bell_inequality_on_grid():
    result = grid_sweep(60, SPIN, InequalityKind.CORR_BELL, Mode.PAPER)
    _report(
        6,
        result.min_margin >= -1e-12,
        f"conditional-mode Bell min margin over 60^3 grid: {result.min_margin:+.2e}",
    )


def test_criterion_7_naive_violations():
    wigner = wigner_margin(WITNESS, Mode.NAIVE)
    assert abs(wigner.margin - (-0.125)) <= 1e-12
    assert not wigner.satisfied
    bell = bell_margin(WITNESS, Mode.NAIVE)
    assert abs(bell.margin - (-0.5)) <= 1e-12
    assert not bell.satisfied

    census = violation_census(60, SPIN)
    assert census[(InequalityKind.CORR_BELL, Mode.PAPER)] == 0
    assert census[(InequalityKind.WIGNER, Mode.PAPER)] == 0
    assert census[(InequalityKind.CORR_BELL, Mode.NAIVE)] > 0
    assert census[(InequalityKind.WIGNER, Mode.NAIVE)] > 0
    _report(
        7,
        True,
        f"witness margins {wigner.margin:+.3f}/{bell.margin:+.3f}; census "
        f"naive bell={census[(InequalityKind.CORR_BELL, Mode.NAIVE)]}, "
        f"naive wigner={census[(InequalityKind.WIGNER, Mode.NAIVE)]}, paper 0",
    )


def test_criterion_8_analytic_cross_checks():
    rng = make_rng(20250810, stream=8)
    worst = 0.0
    for i in range(10**5):
        a, b, bp = rng.uniform(0.0, 2 * math.pi, 3)
        convention = SPIN if i % 2 == 0 else AngleConvention.OPTICAL
        cfg = AngleConfig(a, b, bp, convention)

        jp = joint_probability(a, b, convention)
        dev = abs(bell_correlation(a, b, convention) - (4 * jp.pp - 1))
        ppp, ppm = third_pair_probabilities(cfg)
        dev = max(dev, abs(third_correlation(cfg) - (2 * ppp - 2 * ppm)))
        dev = max(dev, abs(ppp + ppm - 0.5))
        worst = max(worst, dev)
        assert dev <= 1e-12
    _report(8, True, f"10^5 random configs, worst identity deviation {worst:.2e}")


def test_criterion_9_reproducibility(tmp_path):
    p1 = tmp_path / "run1.csv"
    p2 = tmp_path / "run2.csv"
    argv = ["simulate", "--angles", WITNESS_ARG, "--n", "20000", "--seed", "42"]
    with contextlib.redirect_stdout(io.StringIO()):
        rc1 = cli_main(argv + ["--out", str(p1)])
        rc2 = cli_main(argv + ["--out", str(p2)])
    assert rc1 == rc2 == 0
    identical = p1.read_bytes() == p2.read_bytes()
    assert identical

    # the one-plane census against every point of the full R^3 grid
    sweep = grid_sweep(24, SPIN, InequalityKind.WIGNER, Mode.NAIVE)
    angles = grid_angles(24)
    a, b, bp = np.meshgrid(angles, angles, angles, indexing="ij")
    lhs, rhs = wigner_margin_parts(a, b, bp, 0.5, Mode.NAIVE)
    margin = rhs - lhs
    same_sweep = (
        sweep.violations == int((margin < -1e-9).sum())
        and abs(sweep.min_margin - float(margin.min())) <= 1e-12
    )
    assert same_sweep
    _report(
        9,
        identical and same_sweep,
        "seed-42 simulate files byte-identical; R=24 sweep equals the brute-force R^3 census",
    )

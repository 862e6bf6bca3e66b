"""Monte Carlo sampling of entangled-pair outcomes.

Sampling model for a triple (a, b, b'): the A-side outcome is a fair +-1;
both B-side outcomes are then drawn conditionally independently given it,
each from its conditional +1 probability. That reproduces the entangled
joint distribution for the (a,b) and (a,b') pairs while the (b,b') pair
converges to the conditional third correlation, not to the unconditional
-cos form.

Randomness comes from numpy's Philox bit generator: counter-based, keyed by
a 64-bit seed, with independent substreams selected by (seed, stream) via
``SeedSequence(seed, spawn_key=(stream,))``. Identical (seed, stream) pairs
reproduce identical outputs bit for bit for a fixed numpy version.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .analytic import half_angle_factor, joint_probability, sin2_cos2, third_correlation
from .core import AngleConfig, AngleConvention, ConvergenceRecord, DataSetTriple
from .data_inequality import cross_correlation, data_bell_margin_3


class InsufficientMatchesError(RuntimeError):
    """An a-outcome group needed for matched-pairs pairing came up empty."""


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for the given (seed, stream) substream."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if stream < 0:
        raise ValueError("stream must be a non-negative integer")
    ss = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def sample_pair(
    x: float,
    y: float,
    convention: AngleConvention,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Draw one entangled-pair outcome pair from the four-cell distribution."""
    jp = joint_probability(x, y, convention)
    cells = ((1, 1), (1, -1), (-1, 1), (-1, -1))
    idx = rng.choice(4, p=(jp.pp, jp.pm, jp.mp, jp.mm))
    return cells[idx]


# Trials are drawn in slices of this many, so no full-length float64 array
# is built; Philox random(n) equals its slices' random(m) calls in order.
_DRAW_SLICE = 1 << 20


def _plus_outcomes(n: int, p_plus, rng: np.random.Generator) -> np.ndarray:
    """n int8 outcomes; those in slice s are +1 with probability p_plus(s)."""
    out = np.empty(n, dtype=np.int8)
    for lo in range(0, n, _DRAW_SLICE):
        s = slice(lo, min(n, lo + _DRAW_SLICE))
        out[s] = np.where(rng.random(s.stop - lo) < p_plus(s), np.int8(1), np.int8(-1))
    return out


def _fair_outcomes(n: int, rng: np.random.Generator) -> np.ndarray:
    return _plus_outcomes(n, lambda s: 0.5, rng)


def _conditional_outcomes(
    a: np.ndarray, d: float, k: float, rng: np.random.Generator
) -> np.ndarray:
    """Outcomes at a setting d away from a, each drawn given its a-side outcome."""
    s2, c2 = sin2_cos2(k, d)
    return _plus_outcomes(a.shape[0], lambda s: np.where(a[s] == 1, s2, c2), rng)


def sample_dataset(cfg: AngleConfig, n: int, rng: np.random.Generator) -> DataSetTriple:
    """Draw n trials: fair +-1 at a, then b and b' given it; draw order a, b, b'."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = half_angle_factor(cfg.convention)
    a = _fair_outcomes(n, rng)
    b = _conditional_outcomes(a, cfg.b - cfg.a, k, rng)
    bp = _conditional_outcomes(a, cfg.bp - cfg.a, k, rng)
    return DataSetTriple(a, b, bp)


def matched_pairs_estimate(
    cfg: AngleConfig, n_per_arm: int, rng: np.random.Generator
) -> float:
    """Two-arm estimate of the third correlation, drug-trial style.

    Arm 1 measures pairs at (a, b), arm 2 at (a, b'). Trials are grouped by
    the a-side outcome and paired uniformly at random within matching
    groups; surplus trials of the larger group are discarded (reusing them
    would correlate pairs and bias the estimate). Returns the empirical
    correlation of the paired (b, b') outcomes.
    """
    if n_per_arm < 1:
        raise ValueError("n_per_arm must be >= 1")
    k = half_angle_factor(cfg.convention)
    a1 = _fair_outcomes(n_per_arm, rng)
    b1 = _conditional_outcomes(a1, cfg.b - cfg.a, k, rng)
    a2 = _fair_outcomes(n_per_arm, rng)
    b2 = _conditional_outcomes(a2, cfg.bp - cfg.a, k, rng)
    total = 0
    pairs = 0
    for group in (1, -1):
        i1 = np.flatnonzero(a1 == group)
        i2 = np.flatnonzero(a2 == group)
        if i1.size == 0 or i2.size == 0:
            raise InsufficientMatchesError(
                f"a-outcome group {group:+d} is empty in one arm "
                f"(arm sizes {i1.size} and {i2.size})"
            )
        m = min(i1.size, i2.size)
        sel1 = rng.permutation(i1)[:m]
        sel2 = rng.permutation(i2)[:m]
        total += int((b1[sel1] * b2[sel2]).sum(dtype=np.int64))
        pairs += m
    return total / pairs


def convergence_study(
    cfg: AngleConfig, n_list: Sequence[int], seed: int
) -> list[ConvergenceRecord]:
    """Sample at each N and record the (b,b') estimate against its target.

    Each N gets its own substream (seed, index). Every sampled data set is
    run through the exact data inequality, which it must satisfy; a failure
    would mean the sampler produced something other than +-1 data.
    """
    if len(n_list) == 0:
        raise ValueError("n_list must be nonempty")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly ascending, got {list(n_list)}")
    target = third_correlation(cfg)
    records = []
    for stream, n in enumerate(n_list):
        rng = make_rng(seed, stream=stream)
        data = sample_dataset(cfg, n, rng)
        report = data_bell_margin_3(data)
        if not report.satisfied:
            raise RuntimeError("sampled data set failed the exact data identity")
        estimate = cross_correlation(data.b, data.bp).value
        records.append(ConvergenceRecord.from_estimate(n, estimate, target, seed))
    return records

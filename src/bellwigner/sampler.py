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

One driver draws every sample: trials come in slices, on one thread per
usable CPU, and each slice's a column and conditional columns are drawn
together and handed to a visitor, which stores them as int8 columns
(`sample_dataset`, both matched-pairs arms) or folds them into the exact
sums (the convergence study, whose memory therefore does not grow with the
sample count). Each column of a slice comes from a copy of the generator's
Philox state jumped ahead by counter to the slice's first draw of that
column, so the outputs are bit-identical to serial drawing for any slice
size and CPU count. A generator that is not Philox cannot jump ahead: it
draws all trials as one slice, serially, in memory that grows with the
sample count.
"""

from __future__ import annotations

import os
import threading
from typing import Sequence

import numpy as np

from .analytic import half_angle_factor, sin2_cos2, third_correlation
from .core import AngleConfig, ConvergenceRecord, DataSetTriple
from .data_inequality import ExactCorrelation, _margin_3_from_sums


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


# Trials are drawn in slices of this many, so no full-length float64 array
# is built. With several threads, each holds one slice of uniforms at a time.
_DRAW_SLICE = 1 << 19


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Threads that fill draw slices; one means every draw is made serially.
_THREADS = _usable_cpus()


def _philox_at(state: dict, skip: int) -> np.random.Philox:
    """A Philox generator at ``state`` moved on by ``skip`` 64-bit draws.

    ``advance(q)`` moves the counter by q blocks of four draws and empties
    the buffer, so the draws left in the buffer are taken first and the
    remainder past the last whole block is drawn.
    """
    bg = np.random.Philox()
    bg.state = state
    head = min(skip, 4 - state["buffer_pos"])
    bg.random_raw(head)
    blocks, rest = divmod(skip - head, 4)
    if blocks:
        bg.advance(blocks)
    bg.random_raw(rest)
    return bg


def _run_threads(work, count: int) -> None:
    """Run ``work(t)`` for t in range(count) on threads; re-raise the first error.

    A count of one runs on the calling thread.
    """
    if count == 1:
        work(0)
        return
    errors = []

    def guarded(t: int) -> None:
        try:
            work(t)
        except Exception as exc:  # handed to the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(t,), daemon=True) for t in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _leave_at(bg: np.random.Philox, state: dict, skip: int) -> None:
    """Set ``bg`` to ``state`` moved on by ``skip`` draws, as serial drawing would.

    The pending 32-bit half of a draw is kept, so a later 32-bit draw takes
    it just as it would have without the jump.
    """
    end = _philox_at(state, skip).state
    end.update(has_uint32=state["has_uint32"], uinteger=state["uinteger"])
    bg.state = end


def _conditionals(cfg: AngleConfig, *settings: float) -> list[tuple[float, float]]:
    """(P(+1 | a = -1), P(+1 | a = +1)) at each B-side setting: (cos^2, sin^2)."""
    k = half_angle_factor(cfg.convention)
    return [sin2_cos2(k, s - cfg.a)[::-1] for s in settings]


def _sample_slices(n: int, rng: np.random.Generator, conditionals, visit) -> list:
    """Draw n trials in slices and return ``visit(lo, columns)`` of each, in slice order.

    Per trial, a is +1 with probability 1/2 and column j of ``conditionals``
    is +1 with probability ``conditionals[j][a > 0]``. ``columns`` holds the
    slice's bool columns (True = +1): a, then one per conditional. Trial i
    of column j is set by the i-th uniform of column j in serial drawing
    order, a's n draws first, so the outcomes do not depend on how the
    trials are sliced.

    A Philox ``rng`` has its slices of ``_DRAW_SLICE`` trials drawn on
    threads, each column from a copy of the state jumped ahead to that
    column's first draw of the slice; ``rng`` is then left where serial
    drawing would leave it. Any other generator cannot jump ahead, so it
    draws all n trials as one slice, column after column: the same draws,
    in O(n) memory.
    """
    bg = rng.bit_generator
    state = bg.state if isinstance(bg, np.random.Philox) else None
    size = n if state is None else min(n, _DRAW_SLICE)
    starts = range(0, n, size)
    count = min(_THREADS, len(starts))
    width = 1 + len(conditionals)
    results = [None] * len(starts)

    def work(t: int) -> None:
        u = np.empty(size)
        cols = np.empty((width, size), dtype=np.bool_)
        for i in range(t, len(starts), count):
            lo = starts[i]
            m = min(n - lo, size)
            um, slice_cols = u[:m], cols[:, :m]
            a = slice_cols[0]
            for j, col in enumerate(slice_cols):
                if state is None:
                    rng.random(out=um)
                else:
                    np.random.Generator(_philox_at(state, j * n + lo)).random(out=um)
                if j == 0:
                    np.less(um, 0.5, out=col)
                else:
                    p_a_minus, p_a_plus = conditionals[j - 1]
                    np.less(um, p_a_minus, out=col)
                    np.less(um, p_a_plus, out=col, where=a)
            results[i] = visit(lo, slice_cols)

    _run_threads(work, count)
    if state is not None:
        _leave_at(bg, state, width * n)
    return results


def _sample_columns(n: int, rng: np.random.Generator, conditionals) -> np.ndarray:
    """The sampled +-1 outcomes as a read-only int8 array, one row per column."""
    out = np.empty((1 + len(conditionals), n), dtype=np.int8)

    def store(lo: int, columns: np.ndarray) -> None:
        o = out[:, lo : lo + columns.shape[1]]
        plus = columns.view(np.int8)
        np.add(plus, plus, out=o)
        o -= 1

    _sample_slices(n, rng, conditionals, store)
    out.setflags(write=False)
    return out


def sample_dataset(cfg: AngleConfig, n: int, rng: np.random.Generator) -> DataSetTriple:
    """Draw n trials: fair +-1 at a, then b and b' given it; draw order a, b, b'."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return DataSetTriple(*_sample_columns(n, rng, _conditionals(cfg, cfg.b, cfg.bp)))


def _sample_sums(cfg: AngleConfig, n: int, rng: np.random.Generator) -> tuple[int, int, int]:
    """(sum ab, sum ab', sum bb') of ``sample_dataset(cfg, n, rng)``, without its columns.

    Each slice is folded into its sums as soon as it is drawn, so a Philox
    ``rng`` holds one slice of buffers per thread at any n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")

    def fold(lo: int, columns: np.ndarray) -> tuple[int, int, int]:
        a, b, bp = columns
        m = a.shape[0]
        # a product of two +-1 outcomes is +1 where they agree
        return tuple(2 * int(np.count_nonzero(x == y)) - m for x, y in ((a, b), (a, bp), (b, bp)))

    slices = _sample_slices(n, rng, _conditionals(cfg, cfg.b, cfg.bp), fold)
    return tuple(sum(column) for column in zip(*slices))


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
    a1, b1 = _sample_columns(n_per_arm, rng, _conditionals(cfg, cfg.b))
    a2, b2 = _sample_columns(n_per_arm, rng, _conditionals(cfg, cfg.bp))
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
        sab, sabp, sbbp = _sample_sums(cfg, n, make_rng(seed, stream=stream))
        if not _margin_3_from_sums(sab, sabp, sbbp, n).satisfied:
            raise RuntimeError("sampled data set failed the exact data identity")
        estimate = ExactCorrelation(sbbp, n).value
        records.append(ConvergenceRecord.from_estimate(n, estimate, target, seed))
    return records

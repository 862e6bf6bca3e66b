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

Draws are filled in slices, on one thread per usable CPU: each slice comes
from a copy of the generator's Philox state jumped ahead by counter to the
slice's first draw, so the outputs are bit-identical to serial drawing for
any CPU count. A generator that is not Philox draws serially.

The convergence study needs only the exact sums of each sample, so it
keeps no columns: its threads jump to each slice's draws in all three
columns, fold the slice into the sums and reuse their buffers, so its
memory does not grow with the sample count.
"""

from __future__ import annotations

import os
import threading
from typing import Sequence

import numpy as np

from .analytic import half_angle_factor, sin2_cos2, third_correlation
from .core import AngleConfig, ConvergenceRecord, DataSetTriple
from .data_inequality import ExactCorrelation, PatternCounts, _margin_3_from_sums, _triple_sums


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


def _random_at(state: dict, skip: int):
    """``random`` of a Generator at Philox ``state`` moved on by ``skip`` draws."""
    return np.random.Generator(_philox_at(state, skip)).random


def _leave_at(bg: np.random.Philox, state: dict, skip: int) -> None:
    """Set ``bg`` to ``state`` moved on by ``skip`` draws, as serial drawing would.

    The pending 32-bit half of a draw is kept, so a later 32-bit draw takes
    it just as it would have without the jump.
    """
    end = _philox_at(state, skip).state
    end.update(has_uint32=state["has_uint32"], uinteger=state["uinteger"])
    bg.state = end


def _fill_plus(
    draw,
    u: np.ndarray,
    plus: np.ndarray,
    p: float,
    a_plus: np.ndarray | None = None,
    p_a_plus: float = 0.0,
) -> None:
    """Draw ``u`` and set ``plus`` to u < p, or u < p_a_plus where ``a_plus``.

    The one per-slice sampling step: every sampled outcome is +1 exactly
    where this sets ``plus``.
    """
    draw(out=u)
    np.less(u, p, out=plus)
    if a_plus is not None:
        np.less(u, p_a_plus, out=plus, where=a_plus)


def _plus_outcomes(
    n: int,
    rng: np.random.Generator,
    p: float,
    a: np.ndarray | None = None,
    p_a_plus: float = 0.0,
) -> np.ndarray:
    """n read-only int8 outcomes, +1 with probability p (p_a_plus where a = +1).

    Trial i is +1 when the i-th uniform of ``rng`` is below its probability,
    so the result is the same for any slice size or thread count. A Philox
    ``rng`` has its slices drawn on threads, each from a copy of the state
    skipped ahead to the slice; ``rng`` is then left n draws on, as serial
    drawing would leave it. Other generators draw serially.
    """
    out = np.empty(n, dtype=np.int8)
    plus = out.view(np.bool_)

    def fill(lo: int, draw, u: np.ndarray) -> None:
        hi = min(n, lo + _DRAW_SLICE)
        a_plus = None if a is None else a[lo:hi] == 1
        _fill_plus(draw, u[: hi - lo], plus[lo:hi], p, a_plus, p_a_plus)
        o = out[lo:hi]
        o += o
        o -= 1

    starts = range(0, n, _DRAW_SLICE)
    count = min(_THREADS, len(starts))
    bg = rng.bit_generator
    if count < 2 or not isinstance(bg, np.random.Philox):
        u = np.empty(min(n, _DRAW_SLICE))
        for lo in starts:
            fill(lo, rng.random, u)
    else:
        state = bg.state

        def work(t: int) -> None:
            u = np.empty(_DRAW_SLICE)
            for lo in starts[t::count]:
                fill(lo, _random_at(state, lo), u)

        _run_threads(work, count)
        _leave_at(bg, state, n)
    out.setflags(write=False)
    return out


def _fair_outcomes(n: int, rng: np.random.Generator) -> np.ndarray:
    return _plus_outcomes(n, rng, 0.5)


def _conditional_outcomes(
    a: np.ndarray, d: float, k: float, rng: np.random.Generator
) -> np.ndarray:
    """Outcomes at a setting d away from a, each drawn given its a-side outcome."""
    s2, c2 = sin2_cos2(k, d)
    return _plus_outcomes(a.shape[0], rng, c2, a, s2)


def sample_dataset(cfg: AngleConfig, n: int, rng: np.random.Generator) -> DataSetTriple:
    """Draw n trials: fair +-1 at a, then b and b' given it; draw order a, b, b'."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = half_angle_factor(cfg.convention)
    a = _fair_outcomes(n, rng)
    b = _conditional_outcomes(a, cfg.b - cfg.a, k, rng)
    bp = _conditional_outcomes(a, cfg.bp - cfg.a, k, rng)
    return DataSetTriple(a, b, bp)


def _sample_sums(cfg: AngleConfig, n: int, rng: np.random.Generator) -> tuple[int, int, int]:
    """(sum ab, sum ab', sum bb') of ``sample_dataset(cfg, n, rng)``, without its columns.

    Trial slices are drawn and folded into the sums one at a time, on
    threads. In sample_dataset's draw order the slice at trial lo starts at
    draw lo for a, n + lo for b and 2n + lo for b', so each thread reaches
    its slices by jump-ahead and holds one slice of buffers at any n.
    ``rng`` is then left 3n draws on. A generator that is not Philox cannot
    jump ahead, so it draws whole columns.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bg = rng.bit_generator
    if not isinstance(bg, np.random.Philox):
        return _triple_sums(PatternCounts.of(sample_dataset(cfg, n, rng)))
    k = half_angle_factor(cfg.convention)
    s2b, c2b = sin2_cos2(k, cfg.b - cfg.a)
    s2p, c2p = sin2_cos2(k, cfg.bp - cfg.a)
    state = bg.state
    starts = range(0, n, _DRAW_SLICE)
    count = min(_THREADS, len(starts))
    sums = [None] * count

    def work(t: int) -> None:
        size = min(n, _DRAW_SLICE)
        u = np.empty(size)
        a, b, bp = (np.empty(size, dtype=np.bool_) for _ in range(3))
        sab = sabp = sbbp = 0
        for lo in starts[t::count]:
            m = min(n - lo, _DRAW_SLICE)
            am, bm, bpm = a[:m], b[:m], bp[:m]
            _fill_plus(_random_at(state, lo), u[:m], am, 0.5)
            _fill_plus(_random_at(state, n + lo), u[:m], bm, c2b, am, s2b)
            _fill_plus(_random_at(state, 2 * n + lo), u[:m], bpm, c2p, am, s2p)
            # a product of two +-1 outcomes is +1 where they agree
            sab += 2 * int(np.count_nonzero(am == bm)) - m
            sabp += 2 * int(np.count_nonzero(am == bpm)) - m
            sbbp += 2 * int(np.count_nonzero(bm == bpm)) - m
        sums[t] = (sab, sabp, sbbp)

    _run_threads(work, count)
    _leave_at(bg, state, 3 * n)
    return tuple(sum(column) for column in zip(*sums))


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
        sab, sabp, sbbp = _sample_sums(cfg, n, make_rng(seed, stream=stream))
        if not _margin_3_from_sums(sab, sabp, sbbp, n).satisfied:
            raise RuntimeError("sampled data set failed the exact data identity")
        estimate = ExactCorrelation(sbbp, n).value
        records.append(ConvergenceRecord.from_estimate(n, estimate, target, seed))
    return records

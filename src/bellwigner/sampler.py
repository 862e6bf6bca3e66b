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

One driver, `_sample_slices`, draws every sample: the calling thread and
helper threads draw trials in slices, which are handed to a visitor in
trial order. The visitor stores them as int8 columns (`sample_dataset`,
both matched-pairs arms), folds them into the exact sums (the convergence
study) or writes them out as file rows (`stream_dataset`, which the
simulate command uses), so only the stored columns grow with the sample
count. Outputs are bit-identical to serial drawing for any slice size and
thread count.
"""

from __future__ import annotations

import math
import os
import threading
from typing import Sequence

import numpy as np

from .analytic import half_angle_factor, sin2_cos2, third_correlation
from .core import AngleConfig, ConvergenceRecord, DataSetTriple
from .data_inequality import _margin_3_from_sums


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


# Trials are drawn in slices of this many. Each thread holds one slice at a
# time: its bool columns and the raw 64-bit draws of the column being drawn
# (128 KiB for 2**14 trials).
_DRAW_SLICE = 1 << 14


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# Threads that draw slices, the calling thread included; one means every
# draw is made serially by the caller. Philox.random_raw releases the GIL,
# so on a multi-core host the threads draw in parallel.
_THREADS = _usable_cpus()


def _philox_at(bg: np.random.Philox, state: dict, skip: int) -> np.random.Philox:
    """Set ``bg`` to Philox ``state`` moved on by ``skip`` 64-bit draws; return it.

    ``advance(q)`` moves the counter by q blocks of four draws and empties
    the buffer, so the draws left in the buffer are taken first and the
    remainder past the last whole block is drawn.
    """
    bg.state = state
    head = min(skip, 4 - state["buffer_pos"])
    bg.random_raw(head)
    blocks, rest = divmod(skip - head, 4)
    if blocks:
        bg.advance(blocks)
    bg.random_raw(rest)
    return bg


def _leave_at(bg: np.random.Philox, state: dict, skip: int) -> None:
    """Set ``bg`` to ``state`` moved on by ``skip`` draws, as serial drawing would.

    The pending 32-bit half of a draw is kept, so a later 32-bit draw takes
    it just as it would have without the jump.
    """
    end = _philox_at(bg, state, skip).state
    end.update(has_uint32=state["has_uint32"], uinteger=state["uinteger"])
    bg.state = end


def _raw_limit(p: float) -> np.uint64 | None:
    """The limit below which a raw 64-bit Philox draw has ``random() < p``; None if none.

    ``random()`` is ``(raw >> 11) * 2**-53`` and ``raw >> 11`` is an integer,
    so ``random() < p`` exactly when ``raw < ceil(p * 2**53) << 11``. For
    p = 1 that limit is 2**64, above every draw and past uint64: None.
    """
    limit = math.ceil(p * 2**53) << 11
    return None if limit >> 64 else np.uint64(limit)


def _below(draws: np.ndarray, limit, out: np.ndarray) -> None:
    """``out = draws < limit``; a ``None`` limit (p = 1) passes every draw."""
    if limit is None:
        out.fill(True)
    else:
        np.less(draws, limit, out=out)


def _conditional(
    draws: np.ndarray, limits, a: np.ndarray, out: np.ndarray, alt: np.ndarray
) -> None:
    """``out = draws < limits[a]``: ``limits[1]`` where ``a`` is True, ``limits[0]`` elsewhere.

    Both compares run over every draw and the a = +1 one is picked with bool
    ops (``out ^= (alt ^ out) & a``, ``alt`` being scratch), several times
    faster than numpy's masked ``np.less(..., where=a)``.
    """
    _below(draws, limits[0], out)
    _below(draws, limits[1], alt)
    alt ^= out
    alt &= a
    out ^= alt


def _conditionals(cfg: AngleConfig, *settings: float) -> list[tuple[float, float]]:
    """(P(+1 | a = -1), P(+1 | a = +1)) at each B-side setting: (cos^2, sin^2)."""
    k = half_angle_factor(cfg.convention)
    return [sin2_cos2(k, s - cfg.a)[::-1] for s in settings]


def _sample_slices(n: int, rng: np.random.Generator, conditionals, visit) -> None:
    """Draw n trials in slices and call ``visit(lo, columns)`` on each, in trial order.

    Per trial, a is +1 with probability 1/2 and column j of ``conditionals``
    is +1 with probability ``conditionals[j][a > 0]``. ``columns`` holds the
    slice's bool columns (True = +1): a, then one per conditional; they are
    reused once ``visit`` returns. Trial i of column j is set by the i-th
    draw of column j in serial drawing order, a's n draws first, so the
    outcomes do not depend on how the trials are sliced.

    Sampling takes Philox generators (`make_rng`) and refuses others with
    a ``TypeError`` before it draws. Slices of ``_DRAW_SLICE`` trials are
    dealt in turn to the calling thread and up to ``_THREADS - 1`` helpers,
    one thread per full slice. Each column of a slice is raw 64-bit draws
    from the thread's own Philox jumped ahead to that column's first draw of
    the slice and compared with the integer limit of each probability
    (`_raw_limit`); a conditional column is compared with both of its limits
    and a picks one per trial (`_conditional`). Threads draw in parallel but
    visit in slice order. The first error raised on any thread, in a draw or
    a visit, stops them all and is raised here. ``rng`` is then left where
    serial drawing would leave it.
    """
    bg = rng.bit_generator
    if not isinstance(bg, np.random.Philox):
        raise TypeError(f"sampling takes a Philox generator (make_rng), not {type(bg).__name__}")
    state = bg.state
    size = min(n, _DRAW_SLICE)
    starts = range(0, n, size)
    # one thread per full slice: a short last slice is not worth a thread
    count = min(_THREADS, max(1, n // size))
    width = 1 + len(conditionals)
    # per column, the raw limits of an outcome of +1 after a = -1 and a = +1
    column_limits = [tuple(map(_raw_limit, pair)) for pair in [(0.5, 0.5), *conditionals]]
    turn = threading.Condition()
    next_visit = 0
    errors = []  # a thread's error stops every thread and reaches the caller

    def work(t: int) -> None:
        nonlocal next_visit
        own = np.random.Philox()
        cols = np.empty((width, size), dtype=np.bool_)
        alt = np.empty(size, dtype=np.bool_)
        try:
            for i in range(t, len(starts), count):
                lo = starts[i]
                m = min(n - lo, size)
                slice_cols = cols[:, :m]
                a = slice_cols[0]
                for j, (col, limits) in enumerate(zip(slice_cols, column_limits)):
                    draws = _philox_at(own, state, j * n + lo).random_raw(m)
                    if j:
                        _conditional(draws, limits, a, col, alt[:m])
                    else:
                        _below(draws, limits[0], col)
                with turn:
                    turn.wait_for(lambda: next_visit == i or errors)
                    if errors:
                        return
                visit(lo, slice_cols)
                with turn:
                    next_visit += 1
                    turn.notify_all()
        except BaseException as exc:
            with turn:
                errors.append(exc)
                turn.notify_all()

    helpers = [threading.Thread(target=work, args=(t,), daemon=True) for t in range(1, count)]
    for thread in helpers:
        thread.start()
    work(0)
    for thread in helpers:
        thread.join()
    if errors:
        raise errors[0]
    _leave_at(bg, state, width * n)


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


def stream_dataset(cfg: AngleConfig, n: int, rng: np.random.Generator, visit) -> None:
    """Draw the trials of ``sample_dataset(cfg, n, rng)`` slice by slice, keeping none.

    ``visit(columns)`` is called on each slice in trial order, ``columns``
    being the slice's bool (a, b, b') rows, True = +1, valid only during the
    call. Sampling takes Philox generators (`make_rng`) and refuses others;
    memory stays at a slice of draws per thread at any n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _sample_slices(n, rng, _conditionals(cfg, cfg.b, cfg.bp), lambda lo, columns: visit(columns))


def _sample_sums(cfg: AngleConfig, n: int, rng: np.random.Generator) -> tuple[int, int, int]:
    """(sum ab, sum ab', sum bb') of ``sample_dataset(cfg, n, rng)``, without its columns."""
    sums = [0, 0, 0]

    def fold(columns: np.ndarray) -> None:
        a, b, bp = columns
        m = a.shape[0]
        for k, (x, y) in enumerate(((a, b), (a, bp), (b, bp))):
            # a product of two +-1 outcomes is +1 where they agree
            sums[k] += 2 * int(np.count_nonzero(x == y)) - m

    stream_dataset(cfg, n, rng, fold)
    return tuple(sums)


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
    if n_list[0] < 1:
        raise ValueError(f"n_list entries must be >= 1, got {list(n_list)}")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must be strictly ascending, got {list(n_list)}")
    target = third_correlation(cfg)
    records = []
    for stream, n in enumerate(n_list):
        sab, sabp, sbbp = _sample_sums(cfg, n, make_rng(seed, stream=stream))
        if not _margin_3_from_sums(sab, sabp, sbbp, n).satisfied:
            raise RuntimeError("sampled data set failed the exact data identity")
        estimate = sbbp / n
        records.append(ConvergenceRecord(n, estimate, target, seed))
    return records

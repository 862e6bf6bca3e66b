"""numpy's Philox4x64-10 stream in the standard library, for small sampling runs.

`make_rng(seed, stream)` is numpy's Philox keyed by
``SeedSequence(seed, spawn_key=(stream,)).generate_state(2, uint64)`` with
its 256-bit counter at 0. Draw d of that stream is word d % 4 of the block
at counter d // 4 + 1: the counter is incremented before each block. This
module computes the same key (`seed_key`) and the same raw 64-bit draws, so
a small `simulate` run writes the bytes of the numpy sampler without
loading numpy. It also holds the sampling maths both paths share: the
conditional probabilities of each B-side column (`_conditionals`) and the
integer limit below which a raw draw is a +1 (`_draw_limit`).

Blocks are computed many at a time. Each of the four counter words is one
Python int holding one 128-bit lane per block, so a lane's 64 x 64-bit
product never carries into the next lane, and one multiplication, shift or
mask serves every block. A raw draw costs ~0.2 us this way against ~5 ns
for numpy's `random_raw`, which is why only small runs take this path.
"""

from __future__ import annotations

import math
import sys
from array import array

from .analytic import half_angle_factor, sin2_cos2
from .core import AngleConfig
from .data_inequality import PatternCounts, _PatternFold, _triple_sums

# SeedSequence: the pool size, the hashmix and mix constants, the xorshift
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_M32 = 0xFFFFFFFF

# Philox4x64-10: the round multipliers and the key increments (Weyl constants)
_ROUNDS = 10
_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_M64 = (1 << 64) - 1
_LANE_ONE = b"\x01" + bytes(15)  # the little-endian 128-bit lane holding 1

# Blocks are computed at most this many at a time: four ints of 64 KiB
# each, plus the products of a round.
_BLOCKS = 1 << 12
# Trials are drawn in slices of this many, so a column's draws in one slice
# take at most 2**11 + 1 blocks, one batch.
_SLICE = 1 << 13


def _check_seed(seed: int, stream: int) -> None:
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if stream < 0:
        raise ValueError("stream must be a non-negative integer")


def _words32(value: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first; [0] for 0."""
    words = [value & _M32]
    while value := value >> 32:
        words.append(value & _M32)
    return words


def seed_key(seed: int, stream: int = 0) -> tuple[int, int]:
    """The Philox key of `make_rng(seed, stream)`: numpy's SeedSequence state as two uint64."""
    _check_seed(seed, stream)
    entropy = _words32(seed)
    # the run entropy is zero-padded to the pool size when a spawn key follows
    entropy += [0] * (_POOL_SIZE - len(entropy))
    entropy += _words32(stream)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(value) for value in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(value))
    # generate_state(2, uint64): four 32-bit words from the pool, paired little-endian
    hash_const = _INIT_B
    words = []
    for value in pool:
        value ^= hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    return words[0] | words[1] << 32, words[2] | words[3] << 32


def _blocks(key: tuple[int, int], first: int, count: int) -> tuple[list[int], int]:
    """The four output words of blocks first .. first + count - 1, and the lanes' ones.

    Block b runs Philox4x64-10 on the counter b + 1 (below 2**64, so its
    upper three words are 0). Each word is one int with block first + i in
    its 128-bit lane i; ``ones`` holds 1 in every lane.
    """
    ones = int.from_bytes(_LANE_ONE * count, "little")
    counters = array("Q", bytes(16 * count))
    counters[::2] = array("Q", range(first + 1, first + count + 1))
    if sys.byteorder == "big":
        counters.byteswap()
    c0, c1, c2, c3 = int.from_bytes(counters, "little"), 0, 0, 0
    low = _M64 * ones
    k0, k1 = key
    for r in range(_ROUNDS):
        if r:
            k0 = (k0 + _W0) & _M64
            k1 = (k1 + _W1) & _M64
        p0 = c0 * _M0
        p1 = c2 * _M1
        c0, c1, c2, c3 = (
            (p1 >> 64 & low) ^ c1 ^ k0 * ones,
            p1 & low,
            (p0 >> 64 & low) ^ c3 ^ k1 * ones,
            p0 & low,
        )
    return [c0, c1, c2, c3], ones


def _below_flags(key: tuple[int, int], start: int, count: int, limits) -> list[bytes]:
    """Per limit, one byte per draw start .. start + count - 1: 1 if the raw draw is below it, else 0.

    A limit is an int from 0 to 2**64. In each lane, 2**65 + limit - 1 - raw
    lies between 2**64 and 3 * 2**64, so the subtraction borrows from no
    other lane, and its bit 65 is set exactly when raw < limit.
    """
    first, head = divmod(start, 4)
    end = (start + count + 3) // 4
    flags = [bytearray() for _ in limits]
    for lo in range(first, end, _BLOCKS):
        blocks = min(_BLOCKS, end - lo)
        words, ones = _blocks(key, lo, blocks)
        for out, limit in zip(flags, limits):
            bounds = ((1 << 65) + limit - 1) * ones
            block_flags = bytearray(4 * blocks)
            for j, word in enumerate(words):
                lanes = ((bounds - word) >> 65 & ones).to_bytes(16 * blocks, "little")
                block_flags[j::4] = lanes[::16]
            out += block_flags
    return [bytes(out[head : head + count]) for out in flags]


def _draw_limit(p: float) -> int:
    """The limit below which a raw 64-bit draw has ``random() < p``.

    ``random()`` is ``(raw >> 11) * 2**-53`` and ``raw >> 11`` is an integer,
    so ``random() < p`` exactly when ``raw < ceil(p * 2**53) << 11``. For
    p = 1 that limit is 2**64, above every draw.
    """
    return math.ceil(p * 2**53) << 11


def _conditionals(cfg: AngleConfig, *settings: float) -> list[tuple[float, float]]:
    """(P(+1 | a = -1), P(+1 | a = +1)) at each B-side setting: (cos^2, sin^2)."""
    k = half_angle_factor(cfg.convention)
    return [sin2_cos2(k, s - cfg.a)[::-1] for s in settings]


# 0/1 flags as int8 cells for the pattern fold: 0x00 (-1) becomes 0xFF
_FLAGS_AS_CELLS = bytes.maketrans(b"\x00", b"\xff")


def stream_sums(cfg: AngleConfig, n: int, key: tuple[int, int], visit=None) -> tuple[int, int, int]:
    """(sum ab, sum ab', sum bb') of n trials drawn from the Philox stream of ``key``.

    The draws and sums are those of `sampler.stream_dataset(cfg, n, rng)`
    with ``rng`` fresh from `make_rng` for the key's (seed, stream): column
    a takes draws 0 .. n - 1, b the next n and b' the n after them. If
    ``visit`` is given, ``visit(columns)`` is called on each slice of trials
    in trial order, ``columns`` being the slice's (a, b, b') as bytes, 1
    for +1 and 0 for -1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    column_limits = [[_draw_limit(0.5)]]
    column_limits += [list(map(_draw_limit, pair)) for pair in _conditionals(cfg, cfg.b, cfg.bp)]
    fold = _PatternFold(3)
    for lo in range(0, n, _SLICE):
        m = min(_SLICE, n - lo)
        (a,) = _below_flags(key, lo, m, column_limits[0])
        plus = int.from_bytes(a, "little")
        columns = [a]
        for j, limits in enumerate(column_limits[1:], start=1):
            # the column's outcomes after a = -1 and after a = +1; a picks one per trial
            flags = _below_flags(key, j * n + lo, m, limits)
            after_minus, after_plus = (int.from_bytes(f, "little") for f in flags)
            columns.append((after_minus ^ (after_minus ^ after_plus) & plus).to_bytes(m, "little"))
        if visit is not None:
            visit(columns)
        fold.fromcolumns([column.translate(_FLAGS_AS_CELLS) for column in columns])
    return _triple_sums(PatternCounts(fold.counts))

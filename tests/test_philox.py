"""The standard-library Philox stream against numpy's: keys, raw draws, columns and sums.

numpy's `SeedSequence`, `Philox.random_raw` and the numpy sampler
(`sampler._sample_columns`, `stream_dataset`) are the references; every
comparison is exact.
"""

import math
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from bellwigner import AngleConfig, AngleConvention, make_rng, philox, sampler
from bellwigner.philox import _below_flags, _conditionals, seed_key, stream_sums
from bellwigner.sampler import stream_dataset

SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 3, 10**30]
STREAMS = [0, 1, 17, 2**32]
LIMITS = [0, 2**11, 2**63, 2**64 - 2**11, 2**64]
CONFIGS = {
    "witness": AngleConfig(0.0, 2 * math.pi / 3, math.pi / 3),
    # b = a: P(+1 | a) is 0 or 1, the limits 0 and 2**64
    "b-equals-a": AngleConfig(0.4, 0.4, 1.3),
    # b - a = pi: cos^2 is 1 after a = -1
    "optical": AngleConfig(0.0, math.pi, math.pi / 3, AngleConvention.OPTICAL),
}


def numpy_raw(seed, stream, count):
    return make_rng(seed, stream).bit_generator.random_raw(count)


def numpy_flags(raw, limit):
    return bytes(np.less(raw, limit) if limit < 2**64 else np.ones(raw.size, dtype=np.bool_))


@pytest.mark.parametrize("stream", STREAMS)
@pytest.mark.parametrize("seed", SEEDS)
def test_key_is_numpys_seed_sequence_state(seed, stream):
    bit_generator = np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,)))
    assert seed_key(seed, stream) == tuple(map(int, bit_generator.state["state"]["key"]))


@pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1)])
def test_negative_seed_or_stream_is_refused_as_make_rng_refuses_it(seed, stream):
    with pytest.raises(ValueError) as expected:
        make_rng(seed, stream)
    with pytest.raises(ValueError, match=f"^{expected.value}$"):
        seed_key(seed, stream)


@pytest.mark.parametrize(
    "start, count, blocks",
    [
        (0, 1, None), (1, 3, None), (3, 2, None), (5, 4, None), (7, 9, None),
        # across the default batches of 2**12 blocks (16384 draws)
        (4097, 3 * 16384 + 5, None), (16382, 16384, None),
        # many tiny batches, the draws starting at every offset within a block
        (1, 37, 1), (2, 37, 2), (3, 61, 3), (6, 1, 1), (13, 100, 5),
    ],
)
def test_flags_are_numpys_raw_draws_below_each_limit(start, count, blocks):
    raw = numpy_raw(42, 3, start + count)[start:]
    with mock.patch.object(philox, "_BLOCKS", blocks or philox._BLOCKS):
        flags = _below_flags(seed_key(42, 3), start, count, LIMITS)
    assert flags == [numpy_flags(raw, limit) for limit in LIMITS]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**70),
    start=st.integers(0, 80),
    count=st.integers(1, 80),
    blocks=st.integers(1, 6),
    limits=st.lists(st.one_of(st.sampled_from(LIMITS), st.integers(0, 2**64)), min_size=1, max_size=3),
)
def test_random_flags_are_numpys(seed, start, count, blocks, limits):
    raw = numpy_raw(seed, 0, start + count)[start:]
    with mock.patch.object(philox, "_BLOCKS", blocks):
        flags = _below_flags(seed_key(seed), start, count, limits)
    assert flags == [numpy_flags(raw, limit) for limit in limits]


def streamed_columns(cfg, n, seed):
    """The sums of `stream_sums` and its visited columns, joined, as one bytes per column."""
    visited = []
    sums = stream_sums(cfg, n, seed_key(seed), visited.append)
    return sums, [b"".join(column) for column in zip(*visited)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, (1 << 14) - 1, (1 << 14) + 1, 87_381])
@pytest.mark.parametrize("name", CONFIGS)
def test_columns_and_sums_are_the_numpy_samplers(name, n):
    cfg = CONFIGS[name]
    expected = sampler._sample_columns(n, make_rng(7), _conditionals(cfg, cfg.b, cfg.bp))
    sums, columns = streamed_columns(cfg, n, 7)
    assert columns == [bytes(row > 0) for row in expected]
    assert sums == stream_dataset(cfg, n, make_rng(7))


def test_slices_are_visited_in_trial_order():
    cfg = CONFIGS["witness"]
    whole = streamed_columns(cfg, 50, 9)
    visited = []
    with mock.patch.object(philox, "_SLICE", 7), mock.patch.object(philox, "_BLOCKS", 2):
        sums = stream_sums(cfg, 50, seed_key(9), visited.append)
    assert [len(a) for a, _, _ in visited] == [7] * 7 + [1]
    assert (sums, [b"".join(column) for column in zip(*visited)]) == whole


def test_nonpositive_n_is_refused():
    with pytest.raises(ValueError, match="n must be >= 1"):
        stream_sums(CONFIGS["witness"], 0, seed_key(1))

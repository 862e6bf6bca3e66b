import itertools
import json
import math
import os
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bellwigner import sampler
from bellwigner.analytic import half_angle_factor, pattern_probabilities
from bellwigner.data_inequality import PatternCounts, _triple_sums
from bellwigner.datafile import TriplesWriter, read_pattern_counts
from bellwigner.sampler import stream_dataset
from bellwigner import (
    AngleConfig,
    AngleConvention,
    InsufficientMatchesError,
    convergence_study,
    data_bell_margin_3,
    make_rng,
    matched_pairs_estimate,
    sample_dataset,
    third_correlation,
)

CFG = AngleConfig(0.0, math.pi / 3, 2 * math.pi / 3)
ALIGNED = AngleConfig(0.0, 0.0, 0.0)
WITNESS = AngleConfig(0.0, 2 * math.pi / 3, math.pi / 3)


def test_make_rng_is_reproducible_and_stream_separated():
    a = make_rng(123).random(8)
    b = make_rng(123).random(8)
    c = make_rng(123, stream=1).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError):
        make_rng(-1)
    with pytest.raises(ValueError):
        make_rng(1, stream=-1)


def _ab_pairs(x, y, n, seed):
    # the (a, b) columns of a data set are outcome pairs measured at (x, y)
    data = sample_dataset(AngleConfig(x, y, x), n, make_rng(seed))
    return data.a, data.b


def test_sampled_pairs_same_setting_always_opposite():
    a, b = _ab_pairs(0.0, 0.0, 200, 0)
    assert np.array_equal(a, -b)


def test_sampled_pairs_opposite_setting_always_equal():
    a, b = _ab_pairs(0.0, math.pi, 200, 0)
    assert np.array_equal(a, b)


def test_sampled_pairs_quarter_cell_frequencies():
    a, b = _ab_pairs(0.0, math.pi / 2, 20000, 7)
    for x in (1, -1):
        for y in (1, -1):
            assert np.mean((a == x) & (b == y)) == pytest.approx(0.25, abs=0.02)


def test_sample_dataset_aligned_settings():
    data = sample_dataset(ALIGNED, 1000, make_rng(9))
    assert np.array_equal(data.b, data.bp)
    assert np.array_equal(data.b, -data.a)


def test_sample_dataset_is_deterministic():
    d1 = sample_dataset(CFG, 5000, make_rng(42))
    d2 = sample_dataset(CFG, 5000, make_rng(42))
    assert np.array_equal(d1.a, d2.a)
    assert np.array_equal(d1.b, d2.b)
    assert np.array_equal(d1.bp, d2.bp)


def test_sample_dataset_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        sample_dataset(CFG, 0, make_rng(1))
    with pytest.raises(ValueError):
        stream_dataset(CFG, 0, make_rng(1))


def test_sample_dataset_marginals_converge():
    n = 200_000
    data = sample_dataset(CFG, n, make_rng(1234))
    c_ab, c_abp, c3 = (int((x * y).sum(dtype=np.int64)) / n
                       for x, y in ((data.a, data.b), (data.a, data.bp), (data.b, data.bp)))
    assert c_ab == pytest.approx(-0.5, abs=0.012)
    assert c_abp == pytest.approx(0.5, abs=0.012)
    assert c3 == pytest.approx(third_correlation(CFG), abs=0.012)
    ppp_hat = np.mean((data.b == 1) & (data.bp == 1))
    assert ppp_hat == pytest.approx(3 / 16, abs=0.005)


# P(chi^2 with 7 degrees of freedom > 40.52) = 1e-6
CHI2_7_CRITICAL = 40.52
MODEL_CHECK_ANGLES = [
    (WITNESS.a, WITNESS.b, WITNESS.bp),
    (0.4, 0.4, 1.3),  # b = a: the patterns with b != a have q = 0
    *np.random.default_rng(2026).uniform(0.0, 2 * math.pi, (4, 3)).tolist(),
]


def _chi2_against_model(cfg, seed):
    """Pearson chi^2 of 10^5 sampled pattern counts against n q, over patterns with q > 0."""
    n = 100_000
    counts = np.array(PatternCounts.of(sample_dataset(cfg, n, make_rng(seed))).counts)
    expected = n * np.array(pattern_probabilities(cfg.a, cfg.b, cfg.bp, half_angle_factor(cfg.convention)))
    possible = expected > 0
    assert not counts[~possible].any()
    return float(((counts - expected)[possible] ** 2 / expected[possible]).sum())


@pytest.mark.parametrize("convention", list(AngleConvention), ids=lambda c: c.value)
@pytest.mark.parametrize("seed, angles", enumerate(MODEL_CHECK_ANGLES))
def test_sampled_patterns_fit_the_model(seed, angles, convention):
    assert _chi2_against_model(AngleConfig(*angles, convention), seed) < CHI2_7_CRITICAL


def test_model_fit_catches_a_wrong_conditional(monkeypatch):
    real = sampler._conditionals

    def b_ignores_a(cfg, *settings):
        (_, b_after_plus), *rest = real(cfg, *settings)
        return [(b_after_plus, b_after_plus), *rest]

    monkeypatch.setattr(sampler, "_conditionals", b_ignores_a)
    assert _chi2_against_model(WITNESS, 0) > CHI2_7_CRITICAL


@settings(max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 200),
    a=st.floats(0, 2 * math.pi, exclude_max=True, allow_nan=False),
    b=st.floats(0, 2 * math.pi, exclude_max=True, allow_nan=False),
    bp=st.floats(0, 2 * math.pi, exclude_max=True, allow_nan=False),
)
def test_every_sampled_dataset_satisfies_the_data_identity(seed, n, a, b, bp):
    data = sample_dataset(AngleConfig(a, b, bp), n, make_rng(seed))
    report = data_bell_margin_3(data)
    assert report.satisfied
    assert report.margin >= 0.0


def test_matched_pairs_aligned_settings_gives_exactly_one():
    assert matched_pairs_estimate(ALIGNED, 500, make_rng(3)) == 1.0


def test_matched_pairs_single_trial_cannot_pair():
    # one trial per arm leaves the other a-outcome group empty by construction
    with pytest.raises(InsufficientMatchesError):
        matched_pairs_estimate(CFG, 1, make_rng(11))


def test_matched_pairs_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        matched_pairs_estimate(CFG, 0, make_rng(1))


def test_matched_pairs_converges_to_third_correlation():
    est = matched_pairs_estimate(CFG, 40_000, make_rng(77))
    assert est == pytest.approx(third_correlation(CFG), abs=0.025)


def test_matched_pairs_vanishing_first_factor():
    cfg = AngleConfig(0.0, math.pi / 2, 0.0)
    est = matched_pairs_estimate(cfg, 40_000, make_rng(78))
    assert est == pytest.approx(0.0, abs=0.025)


def test_matched_pairs_is_deterministic():
    e1 = matched_pairs_estimate(CFG, 2000, make_rng(4))
    e2 = matched_pairs_estimate(CFG, 2000, make_rng(4))
    assert e1 == e2


def test_convergence_study_records_and_determinism():
    n_list = [100, 1000, 10000]
    r1 = convergence_study(CFG, n_list, seed=42)
    r2 = convergence_study(CFG, n_list, seed=42)
    assert r1 == r2
    assert [r.n_samples for r in r1] == n_list
    target = third_correlation(CFG)
    for rec in r1:
        assert rec.analytic == target
        assert rec.abs_error == abs(rec.estimate - target)
        assert rec.seed == 42


def test_convergence_study_error_shrinks_with_n():
    records = convergence_study(CFG, [100, 10000, 1000000], seed=42)
    errors = [r.abs_error for r in records]
    assert errors[-1] < errors[0]
    assert records[-1].abs_error < 5 * records[-1].std_error


def test_convergence_study_validates_n_list():
    with pytest.raises(ValueError):
        convergence_study(CFG, [], seed=1)
    with pytest.raises(ValueError):
        convergence_study(CFG, [100, 100], seed=1)
    with pytest.raises(ValueError):
        convergence_study(CFG, [1000, 10], seed=1)
    with pytest.raises(ValueError, match=r"n_list .*\[0, 5\]"):
        convergence_study(CFG, [0, 5], seed=1)


def test_draws_do_not_depend_on_slice_size(monkeypatch):
    # Philox random(n) equals its slices' random(m) calls, so slicing the
    # draws leaves every seeded output as it was
    whole = sample_dataset(CFG, 1000, make_rng(5))
    estimate = matched_pairs_estimate(CFG, 1000, make_rng(5))
    monkeypatch.setattr(sampler, "_DRAW_SLICE", 7)
    sliced = sample_dataset(CFG, 1000, make_rng(5))
    for name in ("a", "b", "bp"):
        assert np.array_equal(getattr(sliced, name), getattr(whole, name))
    assert matched_pairs_estimate(CFG, 1000, make_rng(5)) == estimate


def test_sampled_columns_are_not_copied():
    # the sampler hands its drawn array over read-only, so the data set
    # keeps views of it rather than a second copy
    drawn = []
    real = sampler._sample_columns

    def recording(*args):
        drawn.append(real(*args))
        return drawn[-1]

    with mock.patch.object(sampler, "_sample_columns", recording):
        data = sample_dataset(CFG, 100, make_rng(2))
    (out,) = drawn
    for row, col in zip(out, (data.a, data.b, data.bp), strict=True):
        assert np.shares_memory(row, col)


def _visited(n, rng, conditionals):
    """Each slice's (lo, copy of its bool columns), in the order the driver visits them."""
    seen = []
    sampler._sample_slices(n, rng, conditionals, lambda lo, columns: seen.append((lo, columns.copy())))
    return seen


def test_slices_are_visited_in_trial_order():
    with mock.patch.object(sampler, "_DRAW_SLICE", 7):
        slices = _visited(50, make_rng(8), [(0.2, 0.7)])
    assert [(lo, c.shape) for lo, c in slices] == [(lo, (2, min(7, 50 - lo))) for lo in range(0, 50, 7)]


@pytest.mark.parametrize("n", [6, 7, 10, 14, 20, 21, 50])
def test_every_slice_is_drawn_and_visited_on_the_calling_thread(n):
    # one serial loop: a run of one slice, of whole slices or with a short
    # last slice starts no thread
    before = threading.active_count()
    visits = []

    def visit(lo, columns):
        visits.append((lo, threading.current_thread(), threading.active_count()))

    with mock.patch.object(sampler, "_DRAW_SLICE", 7):
        sampler._sample_slices(n, make_rng(8), [(0.2, 0.7)], visit)
    assert visits == [(lo, threading.current_thread(), before) for lo in range(0, n, 7)]
    assert threading.active_count() == before


@pytest.mark.parametrize("fail_at, error", [(0, MemoryError), (14, SystemExit), (49, KeyboardInterrupt)])
def test_a_failing_visit_reaches_the_caller(fail_at, error):
    # the visit's error stops the run and reaches the caller; no later slice is visited
    visited = []

    def visit(lo, columns):
        if lo == fail_at:
            raise error(f"slice at {lo}")
        visited.append(lo)

    with mock.patch.object(sampler, "_DRAW_SLICE", 7):
        with pytest.raises(error, match=f"^slice at {fail_at}$"):
            sampler._sample_slices(50, make_rng(8), [(0.2, 0.7)], visit)
    assert visited == list(range(0, fail_at, 7))


def test_a_failing_draw_reaches_the_caller(monkeypatch):
    # the draw of the slice at 14 raises: the caller gets the error, no later
    # slice is visited, and the caller's generator is not moved
    conditional = sampler._conditional
    calls = itertools.count()
    visited = []

    def failing(*args):
        if next(calls) == 2:
            raise MemoryError("draw")
        conditional(*args)

    monkeypatch.setattr(sampler, "_conditional", failing)
    rng = make_rng(8)
    before = _state_text(rng.bit_generator)
    with mock.patch.object(sampler, "_DRAW_SLICE", 7):
        with pytest.raises(MemoryError, match="^draw$"):
            sampler._sample_slices(50, rng, [(0.2, 0.7)], lambda lo, columns: visited.append(lo))
    assert visited == [0, 7]
    assert _state_text(rng.bit_generator) == before


def _state_text(bit_generator):
    return json.dumps(bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize(
    "call",
    [
        lambda rng: sample_dataset(CFG, 50, rng),
        lambda rng: stream_dataset(CFG, 50, rng, lambda columns: None),
        lambda rng: matched_pairs_estimate(CFG, 50, rng),
    ],
    ids=["sample_dataset", "stream_dataset", "matched_pairs_estimate"],
)
def test_non_philox_generator_is_refused(call, bit_generator):
    # only Philox can jump ahead to a slice's draws; any other generator is
    # refused before a draw or a visit
    rng = np.random.Generator(bit_generator(5))
    before = _state_text(rng.bit_generator)
    visits = []
    driver = sampler._sample_slices

    def recording_driver(n, rng, conditionals, visit):
        def recorded(lo, columns):
            visits.append(lo)
            visit(lo, columns)

        driver(n, rng, conditionals, recorded)

    with mock.patch.object(sampler, "_sample_slices", recording_driver):
        with pytest.raises(TypeError, match="make_rng"):
            call(rng)
    assert _state_text(rng.bit_generator) == before
    assert visits == []


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_driver_leaves_the_generator_after_every_column(width):
    # a and each conditional column take n draws apiece, whatever the slicing
    n, seed = 23, 31
    reference = make_rng(seed)
    reference.random(width * n)
    rng = make_rng(seed)
    with mock.patch.object(sampler, "_DRAW_SLICE", 5):
        _visited(n, rng, [(0.3, 0.6)] * (width - 1))
    assert rng.random(8).tolist() == reference.random(8).tolist()


def test_certain_conditionals_copy_or_flip_a():
    # P(+1 | a) of 0 or 1 makes a conditional column a function of a
    with mock.patch.object(sampler, "_DRAW_SLICE", 16):
        slices = _visited(200, make_rng(12), [(0.0, 1.0), (1.0, 0.0)])
    a, same, flipped = np.concatenate([c for _, c in slices], axis=1)
    assert a.dtype == np.bool_
    assert 0 < np.count_nonzero(a) < 200
    assert np.array_equal(same, a)
    assert np.array_equal(flipped, ~a)


def test_sampled_columns_are_read_only_plus_minus_one():
    with mock.patch.object(sampler, "_DRAW_SLICE", 9):
        out = sampler._sample_columns(40, make_rng(6), [(0.2, 0.7), (0.9, 0.1)])
    assert out.shape == (3, 40)
    assert out.dtype == np.int8
    assert not out.flags.writeable
    assert set(np.unique(out).tolist()) == {-1, 1}
    with pytest.raises(ValueError):
        out[0, 0] = 1


def _serial_plus_outcomes(n, rng, p, a=None, p_a_plus=0.0):
    # the whole-column loop the sliced sampler replaced, kept as its reference
    out = np.empty(n, dtype=np.int8)
    for lo in range(0, n, 1 << 20):
        s = slice(lo, min(n, lo + (1 << 20)))
        p_plus = p if a is None else np.where(a[s] == 1, p_a_plus, p)
        out[s] = np.where(rng.random(s.stop - lo) < p_plus, np.int8(1), np.int8(-1))
    return out


def _serial_sample_columns(n, rng, conditionals):
    # whole columns drawn one after another: the fair a, then each given a
    a = _serial_plus_outcomes(n, rng, 0.5)
    return np.array([a] + [_serial_plus_outcomes(n, rng, p, a, q) for p, q in conditionals])


def _draws(cfg, n, rng):
    """sample_dataset columns, matched_pairs_estimate and the next draws, in order."""
    data = sample_dataset(cfg, n, rng)
    try:
        estimate = matched_pairs_estimate(cfg, n, rng)
    except InsufficientMatchesError:
        estimate = None
    after = (rng.integers(1 << 30, size=8, dtype=np.uint32).tolist(), rng.random(8).tolist())
    return [c.tolist() for c in (data.a, data.b, data.bp)], estimate, after


def _prepared(rng, pre, half):
    # pre doubles move Philox's 4-draw buffer to every position; a 32-bit
    # draw leaves half a 64-bit draw pending
    rng.random(pre)
    if half:
        rng.integers(10, dtype=np.uint32)
    return rng


@settings(max_examples=200, deadline=2000)
@given(
    n=st.integers(1, 60),
    draw_slice=st.integers(1, 9),
    pre=st.integers(0, 3),
    half=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    convention=st.sampled_from(AngleConvention),
)
def test_sliced_draws_match_serial_reference(n, draw_slice, pre, half, seed, convention):
    # many tiny slices, most ending inside a column, from every buffer position
    cfg = AngleConfig(0.0, math.pi / 3, 2 * math.pi / 3, convention)
    with mock.patch.object(sampler, "_sample_columns", _serial_sample_columns):
        expected = _draws(cfg, n, _prepared(make_rng(seed), pre, half))
    with mock.patch.object(sampler, "_DRAW_SLICE", draw_slice):
        got = _draws(cfg, n, _prepared(make_rng(seed), pre, half))
    assert got == expected


_RAW_TOP = 2**64 - 1
_EDGE_PROBABILITIES = sorted({
    0.0, 1.0, 0.5, 5e-324, 1 - 2**-53, 2**-53, 3 * 2**-53, 0.3, 0.7,
    *(math.nextafter(p, toward) for p in (0.5, 5e-324, 1 - 2**-53, 2**-53) for toward in (0.0, 1.0)),
})


def _random_below(raw, p):
    # numpy's random(): the top 53 bits of a raw draw, scaled into [0, 1)
    return ((raw >> 11) * 2**-53) < p


def _raws_near(limit):
    # raw draws at and beside the limit, the 2**11-wide step below it, and the top
    near = (0, 1, limit - 2**11, limit - 2, limit - 1, limit, limit + 1, limit + 2**11 - 1, _RAW_TOP - 1, _RAW_TOP)
    return sorted({r for r in near if 0 <= r <= _RAW_TOP})


@settings(max_examples=300)
@given(
    p=st.one_of(st.sampled_from(_EDGE_PROBABILITIES), st.floats(0.0, 1.0)),
    raw=st.integers(0, _RAW_TOP),
)
def test_raw_limit_gives_the_outcomes_of_the_float_compare(p, raw):
    limit = sampler._raw_limit(p)
    # p = 1 has the limit 2**64, which no uint64 holds
    assert (limit is None) == (p == 1.0)
    raws = [raw, *_raws_near(2**64 if limit is None else int(limit))]
    below = np.empty(len(raws), dtype=np.bool_)
    sampler._below(np.array(raws, dtype=np.uint64), limit, below)
    assert below.tolist() == [_random_below(r, p) for r in raws], (p, limit)


def test_raw_limit_matches_numpy_random():
    # the same Philox draws seen as random() and as raw 64-bit integers
    bg = np.random.Philox(17)
    state = bg.state
    u = np.random.Generator(bg).random(4096)
    bg.state = state
    raw = bg.random_raw(4096)
    assert np.array_equal(u, (raw >> np.uint64(11)) * 2**-53)
    below = np.empty(4096, dtype=np.bool_)
    for p in [*_EDGE_PROBABILITIES, *u[:64]]:
        sampler._below(raw, sampler._raw_limit(p), below)
        assert np.array_equal(below, u < p), p


def _masked_conditional(draws, limits, a):
    # the masked compare that the bool-op selection replaced, kept as its reference
    out = np.empty(draws.size, dtype=np.bool_)
    for limit, where in zip(limits, (True, a)):
        if limit is None:
            np.copyto(out, True, where=where)
        else:
            np.less(draws, limit, out=out, where=where)
    return out


@settings(max_examples=300)
@given(
    p=st.one_of(st.sampled_from(_EDGE_PROBABILITIES), st.floats(0.0, 1.0)),
    q=st.one_of(st.sampled_from(_EDGE_PROBABILITIES), st.floats(0.0, 1.0)),
    trials=st.lists(st.tuples(st.integers(0, _RAW_TOP), st.booleans()), max_size=20),
    dirty=st.booleans(),
)
def test_conditional_gives_the_outcomes_of_the_masked_compare(p, q, trials, dirty):
    # either limit order, p = 0, p = 1 (no limit) and the raws at both
    # limits, each after a = -1 and a = +1; out and alt start dirty or clean
    limits = (sampler._raw_limit(p), sampler._raw_limit(q))
    edges = [r for limit in limits for r in _raws_near(2**64 if limit is None else int(limit))]
    raws = np.array([r for r, _ in trials] + edges * 2, dtype=np.uint64)
    a = np.array([x for _, x in trials] + [False] * len(edges) + [True] * len(edges))
    uniforms = (raws >> np.uint64(11)) * 2**-53
    for draws, pair in ((raws, limits), (uniforms, (p, q))):
        out = np.full(raws.size, dirty)
        alt = np.full(raws.size, not dirty)
        sampler._conditional(draws, pair, a, out, alt)
        assert out.tolist() == _masked_conditional(draws, pair, a).tolist(), (p, q)
        assert out.tolist() == [_random_below(int(r), q if x else p) for r, x in zip(raws, a)]


def _sums_and_after(sums, rng):
    return sums, rng.integers(1 << 30, size=8, dtype=np.uint32).tolist(), rng.random(8).tolist()


@settings(max_examples=200, deadline=2000)
@given(
    n=st.integers(1, 60),
    draw_slice=st.integers(1, 9),
    pre=st.integers(0, 3),
    half=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    convention=st.sampled_from(AngleConvention),
)
def test_streamed_sums_match_column_reference(n, draw_slice, pre, half, seed, convention):
    # slices end inside each column, yet the sums and the generator's later
    # draws are those of the whole columns
    cfg = AngleConfig(0.0, math.pi / 3, 2 * math.pi / 3, convention)
    rng = _prepared(make_rng(seed), pre, half)
    expected = _sums_and_after(_triple_sums(PatternCounts.of(sample_dataset(cfg, n, rng))), rng)
    with mock.patch.object(sampler, "_DRAW_SLICE", draw_slice):
        rng = _prepared(make_rng(seed), pre, half)
        got = _sums_and_after(stream_dataset(cfg, n, rng), rng)
    assert got == expected


@pytest.mark.parametrize("n", [1, (1 << 14) - 1, 1 << 14, (1 << 14) + 1, 3 * (1 << 14) + 5])
def test_streamed_sums_are_those_of_the_rows_written(tmp_path, n):
    # the sums that simulate reports are folded from the same slices that
    # its writer turns into rows, and do not depend on the visitor
    path = tmp_path / "rows.csv"
    with open(path, "wb") as fh:
        sums = stream_dataset(CFG, n, make_rng(11), TriplesWriter(fh).write)
    assert sums == _triple_sums(read_pattern_counts(str(path)))
    assert sums == stream_dataset(CFG, n, make_rng(11))


def test_convergence_memory_does_not_grow_with_n():
    # whole int8 columns would take 6 MB at n = 2e6 and 12 MB at 4e6; the
    # streamed sums hold one slice of draws at any n
    with mock.patch.object(sampler, "_DRAW_SLICE", 1 << 12):
        convergence_study(CFG, [10_000], seed=3)  # warm-up
        for n in (2_000_000, 4_000_000):
            tracemalloc.start()
            try:
                convergence_study(CFG, [n], seed=3)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20, (n, peak)


def _devnull_rows(n):
    with open(os.devnull, "wb") as fh:
        stream_dataset(CFG, n, make_rng(3), TriplesWriter(fh).write)


@pytest.mark.parametrize(
    "call",
    [lambda n: convergence_study(CFG, [n], seed=3), _devnull_rows],
    ids=["convergence", "stream-to-rows"],
)
def test_default_slices_hold_under_a_mebibyte(call):
    # the driver at the default slice size holds one slice's raw draws and
    # bool columns, and the row writer one slice's temporaries
    call(10_000)  # warm-up
    tracemalloc.start()
    try:
        call(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak

import itertools
import json
import math
import os
import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bellwigner import sampler
from bellwigner.analytic import half_angle_factor, pattern_probabilities
from bellwigner.data_inequality import PatternCounts, _triple_sums
from bellwigner.datafile import TriplesWriter
from bellwigner.sampler import _usable_cpus, stream_dataset
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
        sampler._sample_sums(CFG, 0, make_rng(1))


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


def _visited(n, rng, conditionals, pause_at=None):
    """Each slice's (lo, copy of its bool columns), in the order the driver visits them.

    The visit of the slice at ``pause_at`` sleeps first, so the other
    threads finish drawing their slices while it waits.
    """
    seen = []

    def record(lo, columns):
        if lo == pause_at:
            time.sleep(0.05)
        seen.append((lo, columns.copy()))

    sampler._sample_slices(n, rng, conditionals, record)
    return seen


def test_slices_are_visited_in_trial_order():
    # threads draw ahead while the first visit sleeps, yet visits stay in order
    with mock.patch.multiple(sampler, _DRAW_SLICE=7, _THREADS=3):
        slices = _visited(50, make_rng(8), [(0.2, 0.7)], pause_at=0)
    assert [(lo, c.shape) for lo, c in slices] == [(lo, (2, min(7, 50 - lo))) for lo in range(0, 50, 7)]


def _raised_on_a_thread(call):
    """What ``call()`` raised, run on its own thread; it must neither hang nor leave threads."""
    raised = []

    def guarded():
        try:
            call()
        except BaseException as exc:
            raised.append(exc)

    before = threading.active_count()
    runner = threading.Thread(target=guarded, daemon=True)
    runner.start()
    runner.join(timeout=30)
    assert not runner.is_alive(), "the driver hung after a thread failed"
    assert threading.active_count() == before
    return raised


@pytest.mark.parametrize(
    "fail_at, error",
    [(14, MemoryError), (14, SystemExit), (21, KeyboardInterrupt)],
    ids=["helper-MemoryError", "helper-SystemExit", "caller-KeyboardInterrupt"],
)
def test_a_failing_visit_stops_every_thread(fail_at, error):
    # one slice's visit raises while the other threads wait for their turn
    # or draw ahead; all of them must finish and the caller gets the error.
    # With three threads the slice at 14 is a helper's, the one at 21 the caller's.
    visited = []

    def visit(lo, columns):
        if lo == fail_at:
            raise error(f"slice at {lo}")
        visited.append(lo)

    with mock.patch.multiple(sampler, _DRAW_SLICE=7, _THREADS=3):
        raised = _raised_on_a_thread(
            lambda: sampler._sample_slices(100, make_rng(8), [(0.2, 0.7)], visit)
        )
    assert [(type(exc), str(exc)) for exc in raised] == [(error, f"slice at {fail_at}")]
    assert visited == list(range(0, fail_at, 7))


def test_a_failing_draw_reaches_the_caller(monkeypatch):
    # a helper's draw raises before its slice's turn to be visited: the
    # threads waiting for that visit must stop, and the caller gets the error
    conditional = sampler._conditional
    caller = []
    helper_calls = itertools.count()

    def failing(*args):
        if threading.current_thread() is not caller[0] and next(helper_calls) == 0:
            raise MemoryError("draw")
        conditional(*args)

    def call():
        caller.append(threading.current_thread())
        sampler._sample_slices(100, make_rng(8), [(0.2, 0.7)], lambda lo, columns: None)

    monkeypatch.setattr(sampler, "_conditional", failing)
    with mock.patch.multiple(sampler, _DRAW_SLICE=7, _THREADS=3):
        raised = _raised_on_a_thread(call)
    assert [(type(exc), str(exc)) for exc in raised] == [(MemoryError, "draw")]


@pytest.mark.parametrize("n, threads", [(6, 1), (7, 1), (10, 1), (14, 2), (20, 2), (21, 3), (50, 3)])
def test_one_thread_per_full_slice(n, threads):
    # the caller draws as one of the threads; a short last slice rides on a
    # thread that draws a full one
    visits = []

    def visit(lo, columns):
        visits.append((lo, threading.get_ident()))

    with mock.patch.multiple(sampler, _DRAW_SLICE=7, _THREADS=3):
        sampler._sample_slices(n, make_rng(8), [(0.2, 0.7)], visit)
    assert [lo for lo, _ in visits] == list(range(0, n, 7))
    idents = {ident for _, ident in visits}
    assert len(idents) == threads
    assert threading.get_ident() in idents


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
    with mock.patch.multiple(sampler, _DRAW_SLICE=5, _THREADS=3):
        _visited(n, rng, [(0.3, 0.6)] * (width - 1))
    assert rng.random(8).tolist() == reference.random(8).tolist()


def test_certain_conditionals_copy_or_flip_a():
    # P(+1 | a) of 0 or 1 makes a conditional column a function of a
    with mock.patch.multiple(sampler, _DRAW_SLICE=16, _THREADS=2):
        slices = _visited(200, make_rng(12), [(0.0, 1.0), (1.0, 0.0)])
    a, same, flipped = np.concatenate([c for _, c in slices], axis=1)
    assert a.dtype == np.bool_
    assert 0 < np.count_nonzero(a) < 200
    assert np.array_equal(same, a)
    assert np.array_equal(flipped, ~a)


def test_sampled_columns_are_read_only_plus_minus_one():
    with mock.patch.multiple(sampler, _DRAW_SLICE=9, _THREADS=2):
        out = sampler._sample_columns(40, make_rng(6), [(0.2, 0.7), (0.9, 0.1)])
    assert out.shape == (3, 40)
    assert out.dtype == np.int8
    assert not out.flags.writeable
    assert set(np.unique(out).tolist()) == {-1, 1}
    with pytest.raises(ValueError):
        out[0, 0] = 1


def _serial_plus_outcomes(n, rng, p, a=None, p_a_plus=0.0):
    # the serial slice loop the threaded sampler replaced, kept as its reference
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
    extra_threads=st.integers(1, 6),
    pre=st.integers(0, 3),
    half=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    convention=st.sampled_from(AngleConvention),
)
def test_threaded_draws_match_serial_reference(
    n, draw_slice, extra_threads, pre, half, seed, convention
):
    # more threads than CPUs, each filling many tiny slices, switching often
    cfg = AngleConfig(0.0, math.pi / 3, 2 * math.pi / 3, convention)
    with mock.patch.object(sampler, "_sample_columns", _serial_sample_columns):
        expected = _draws(cfg, n, _prepared(make_rng(seed), pre, half))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.multiple(
            sampler, _DRAW_SLICE=draw_slice, _THREADS=_usable_cpus() + extra_threads
        ):
            got = _draws(cfg, n, _prepared(make_rng(seed), pre, half))
    finally:
        sys.setswitchinterval(interval)
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
    threads=st.integers(1, 6),
    pre=st.integers(0, 3),
    half=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    convention=st.sampled_from(AngleConvention),
)
def test_streamed_sums_match_column_reference(
    n, draw_slice, threads, pre, half, seed, convention
):
    # slices end inside each column and threads switch often, yet the sums
    # and the generator's later draws are those of the whole columns
    cfg = AngleConfig(0.0, math.pi / 3, 2 * math.pi / 3, convention)
    rng = _prepared(make_rng(seed), pre, half)
    expected = _sums_and_after(_triple_sums(PatternCounts.of(sample_dataset(cfg, n, rng))), rng)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.multiple(sampler, _DRAW_SLICE=draw_slice, _THREADS=threads):
            rng = _prepared(make_rng(seed), pre, half)
            got = _sums_and_after(sampler._sample_sums(cfg, n, rng), rng)
    finally:
        sys.setswitchinterval(interval)
    assert got == expected


def test_convergence_memory_does_not_grow_with_n():
    # whole int8 columns would take 6 MB at n = 2e6 and 12 MB at 4e6; the
    # streamed sums hold a few slices per thread at any n
    with mock.patch.multiple(sampler, _DRAW_SLICE=1 << 12, _THREADS=4):
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
    # two threads at the default slice size, each holding one slice's raw
    # draws and bool columns, and the row writer one slice's temporaries;
    # with 2^16-trial slices both calls peaked at 2.4 MiB
    with mock.patch.object(sampler, "_THREADS", 2):
        call(10_000)  # warm-up
        tracemalloc.start()
        try:
            call(10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2**20, peak

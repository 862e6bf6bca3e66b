import itertools

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from bellwigner import (
    DataSetQuad,
    DataSetTriple,
    EmptyDataError,
    ExactCorrelation,
    InequalityKind,
    LengthMismatchError,
    Mode,
    PatternCounts,
    cross_correlation,
    data_bell_margin_3,
    data_bell_margin_4,
    quad_brackets,
)
from bellwigner.data_inequality import _pattern_codes, _triple_sums
from conftest import datasets, outcomes, quad_rows, trial_rows

ALL_TRIPLES = list(itertools.product((1, -1), repeat=3))
ALL_QUADS = list(itertools.product((1, -1), repeat=4))


def test_exact_correlation_bounds():
    c = ExactCorrelation(1, 3)
    assert c.value == 1 / 3
    with pytest.raises(ValueError):
        ExactCorrelation(4, 3)
    with pytest.raises(ValueError):
        ExactCorrelation(0, 0)


def test_cross_correlation_examples():
    assert cross_correlation([1, 1, 1, 1], [1, 1, 1, 1]).value == 1.0
    assert cross_correlation([1, -1, 1, -1], [1, -1, -1, 1]).value == 0.0
    c = cross_correlation([1, 1, -1], [1, -1, -1])
    assert (c.numerator, c.denominator) == (1, 3)


def test_cross_correlation_errors():
    with pytest.raises(LengthMismatchError):
        cross_correlation([1, 1], [1])
    with pytest.raises(EmptyDataError):
        cross_correlation([], [])


@given(st.lists(outcomes, min_size=1, max_size=50), st.data())
def test_cross_correlation_symmetry_and_extremes(xs, data):
    ys = data.draw(st.lists(outcomes, min_size=len(xs), max_size=len(xs)))
    ab = cross_correlation(xs, ys)
    ba = cross_correlation(ys, xs)
    assert (ab.numerator, ab.denominator) == (ba.numerator, ba.denominator)
    assert abs(ab.value) <= 1.0
    assert cross_correlation(xs, xs).value == 1.0
    assert cross_correlation(xs, [-x for x in xs]).value == -1.0


def test_margin_3_equal_settings_has_zero_margin():
    d = DataSetTriple.from_trials([(1, 1, 1)] * 4)
    r = data_bell_margin_3(d)
    assert (r.lhs, r.rhs, r.margin) == (0.0, 0.0, 0.0)
    assert r.satisfied
    assert r.kind is InequalityKind.DATA_BELL_3
    assert r.mode is Mode.EXACT_DATA
    assert r.tolerance == 0.0


def test_margin_3_hand_example():
    d = DataSetTriple.from_trials([(1, 1, -1), (1, -1, 1)])
    r = data_bell_margin_3(d)
    assert (r.lhs, r.rhs, r.margin) == (0.0, 2.0, 2.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_margin_3_nonnegative_exhaustive_small_n(n):
    for rows in itertools.product(ALL_TRIPLES, repeat=n):
        r = data_bell_margin_3(DataSetTriple.from_trials(rows))
        assert r.satisfied
        assert r.margin >= 0.0


def _margin_3_oracle(d: DataSetTriple) -> float:
    # independent pure-python route: per-trial integer sums over the columns
    a, b, bp = d.a.tolist(), d.b.tolist(), d.bp.tolist()
    sab = sum(x * y for x, y in zip(a, b))
    sabp = sum(x * y for x, y in zip(a, bp))
    sbbp = sum(x * y for x, y in zip(b, bp))
    return ((d.n - sbbp) - abs(sab - sabp)) / d.n


@given(datasets)
def test_margin_3_matches_pure_python_oracle(d):
    assert data_bell_margin_3(d).margin == _margin_3_oracle(d)


@given(datasets)
def test_margin_3_is_always_nonnegative(d):
    r = data_bell_margin_3(d)
    assert r.satisfied
    assert r.margin >= 0.0


@given(datasets)
def test_side_flip_negates_the_bb_sum(d):
    # a' = -b' on the other side: flipping b' swaps each pattern with its
    # neighbour in the last bit, so sum(b a') = -sum(b b') and the rhs
    # 1 + C(b, a') is the rhs 1 - C(b, b')
    counts = PatternCounts.of(d)
    flipped = PatternCounts.of(DataSetTriple(d.a, d.b, -d.bp))
    assert flipped.counts.tolist() == counts.counts[np.arange(8) ^ 1].tolist()
    assert _triple_sums(flipped)[2] == -_triple_sums(counts)[2]


def _unit_counts(width, p):
    counts = np.zeros(1 << width, dtype=np.int64)
    counts[p] = 1
    return PatternCounts(counts)


def test_margin_3_halves_have_coefficients_zero_or_four_on_every_pattern():
    # (N - sum bb') -+ (sum ab - sum ab') is linear in the counts; on pattern
    # p its coefficient is 1 - bb' -+ a(b - b'). All are 0 or 4, so with
    # counts >= 0 both halves, and the margin, are >= 0 at every N.
    coefficients = set()
    for p, (a, b, bp) in enumerate(itertools.product((-1, 1), repeat=3)):
        sab, sabp, sbbp = _triple_sums(_unit_counts(3, p))
        assert (sab, sabp, sbbp) == (a * b, a * bp, b * bp)
        for sign in (1, -1):
            coefficient = (1 - sbbp) - sign * (sab - sabp)
            assert coefficient == 1 - b * bp - sign * a * (b - bp)
            coefficients.add(coefficient)
    assert coefficients == {0, 4}


def test_margin_4_halves_have_coefficients_zero_or_four_on_every_pattern():
    # 2N -+ (bracket total): on pattern p the coefficient is 2 -+ bracket
    coefficients = set()
    for p, row in enumerate(itertools.product((-1, 1), repeat=4)):
        r = data_bell_margin_4(_unit_counts(4, p))
        bracket = int(quad_brackets(DataSetQuad.from_trials([row]))[0])
        assert r.lhs == abs(bracket)
        coefficients |= {2 - bracket, 2 + bracket}
    assert coefficients == {0, 4}


@given(st.lists(trial_rows, min_size=1, max_size=64), st.data())
def test_counts_of_two_halves_add_to_the_whole(rows, data):
    cut = data.draw(st.integers(0, len(rows)))
    whole = PatternCounts.of(DataSetTriple.from_trials(rows))
    parts = [PatternCounts.from_columns(np.array(part, dtype=np.int8).reshape(-1, 3).T)
             for part in (rows[:cut], rows[cut:])]
    assert parts[0] + parts[1] == whole
    assert whole.n == len(rows) and whole.width == 3


@pytest.mark.parametrize("rows", [ALL_TRIPLES, ALL_QUADS], ids=["triple", "quad"])
def test_pattern_codes_put_the_first_column_in_the_highest_bit(rows):
    width = len(rows[0])
    codes = _pattern_codes(np.array(rows, dtype=np.int8).T)
    assert codes.dtype == np.uint8
    expected = [sum(1 << (width - 1 - j) for j, v in enumerate(row) if v > 0) for row in rows]
    assert codes.tolist() == expected


def test_sums_from_counts_equal_column_products():
    rng = np.random.default_rng(20250810)
    for n in (1, 2, 3, 1000, (1 << 16) + 3):
        cols = rng.integers(0, 2, size=(3, n), dtype=np.int8) * 2 - 1
        counts = PatternCounts.of(DataSetTriple(*cols))
        products = [int((cols[i] * cols[j]).sum(dtype=np.int64)) for i, j in ((0, 1), (0, 2), (1, 2))]
        assert list(_triple_sums(counts)) == products
        quad = rng.integers(0, 2, size=(4, n), dtype=np.int8) * 2 - 1
        r = data_bell_margin_4(PatternCounts.of(DataSetQuad(*quad)))
        assert r.lhs == abs(int(quad_brackets(DataSetQuad(*quad)).sum(dtype=np.int64))) / n


def test_pattern_counts_reject_bad_values():
    with pytest.raises(ValueError):
        PatternCounts(np.zeros(5))
    with pytest.raises(ValueError):
        PatternCounts(np.array([-1] + [0] * 7))
    with pytest.raises(ValueError):
        PatternCounts(np.zeros(8)) + PatternCounts(np.zeros(16))
    with pytest.raises(ValueError):
        data_bell_margin_3(PatternCounts(np.ones(16)))
    with pytest.raises(EmptyDataError):
        data_bell_margin_4(PatternCounts(np.zeros(16)))


def test_quad_brackets_are_plus_minus_two_for_all_sixteen():
    brackets = quad_brackets(DataSetQuad.from_trials(ALL_QUADS))
    assert brackets.shape == (16,)
    assert set(brackets.tolist()) == {-2, 2}


def test_margin_4_hand_examples():
    r = data_bell_margin_4(DataSetQuad.from_trials([(1, 1, 1, 1)]))
    assert (r.lhs, r.rhs, r.margin) == (2.0, 2.0, 0.0)
    assert r.kind is InequalityKind.DATA_BELL_4
    r = data_bell_margin_4(DataSetQuad.from_trials([(1, 1, 1, -1)]))
    assert (r.lhs, r.margin) == (2.0, 0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_margin_4_nonnegative_exhaustive_small_n(n):
    for quads in itertools.product(ALL_QUADS, repeat=n):
        r = data_bell_margin_4(DataSetQuad.from_trials(quads))
        assert r.satisfied
        assert r.lhs <= 2.0


@given(st.lists(quad_rows, min_size=1, max_size=40))
def test_margin_4_nonnegative_random(rows):
    r = data_bell_margin_4(DataSetQuad.from_trials(rows))
    assert r.satisfied
    assert r.margin >= 0.0


def _margin_4_reference(rows) -> tuple[float, float, float]:
    # the per-row loop the vectorised sum replaced: (lhs, rhs, margin)
    total = 0
    n = 0
    for a, ap, b, bp in rows:
        total += a * b + a * bp + ap * b - ap * bp
        n += 1
    return abs(total) / n, 2 * n / n, (2 * n - abs(total)) / n


@given(st.lists(quad_rows, min_size=1, max_size=40))
def test_margin_4_matches_per_row_reference(rows):
    r = data_bell_margin_4(DataSetQuad.from_trials(rows))
    assert (r.lhs, r.rhs, r.margin) == _margin_4_reference(rows)


@given(trial_rows)
def test_single_trial_margin_is_exactly_zero(row):
    # one trial: either b = b' (both sides 0) or b != b' (both sides 2)
    r = data_bell_margin_3(DataSetTriple.from_trials([row]))
    assert r.margin == 0.0

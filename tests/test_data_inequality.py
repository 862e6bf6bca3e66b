import itertools
from fractions import Fraction

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
    cross_correlation,
    data_bell_margin_3,
    data_bell_margin_3_flipped,
    data_bell_margin_4,
    quad_brackets,
)
from conftest import datasets, outcomes, quad_rows, trial_rows

ALL_TRIPLES = list(itertools.product((1, -1), repeat=3))
ALL_QUADS = list(itertools.product((1, -1), repeat=4))


def test_exact_correlation_bounds():
    c = ExactCorrelation(1, 3)
    assert c.value == 1 / 3
    assert c.as_fraction() == Fraction(1, 3)
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


def test_margin_3_flipped_hand_examples():
    d = DataSetTriple.from_trials([(1, 1, 1)] * 3)
    r = data_bell_margin_3_flipped(d)
    assert (r.rhs, r.margin) == (0.0, 0.0)
    d = DataSetTriple.from_trials([(1, 1, -1), (1, -1, 1)])
    r = data_bell_margin_3_flipped(d)
    assert (r.rhs, r.margin) == (2.0, 2.0)


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
def test_flipped_margin_identical_to_plain(d):
    plain = data_bell_margin_3(d)
    flipped = data_bell_margin_3_flipped(d)
    assert flipped.margin == plain.margin
    assert flipped.rhs == plain.rhs
    assert flipped.lhs == plain.lhs


def test_flipped_margin_identical_on_bulk_random_datasets():
    rng = np.random.default_rng(20250810)
    for _ in range(10_000):
        n = int(rng.integers(1, 30))
        cols = rng.integers(0, 2, size=(n, 3), dtype=np.int8) * 2 - 1
        d = DataSetTriple(cols[:, 0], cols[:, 1], cols[:, 2])
        assert data_bell_margin_3_flipped(d).margin == data_bell_margin_3(d).margin


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

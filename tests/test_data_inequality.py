import itertools

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from bellwigner import (
    DataSetQuad,
    DataSetTriple,
    EmptyDataError,
    InequalityKind,
    LengthMismatchError,
    Mode,
    PatternCounts,
    data_bell_margin_3,
    data_bell_margin_4,
)
from bellwigner import data_inequality
from bellwigner.data_inequality import (
    _QUAD_BRACKETS,
    _PatternFold,
    _pattern_codes,
    _triple_sums,
    sign_patterns,
)
from conftest import bincount_reference, datasets, outcomes, quad_rows, trial_rows

ALL_TRIPLES = list(itertools.product((1, -1), repeat=3))
ALL_QUADS = list(itertools.product((1, -1), repeat=4))


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
    assert list(flipped.counts) == [counts.counts[p ^ 1] for p in range(8)]
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
    for p, (a, ap, b, bp) in enumerate(itertools.product((-1, 1), repeat=4)):
        r = data_bell_margin_4(_unit_counts(4, p))
        bracket = a * (b + bp) + ap * (b - bp)
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


@given(
    st.one_of(
        st.lists(trial_rows, min_size=1, max_size=64).map(DataSetTriple.from_trials),
        st.lists(quad_rows, min_size=1, max_size=64).map(DataSetQuad.from_trials),
    ),
    st.sampled_from([1, 5, 1 << 16]),
)
def test_counts_of_a_data_set_fold_its_checked_columns_as_they_are(d, count_rows):
    # the data set checked its +-1 columns when it was built, so `of` folds
    # them straight into the counts; from_columns checks them again
    columns = [np.array(c) for c in vars(d).values()]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_inequality, "_COUNT_ROWS", count_rows)
        expected = PatternCounts.from_columns(columns)

        def unchecked(values):
            raise AssertionError("PatternCounts.of re-checked its columns")

        mp.setattr(data_inequality, "outcome_array", unchecked)
        assert PatternCounts.of(d) == expected


@pytest.mark.parametrize("width", [3, 4])
@pytest.mark.parametrize("n", [1, 7, (1 << 16) - 1, 1 << 16, (1 << 16) + 1])
def test_fold_matches_a_numpy_bincount(width, n):
    # lengths around _COUNT_ROWS: one short slice, one full slice, a full one and one row
    rng = np.random.default_rng([width, n])
    columns = rng.integers(0, 2, size=(width, n), dtype=np.int8) * 2 - 1
    expected = bincount_reference(columns)
    data = (DataSetTriple if width == 3 else DataSetQuad)(*columns)
    assert list(PatternCounts.from_columns(columns).counts) == expected
    assert list(PatternCounts.of(data).counts) == expected
    fold = _PatternFold(width)
    fold.frombytes(columns.T.tobytes())  # the row-major cells a file sink is given
    assert fold.counts == expected


# runs the data layer in a child interpreter in which any import of numpy fails
DATA_LAYER_WITHOUT_NUMPY = """\
import sys
sys.modules["numpy"] = None
from bellwigner.data_inequality import PatternCounts, data_bell_margin_3, data_bell_margin_4
from bellwigner.datafile import read_pattern_counts
triples = PatternCounts(range(8)) + PatternCounts([1] * 8)
print(data_bell_margin_3(triples).margin, data_bell_margin_4(PatternCounts(range(16))).margin)
for path in sys.argv[1:]:
    print(*read_pattern_counts(path).counts)
"""


def test_the_data_layer_runs_without_numpy(python, tmp_path):
    files = {
        "canonical.csv": "a,b,bp\n+1,-1,+1\n-1,-1,+1\n+1,-1,+1\n",
        "mixed.csv": "a,b,bp\r\n1, -1,+1\r\n-1 ,-1,1\r\n",
        "quoted.csv": 'a,"b",bp\n"+1",-1, 1\n',
        "quads.csv": "a,ap,b,bp\n+1,-1,+1,1\n-1,-1,-1,-1\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = python(DATA_LAYER_WITHOUT_NUMPY, *files, cwd=tmp_path).splitlines()
    triples = PatternCounts(range(8)) + PatternCounts([1] * 8)
    assert out[0].split() == [
        repr(data_bell_margin_3(triples).margin),
        repr(data_bell_margin_4(PatternCounts(range(16))).margin),
    ]
    expected = [[0, 1, 0, 0, 0, 2, 0, 0], [0, 1, 0, 0, 0, 1, 0, 0], [0] * 5 + [1, 0, 0]]
    expected.append([1] + [0] * 10 + [1] + [0] * 4)
    assert [list(map(int, line.split())) for line in out[1:]] == expected


@pytest.mark.parametrize("rows", [ALL_TRIPLES, ALL_QUADS], ids=["triple", "quad"])
def test_pattern_codes_put_the_first_column_in_the_highest_bit(rows):
    width = len(rows[0])
    codes = _pattern_codes(np.array(rows, dtype=np.int8).T)
    assert codes.dtype == np.uint8
    expected = [sum(1 << (width - 1 - j) for j, v in enumerate(row) if v > 0) for row in rows]
    assert codes.tolist() == expected


@pytest.mark.parametrize("width", [3, 4])
def test_sign_patterns_are_in_pattern_code_order(width):
    codes = _pattern_codes(np.array(sign_patterns(width), dtype=np.int8).T)
    assert codes.tolist() == list(range(1 << width))


def test_sums_from_counts_equal_column_products():
    rng = np.random.default_rng(20250810)
    for n in (1, 2, 3, 1000, (1 << 16) + 3):
        cols = rng.integers(0, 2, size=(3, n), dtype=np.int8) * 2 - 1
        counts = PatternCounts.of(DataSetTriple(*cols))
        products = [int((cols[i] * cols[j]).sum(dtype=np.int64)) for i, j in ((0, 1), (0, 2), (1, 2))]
        assert list(_triple_sums(counts)) == products
        quad = rng.integers(0, 2, size=(4, n), dtype=np.int8) * 2 - 1
        r = data_bell_margin_4(PatternCounts.of(DataSetQuad(*quad)))
        a, ap, b, bp = quad
        total = int((a * (b + bp) + ap * (b - bp)).sum(dtype=np.int64))
        assert r.lhs == abs(total) / n


def _ab_sum(xs, ys) -> tuple[int, int]:
    # sum(ab) over the counts of columns a = xs, b = ys (b' is a filler), and N
    counts = PatternCounts.from_columns([xs, ys, xs])
    return _triple_sums(counts)[0], counts.n


def test_triple_sums_examples():
    assert _ab_sum([1, 1, 1, 1], [1, 1, 1, 1]) == (4, 4)
    assert _ab_sum([1, -1, 1, -1], [1, -1, -1, 1]) == (0, 4)
    assert _ab_sum([1, 1, -1], [1, -1, -1]) == (1, 3)


@given(st.lists(outcomes, min_size=1, max_size=50), st.data())
def test_triple_sums_symmetry_and_extremes(xs, data):
    ys = data.draw(st.lists(outcomes, min_size=len(xs), max_size=len(xs)))
    s, n = _ab_sum(xs, ys)
    assert _ab_sum(ys, xs) == (s, n)
    assert n == len(xs) and abs(s) <= n
    assert _ab_sum(xs, xs) == (n, n)
    assert _ab_sum(xs, [-x for x in xs]) == (-n, n)


def test_pattern_counts_reject_bad_values():
    with pytest.raises(ValueError):
        PatternCounts(np.zeros(5, dtype=np.int64))
    with pytest.raises(ValueError):
        PatternCounts(np.array([-1] + [0] * 7))
    with pytest.raises(ValueError):
        PatternCounts(np.zeros(8, dtype=np.int64)) + PatternCounts(np.zeros(16, dtype=np.int64))
    with pytest.raises(ValueError):
        data_bell_margin_3(PatternCounts(np.ones(16, dtype=np.int64)))
    with pytest.raises(EmptyDataError):
        data_bell_margin_4(PatternCounts(np.zeros(16, dtype=np.int64)))
    # a count is an integer: no float is truncated and no string parsed
    for bad in ([0.5] * 8, ["3"] * 8, np.ones(8), [np.float64(1.0)] * 8):
        with pytest.raises(TypeError):
            PatternCounts(bad)


def test_pattern_counts_keep_numpy_integer_counts_as_ints():
    c = PatternCounts(np.arange(8, dtype=np.int64))
    assert c.counts == tuple(range(8))
    assert all(type(x) is int for x in c.counts)


def test_quad_brackets_are_plus_minus_two_for_all_sixteen():
    assert len(_QUAD_BRACKETS) == 16
    assert set(_QUAD_BRACKETS) == {-2, 2}


def test_counts_from_columns_reject_unequal_lengths_and_non_outcomes():
    # a length-1 column must not broadcast, and 0 / 2 must not count as -1 / +1
    a, b, bp = np.array([1, -1, 1, 1]), np.array([1, 1, -1, 1]), np.array([-1, -1, 1, 1])
    with pytest.raises(LengthMismatchError):
        PatternCounts.from_columns([a, np.array([1]), bp])
    for bad in (0, 2, "1"):
        with pytest.raises(ValueError, match="only \\+1/-1 allowed"):
            PatternCounts.from_columns([a, np.array([1, 1, bad, 1]), bp])
    assert list(PatternCounts.from_columns([a, b, bp]).counts) == [0, 0, 1, 0, 0, 1, 1, 1]
    assert PatternCounts.from_columns([a.tolist(), b.tolist(), bp.tolist()]).n == 4
    # True and 1.0 are +1, as outcome_array reads them
    ones = PatternCounts.from_columns([[True] * 4, b.astype(float), bp])
    assert ones == PatternCounts.from_columns([[1] * 4, b, bp])
    assert list(ones.counts) == [0] * 5 + [1, 2, 1]


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

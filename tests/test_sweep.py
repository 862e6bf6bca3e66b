import io
import math
import tracemalloc
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellwigner import (
    VIOLATION_THRESHOLD,
    AngleConvention,
    InequalityKind,
    Mode,
    bell_margin,
    grid_angles,
    grid_sweep,
    iter_records,
    violation_census,
    wigner_margin,
    write_records_csv,
)
from bellwigner import sweep
from bellwigner.analytic import (
    _margin_steps,
    bell_margin_parts,
    half_angle_factor,
    wigner_margin_parts,
)
from bellwigner.sweep import SWEEP_CSV_COLUMNS, _float_text, _grid_floats, _record_rows

SPIN = AngleConvention.SPIN
OPTICAL = AngleConvention.OPTICAL
WIGNER = InequalityKind.WIGNER
BELL = InequalityKind.CORR_BELL


def test_grid_angles_half_open_uniform():
    assert np.allclose(grid_angles(4), [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert grid_angles(60).max() < 2 * math.pi
    with pytest.raises(ValueError):
        grid_angles(1)


def test_record_path_angles_are_grid_angles():
    # the one grid, built without numpy, is numpy's i * (2pi / R) bit for bit
    for resolution in range(2, 2001):
        expected = np.arange(resolution) * (2.0 * np.pi / resolution)
        assert grid_angles(resolution).tobytes() == expected.tobytes(), resolution
        assert list(_grid_floats(resolution)) == expected.tolist(), resolution
    with pytest.raises(ValueError):
        _grid_floats(1)


def test_smallest_grid_completes():
    result = grid_sweep(2, SPIN, WIGNER, Mode.PAPER)
    records = list(iter_records(2, SPIN, WIGNER, Mode.PAPER))
    assert result.n_points == 8
    assert len(records) == 8
    for a, b, bp, lhs, rhs, margin in records:
        assert margin == rhs - lhs


def test_paper_mode_has_no_violations():
    for kind in (BELL, WIGNER):
        result = grid_sweep(30, SPIN, kind, Mode.PAPER)
        assert result.min_margin >= -1e-12
        assert result.violations == 0


def test_naive_wigner_violations_found():
    result = grid_sweep(12, SPIN, WIGNER, Mode.NAIVE)
    assert result.violations > 0
    assert result.min_margin <= -0.124
    # argmin really is a violating configuration
    recomputed = wigner_margin(result.argmin, Mode.NAIVE)
    assert abs(recomputed.margin - result.min_margin) <= 1e-15
    assert not recomputed.satisfied


def test_naive_bell_violations_found():
    result = grid_sweep(12, SPIN, BELL, Mode.NAIVE)
    assert result.violations > 0
    assert result.min_margin <= -0.4


def test_sweep_rejects_data_kinds():
    with pytest.raises(ValueError):
        grid_sweep(4, SPIN, InequalityKind.DATA_BELL_3, Mode.PAPER)


def test_sweep_rejects_exact_data_mode():
    with pytest.raises(ValueError, match="PAPER or"):
        grid_sweep(4, SPIN, WIGNER, Mode.EXACT_DATA)


def brute_force_census(resolution, convention, kind, mode):
    """(violations, min margin) from every point of the full R^3 grid."""
    angles = np.arange(resolution) * (2.0 * math.pi / resolution)
    a, b, bp = np.meshgrid(angles, angles, angles, indexing="ij")
    parts = bell_margin_parts if kind is BELL else wigner_margin_parts
    lhs, rhs = parts(a, b, bp, half_angle_factor(convention), mode)
    margin = rhs - lhs
    return int((margin < -VIOLATION_THRESHOLD).sum()), float(margin.min())


@pytest.mark.parametrize("mode", [Mode.PAPER, Mode.NAIVE])
@pytest.mark.parametrize("kind", [BELL, WIGNER])
@pytest.mark.parametrize("convention", [SPIN, OPTICAL])
@pytest.mark.parametrize("resolution", [2, 3, 5, 12, 24, 61])
def test_sweep_matches_brute_force_grid(resolution, convention, kind, mode):
    violations, min_margin = brute_force_census(resolution, convention, kind, mode)
    result = grid_sweep(resolution, convention, kind, mode)
    assert result.n_points == resolution**3
    assert result.violations == violations
    assert abs(result.min_margin - min_margin) <= 1e-12
    assert result.argmin.a == 0.0
    scalar = bell_margin if kind is BELL else wigner_margin
    assert abs(scalar(result.argmin, mode).margin - result.min_margin) <= 1e-12


def whole_plane(ia, resolution, convention, kind, mode):
    """(lhs, rhs) over the whole (b, bp) plane of a-index `ia`: the numpy reference."""
    angles = grid_angles(resolution)
    b, bp = np.meshgrid(angles, angles, indexing="ij")
    parts = bell_margin_parts if kind is BELL else wigner_margin_parts
    return parts(angles[ia], b, bp, half_angle_factor(convention), mode)


GRID_CASES = dict(
    resolution=st.integers(2, 70),
    convention=st.sampled_from([SPIN, OPTICAL]),
    kind=st.sampled_from([BELL, WIGNER]),
    mode=st.sampled_from([Mode.PAPER, Mode.NAIVE]),
)


CASES = [
    (convention, kind, mode)
    for convention in (SPIN, OPTICAL) for kind in (BELL, WIGNER) for mode in (Mode.PAPER, Mode.NAIVE)
]


@pytest.mark.parametrize("convention, kind, mode", CASES)
def test_candidate_sweep_matches_whole_plane(convention, kind, mode):
    # the first minimum of the numpy a = 0 plane, bit for bit
    for resolution in [*range(2, 301), 333, 1000, 2000]:
        lhs, rhs = whole_plane(0, resolution, convention, kind, mode)
        margin = rhs - lhs
        ib, ibp = divmod(int(np.argmin(margin)), resolution)
        result = grid_sweep(resolution, convention, kind, mode)
        angles = grid_angles(resolution)
        assert result.min_margin.hex() == float(margin[ib, ibp]).hex(), resolution
        assert (result.argmin.b, result.argmin.bp) == (angles[ib], angles[ibp]), resolution


@pytest.mark.parametrize("convention, kind, mode", CASES)
def test_no_point_off_the_candidates_beats_the_minimum_at_large_resolution(convention, kind, mode):
    # 20 random rows and 20 random columns of the R = 10^5 plane, through
    # the numpy kernel: nothing below the minimum, nor equal to it earlier
    resolution = 10**5
    result = grid_sweep(resolution, convention, kind, mode)
    angles = grid_angles(resolution)
    at = int(np.flatnonzero(angles == result.argmin.b)[0]) * resolution + int(
        np.flatnonzero(angles == result.argmin.bp)[0]
    )
    parts = bell_margin_parts if kind is BELL else wigner_margin_parts
    k = half_angle_factor(convention)
    rng = np.random.default_rng(2024)
    flat = np.arange(resolution)
    for ib in rng.choice(resolution, 20, replace=False):
        lhs, rhs = parts(0.0, angles[ib], angles, k, mode)
        margin = rhs - lhs
        assert not (margin < result.min_margin).any(), ib
        assert not ((margin == result.min_margin) & (ib * resolution + flat < at)).any(), ib
    for ibp in rng.choice(resolution, 20, replace=False):
        lhs, rhs = parts(0.0, angles, angles[ibp], k, mode)
        margin = rhs - lhs
        assert not (margin < result.min_margin).any(), ibp
        assert not ((margin == result.min_margin) & (flat * resolution + ibp < at)).any(), ibp


def assert_record_rows_match_whole_plane(resolution, convention, kind, mode):
    _, rows = _record_rows(resolution, convention, kind, mode)
    for ia in range(resolution):
        lhs, rhs = whole_plane(ia, resolution, convention, kind, mode)
        plane = list(islice(rows, resolution))
        assert [row[:2] for row in plane] == [(ia, ib) for ib in range(resolution)]
        got = np.array([row[2] for row in plane])
        # bitwise: tobytes tells -0.0 from 0.0
        assert got[..., 0].tobytes() == lhs.tobytes(), (resolution, ia)
        assert got[..., 1].tobytes() == rhs.tobytes(), (resolution, ia)
    assert next(rows, None) is None


@settings(max_examples=40, deadline=None)
@given(**GRID_CASES)
def test_record_rows_match_whole_plane(resolution, convention, kind, mode):
    assert_record_rows_match_whole_plane(resolution, convention, kind, mode)


@pytest.mark.parametrize("convention, kind, mode", CASES)
def test_record_rows_match_whole_plane_at_every_small_resolution(convention, kind, mode):
    for resolution in range(2, 41):
        assert_record_rows_match_whole_plane(resolution, convention, kind, mode)


def test_tied_minimum_keeps_the_first():
    # R=5 spin naive Bell takes its minimum at plane indices 7, 11, 19 and
    # 23 exactly; 7 = (1, 2) lies in column 2 of a candidate index, while
    # row 1 is no candidate
    lhs, rhs = whole_plane(0, 5, SPIN, BELL, Mode.NAIVE)
    margin = (rhs - lhs).ravel()
    assert np.flatnonzero(margin == margin.min()).tolist() == [7, 11, 19, 23]
    angles = grid_angles(5)
    result = grid_sweep(5, SPIN, BELL, Mode.NAIVE)
    assert (result.argmin.b, result.argmin.bp) == (angles[1], angles[2])
    assert result.min_margin == margin[7]


@pytest.mark.parametrize("convention", [SPIN, OPTICAL])
def test_paper_bell_candidates_hold_both_exact_zero_lines(monkeypatch, convention):
    # the PAPER Bell margin 4 min(W(u, v), W(v, u)) is exactly 0 on row 0
    # and on column 0. A kernel that lowers one of those points must see it
    # found; row 0 is a candidate only as the transpose of column 0
    angles = grid_angles(12).tolist()
    for ib, ibp in [(0, j) for j in range(12)] + [(i, 0) for i in range(12)]:
        def lowered(kind, mode, at=(angles[ib], angles[ibp])):
            # each term carries its setting difference, which is b or bp at a = 0
            term, third, sides = _margin_steps(kind, mode)

            def tagged(trig, k, d):
                return d, term(trig, k, d)

            def lowered_sides(term_b, term_bp, third_bbp):
                lhs, rhs = sides(term_b[1], term_bp[1], third_bbp)
                return (lhs + 1.0 if (term_b[0], term_bp[0]) == at else lhs), rhs

            return tagged, third, lowered_sides

        monkeypatch.setattr(sweep, "_margin_steps", lowered)
        result = grid_sweep(12, convention, BELL, Mode.PAPER)
        assert (result.argmin.b, result.argmin.bp) == (angles[ib], angles[ibp])
        assert abs(result.min_margin + 1.0) < 1e-12


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("resolution", [1000, 2000])
def test_census_memory_does_not_grow_with_resolution(resolution):
    # a whole R=2000 plane is 32 MB per float64 array; the candidate sweep
    # holds one O(R) array of row bounds and their sorted order
    grid_sweep(60, SPIN, WIGNER, Mode.NAIVE)  # warm-up
    peak = _peak_bytes(lambda: grid_sweep(resolution, SPIN, WIGNER, Mode.NAIVE))
    assert peak < 2 * 2**20, peak


def test_record_rows_start_in_o_r_memory():
    # the first rows of an R=3000 stream come from O(R) terms, not a
    # 9*10^6-point plane
    def first_rows():
        _, rows = _record_rows(3000, SPIN, BELL, Mode.NAIVE)
        return list(islice(rows, 4))

    first_rows()  # warm-up
    peak = _peak_bytes(first_rows)
    assert peak < 2 * 2**20, peak


def test_iter_records_covers_grid_in_order():
    records = list(iter_records(3, SPIN, BELL, Mode.PAPER))
    assert len(records) == 27
    angles = grid_angles(3)
    assert records[0][:3] == (0.0, 0.0, 0.0)
    assert records[-1][:3] == (angles[-1],) * 3
    assert records[1][:3] == (0.0, 0.0, angles[1])
    assert all(type(r) is tuple and len(r) == 6 for r in records)


def test_huge_resolution_fails_before_any_record():
    # the angle table is one allocation made before the header is written
    buf = io.StringIO()
    with pytest.raises(MemoryError, match="resolution 1000000000000000 needs"):
        write_records_csv(buf, 10**15, SPIN, WIGNER, Mode.NAIVE)
    assert buf.getvalue() == ""
    with pytest.raises(MemoryError, match="needs 8,000,000,000,000,000 bytes"):
        next(iter_records(10**15, SPIN, BELL, Mode.PAPER))


def test_write_records_csv_streams_all_rows():
    buf = io.StringIO()
    n = write_records_csv(buf, 3, SPIN, WIGNER, Mode.NAIVE)
    lines = buf.getvalue().strip().split("\n")
    assert n == 27
    assert len(lines) == 28
    assert lines[0] == "a,b,bp,kind,mode,lhs,rhs,margin"
    cells = lines[1].split(",")
    assert cells[3] == "WIGNER"
    assert cells[4] == "NAIVE"
    assert float(cells[7]) == float(cells[6]) - float(cells[5])


@pytest.mark.parametrize(
    "args",
    [
        (1, SPIN, WIGNER, Mode.NAIVE),
        (3, SPIN, WIGNER, Mode.EXACT_DATA),
        (3, SPIN, InequalityKind.DATA_BELL_3, Mode.PAPER),
        (3, "spin", WIGNER, Mode.NAIVE),
    ],
    ids=["resolution", "mode", "kind", "convention"],
)
def test_write_records_csv_checks_arguments_before_writing(args):
    buf = io.StringIO()
    with pytest.raises(ValueError):
        write_records_csv(buf, *args)
    assert buf.getvalue() == ""


def reference_records_csv(out, resolution, convention, kind, mode):
    """The record writer with one plain repr per cell."""
    out.write(",".join(SWEEP_CSV_COLUMNS) + "\n")
    angles = [repr(x) for x in grid_angles(resolution).tolist()]
    names = f"{kind.name},{mode.name}"
    _, rows = _record_rows(resolution, convention, kind, mode)
    for ia, ib, row in rows:
        pre = f"{angles[ia]},{angles[ib]},"
        out.write("".join([
            f"{pre}{bp},{names},{left!r},{right!r},{right - left!r}\n"
            for bp, (left, right) in zip(angles, row)
        ]))


# None keeps the default cap; 1-3 entries make the cache clear all the time
CACHE_LIMITS = [1, 2, 3, None]


@pytest.mark.parametrize("limit", CACHE_LIMITS)
@given(
    resolution=st.integers(2, 13),
    convention=st.sampled_from([SPIN, OPTICAL]),
    kind=st.sampled_from([BELL, WIGNER]),
    mode=st.sampled_from([Mode.PAPER, Mode.NAIVE]),
)
def test_cached_writer_matches_plain_repr_writer(limit, resolution, convention, kind, mode):
    expected = io.StringIO()
    reference_records_csv(expected, resolution, convention, kind, mode)
    got = io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            mp.setattr(sweep, "_TEXT_CACHE_LIMIT", limit)
        assert write_records_csv(got, resolution, convention, kind, mode) == resolution**3
    assert got.getvalue() == expected.getvalue()


@pytest.mark.parametrize("limit", CACHE_LIMITS)
def test_float_text_is_repr(monkeypatch, limit):
    if limit is not None:
        monkeypatch.setattr(sweep, "_TEXT_CACHE_LIMIT", limit)
    nan = float("nan")
    values = [0.0, -0.0, nan, math.inf, -math.inf, 5e-324, 0.1 + 0.2, 1.0]
    values = values + values[::-1] + [-0.0, 0.0, -0.0, -5e-324, 5e-324, 5e-324, nan]
    get, miss = _float_text()
    assert [get(x) or miss(x) for x in values] == [repr(x) for x in values]


def test_census_patterns():
    census = violation_census(12, SPIN)
    assert census[(BELL, Mode.PAPER)] == 0
    assert census[(WIGNER, Mode.PAPER)] == 0
    assert census[(BELL, Mode.NAIVE)] > 0
    assert census[(WIGNER, Mode.NAIVE)] > 0


@pytest.mark.parametrize("convention", [SPIN, OPTICAL])
def test_census_matches_thresholded_float_count(convention):
    # the float census the closed form replaced: R times the count of a = 0
    # plane margins below -VIOLATION_THRESHOLD
    for resolution in range(3, 121):
        expected = {}
        for kind in (BELL, WIGNER):
            for mode in (Mode.PAPER, Mode.NAIVE):
                lhs, rhs = whole_plane(0, resolution, convention, kind, mode)
                below = int(np.count_nonzero(rhs - lhs < -VIOLATION_THRESHOLD))
                expected[(kind, mode)] = resolution * below
        assert violation_census(resolution, convention) == expected, resolution


# s with k x = pi s i / R on the grid: k = 1/2 for SPIN, 1 for OPTICAL
STEPS = {SPIN: 1, OPTICAL: 2}


def sin_sign(num, den):
    """sign(sin(pi num / den)) for integer arrays, exactly, from num mod 2 den."""
    rest = np.mod(num, 2 * den)
    return np.sign(den - rest) * (rest != 0)


def integer_census(resolution, convention):
    """The census from the index signs of the factorised NAIVE Wigner margin.

    A point (i, j) of the a = 0 plane violates when sin(pi s (i - j) / R),
    cos(pi s i / R) = sin(pi (2 s i + R) / 2R) and sin(pi s j / R) multiply
    to a positive number, with s = 1 for SPIN and 2 for OPTICAL. Bell
    violates on that set or its transpose; PAPER never violates.
    """
    s = STEPS[convention]
    i = np.arange(resolution, dtype=np.int32)[:, None]
    j = i.T
    wigner = (
        sin_sign(s * (i - j), resolution)
        * sin_sign(2 * s * i + resolution, 2 * resolution)
        * sin_sign(s * j, resolution)
    ) > 0
    return {
        (BELL, Mode.PAPER): 0,
        (BELL, Mode.NAIVE): resolution * int(np.count_nonzero(wigner | wigner.T)),
        (WIGNER, Mode.PAPER): 0,
        (WIGNER, Mode.NAIVE): resolution * int(np.count_nonzero(wigner)),
    }


@pytest.mark.parametrize("convention", [SPIN, OPTICAL])
def test_census_matches_integer_sign_rule(convention):
    for resolution in [*range(2, 301), 333, 1000, 2000]:
        expected = integer_census(resolution, convention)
        assert violation_census(resolution, convention) == expected, resolution
        for kind, mode in expected:
            result = grid_sweep(resolution, convention, kind, mode)
            assert result.violations == expected[(kind, mode)], (resolution, kind, mode)


def interval_census(resolution, convention):
    """NAIVE Wigner violations over the R^3 grid, summed row by row over sign intervals.

    In units P = s j, sin(pi P / R) changes sign at multiples of R and
    sin(pi (s i - P) / R) at s i plus multiples of R. Between consecutive
    breakpoints p <= q both signs are those at the midpoint, and the j with
    p < s j < q number (q - 1) // s - p // s (clipped at 0 for p = q). The
    cost is O(s R), not O(R^2).
    """
    s = STEPS[convention]
    big = 2 * resolution
    i = np.arange(resolution, dtype=np.int64)[:, None]
    turns = np.arange(-s, s + 1) * resolution
    edges = np.concatenate([np.broadcast_to(turns, (resolution, 2 * s + 1)), s * i + turns], axis=1)
    edges = np.sort(np.clip(edges, 0, s * resolution), axis=1)
    p, q = edges[:, :-1], edges[:, 1:]
    inside = np.maximum((q - 1) // s - p // s, 0)
    sides = sin_sign(p + q, big) * sin_sign(2 * s * i - p - q, big)
    violates = sides * sin_sign(2 * s * i + resolution, big) > 0
    return resolution * int((inside * violates).sum())


def test_census_at_large_resolution_matches_interval_count():
    resolution = 10**5
    for convention in (SPIN, OPTICAL):
        census = violation_census(resolution, convention)
        assert census[(WIGNER, Mode.NAIVE)] == interval_census(resolution, convention)
    # the column b' = a + 2 pi / R, where the 1e-9 float count read 49,996
    i = np.arange(resolution)
    factors = sin_sign(i - 1, resolution) * sin_sign(2 * i + resolution, 2 * resolution)
    column = factors * sin_sign(1, resolution) > 0
    assert int(np.count_nonzero(column)) == 49_998


def test_interval_count_matches_integer_sign_rule():
    for resolution in [*range(2, 41), 333]:
        for convention in (SPIN, OPTICAL):
            expected = integer_census(resolution, convention)[(WIGNER, Mode.NAIVE)]
            assert interval_census(resolution, convention) == expected, (resolution, convention)


def test_census_evaluates_no_margin(monkeypatch):
    def no_kernel(kind, mode):
        raise AssertionError("violation_census evaluated a margin")

    monkeypatch.setattr(sweep, "_margin_steps", no_kernel)
    assert violation_census(10**5, SPIN)[(WIGNER, Mode.NAIVE)] == 10**5 * 49_999 * 49_998


def test_sweep_count_does_not_depend_on_the_kernel(monkeypatch):
    expected = {
        (kind, mode): grid_sweep(24, OPTICAL, kind, mode).violations
        for kind in (BELL, WIGNER) for mode in (Mode.PAPER, Mode.NAIVE)
    }

    def always_violated(kind, mode):
        term, third, _ = _margin_steps(kind, mode)
        return term, third, lambda term_b, term_bp, third_bbp: (1.0, 0.0)

    monkeypatch.setattr(sweep, "_margin_steps", always_violated)
    for (kind, mode), violations in expected.items():
        result = grid_sweep(24, OPTICAL, kind, mode)
        assert result.min_margin == -1.0
        assert result.violations == violations


@pytest.mark.parametrize(
    "resolution, convention", [(1, SPIN), (0, OPTICAL), (60, "spin"), (60, None)]
)
def test_census_rejects_bad_arguments(resolution, convention):
    with pytest.raises(ValueError):
        violation_census(resolution, convention)


def test_census_pattern_holds_for_optical_convention():
    census = violation_census(12, OPTICAL)
    assert census[(BELL, Mode.PAPER)] == 0
    assert census[(WIGNER, Mode.PAPER)] == 0
    assert census[(BELL, Mode.NAIVE)] > 0
    assert census[(WIGNER, Mode.NAIVE)] > 0

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
from bellwigner.analytic import bell_margin_parts, half_angle_factor, wigner_margin_parts
from bellwigner.sweep import SWEEP_CSV_COLUMNS, _float_text, _record_rows

SPIN = AngleConvention.SPIN
OPTICAL = AngleConvention.OPTICAL
WIGNER = InequalityKind.WIGNER
BELL = InequalityKind.CORR_BELL


def test_grid_angles_half_open_uniform():
    assert np.allclose(grid_angles(4), [0.0, math.pi / 2, math.pi, 3 * math.pi / 2])
    assert grid_angles(60).max() < 2 * math.pi
    with pytest.raises(ValueError):
        grid_angles(1)


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
    """(lhs, rhs) over the whole (b, bp) plane of a-index `ia`: the unblocked reference."""
    angles = grid_angles(resolution)
    b, bp = np.meshgrid(angles, angles, indexing="ij")
    parts = bell_margin_parts if kind is BELL else wigner_margin_parts
    return parts(angles[ia], b, bp, half_angle_factor(convention), mode)


def block_points(choice, resolution):
    """_BLOCK_POINTS for a named choice: 1, a row less or more one point, a row, the default."""
    return {
        "one": 1, "row-1": resolution - 1, "row": resolution, "row+1": resolution + 1,
        "default": sweep._BLOCK_POINTS,
    }[choice]


GRID_CASES = dict(
    resolution=st.integers(2, 70),
    convention=st.sampled_from([SPIN, OPTICAL]),
    kind=st.sampled_from([BELL, WIGNER]),
    mode=st.sampled_from([Mode.PAPER, Mode.NAIVE]),
    block=st.sampled_from(["one", "row-1", "row", "row+1", "default"]),
)


@settings(deadline=None)
@given(**GRID_CASES)
def test_blocked_sweep_matches_whole_plane(resolution, convention, kind, mode, block):
    lhs, rhs = whole_plane(0, resolution, convention, kind, mode)
    margin = rhs - lhs
    ib, ibp = divmod(int(np.argmin(margin)), resolution)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "_BLOCK_POINTS", block_points(block, resolution))
        result = grid_sweep(resolution, convention, kind, mode)
    angles = grid_angles(resolution)
    assert result.violations == resolution * int((margin < -VIOLATION_THRESHOLD).sum())
    assert result.min_margin.hex() == float(margin[ib, ibp]).hex()
    assert (result.argmin.b, result.argmin.bp) == (angles[ib], angles[ibp])


@settings(max_examples=40, deadline=None)
@given(**GRID_CASES)
def test_blocked_record_rows_match_whole_plane(resolution, convention, kind, mode, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "_BLOCK_POINTS", block_points(block, resolution))
        rows = _record_rows(resolution, convention, kind, mode)
        for ia in range(resolution):
            lhs, rhs = whole_plane(ia, resolution, convention, kind, mode)
            plane = list(islice(rows, resolution))
            assert [row[:2] for row in plane] == [(ia, ib) for ib in range(resolution)]
            got = [np.array([row[j] for row in plane]) for j in (2, 3, 4)]
            # bitwise: tobytes tells -0.0 from 0.0
            assert [g.tobytes() for g in got] == [e.tobytes() for e in (lhs, rhs, rhs - lhs)]
        assert next(rows, None) is None


def test_tied_minimum_across_blocks_keeps_the_first():
    # R=5 spin naive Bell takes its minimum at plane indices 7, 11, 19 and
    # 23 exactly; one row per block puts the first two in different blocks
    lhs, rhs = whole_plane(0, 5, SPIN, BELL, Mode.NAIVE)
    margin = (rhs - lhs).ravel()
    assert np.flatnonzero(margin == margin.min()).tolist() == [7, 11, 19, 23]
    angles = grid_angles(5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "_BLOCK_POINTS", 5)
        result = grid_sweep(5, SPIN, BELL, Mode.NAIVE)
    assert (result.argmin.b, result.argmin.bp) == (angles[1], angles[2])
    assert result.min_margin == margin[7]


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("resolution", [1000, 2000])
def test_census_memory_does_not_grow_with_resolution(resolution):
    # a whole R=2000 plane is 32 MB per float64 array; row blocks hold a few
    # 2^12-point arrays and the O(R) grid at any resolution
    grid_sweep(60, SPIN, WIGNER, Mode.NAIVE)  # warm-up
    peak = _peak_bytes(lambda: grid_sweep(resolution, SPIN, WIGNER, Mode.NAIVE))
    assert peak < 2 * 2**20, peak


def test_record_rows_start_in_o_r_memory():
    # the first rows of an R=3000 stream come from one row block, not a
    # 9*10^6-point plane
    def first_rows():
        return list(islice(_record_rows(3000, SPIN, BELL, Mode.NAIVE), 4))

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
    for ia, ib, lhs, rhs, margin in _record_rows(resolution, convention, kind, mode):
        pre = f"{angles[ia]},{angles[ib]},"
        out.write("".join([
            f"{pre}{bp},{names},{left!r},{right!r},{gap!r}\n"
            for bp, left, right, gap in zip(angles, lhs, rhs, margin)
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


def test_census_closed_forms():
    # NAIVE Wigner counts in closed form (optical only for 4 | R), NAIVE Bell
    # twice NAIVE Wigner, PAPER none
    for resolution in range(3, 121):
        for convention in (SPIN, OPTICAL):
            census = violation_census(resolution, convention)
            wigner = census[(WIGNER, Mode.NAIVE)]
            assert census[(BELL, Mode.NAIVE)] == 2 * wigner, (resolution, convention)
            assert census[(BELL, Mode.PAPER)] == census[(WIGNER, Mode.PAPER)] == 0
            if convention is SPIN:
                assert wigner == resolution * ((resolution - 1) // 2) * ((resolution - 3) // 2)
            elif resolution % 4 == 0:
                half = resolution // 2
                assert wigner == resolution * (half - 2) * (half - 4)


def test_census_pattern_holds_for_optical_convention():
    census = violation_census(12, OPTICAL)
    assert census[(BELL, Mode.PAPER)] == 0
    assert census[(WIGNER, Mode.PAPER)] == 0
    assert census[(BELL, Mode.NAIVE)] > 0
    assert census[(WIGNER, Mode.NAIVE)] > 0

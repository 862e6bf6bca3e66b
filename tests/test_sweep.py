import io
import math

import numpy as np
import pytest
from hypothesis import given
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


def test_census_pattern_holds_for_optical_convention():
    census = violation_census(12, OPTICAL)
    assert census[(BELL, Mode.PAPER)] == 0
    assert census[(WIGNER, Mode.PAPER)] == 0
    assert census[(BELL, Mode.NAIVE)] > 0
    assert census[(WIGNER, Mode.NAIVE)] > 0

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given

from bellwigner import (
    AngleConfig,
    AngleConvention,
    ConvergenceRecord,
    DataSetQuad,
    DataSetTriple,
    EmptyDataError,
    InequalityKind,
    InequalityReport,
    JointProbabilities,
    LengthMismatchError,
    Mode,
)
from conftest import datasets

DATA_SETS = pytest.mark.parametrize("cls", [DataSetTriple, DataSetQuad])


def width(cls):
    return len(fields(cls))


def test_dataset_from_columns():
    d = DataSetTriple([1, 1, -1], [1, -1, -1], [-1, 1, 1])
    assert d.n == len(d) == 3
    assert d.b.dtype == np.int8
    assert d.b.tolist() == [1, -1, -1]


@DATA_SETS
def test_dataset_from_trials_round_trip(cls):
    rows = [(1, -1, 1, -1)[: width(cls)], (-1,) * width(cls)]
    d = cls.from_trials(rows)
    assert d.n == len(d) == 2
    assert list(zip(*(getattr(d, f.name).tolist() for f in fields(cls)))) == rows


@DATA_SETS
def test_dataset_rejects_empty(cls):
    with pytest.raises(EmptyDataError):
        cls(*[[]] * width(cls))
    with pytest.raises(EmptyDataError):
        cls.from_trials([])


@DATA_SETS
def test_dataset_rejects_ragged_columns(cls):
    with pytest.raises(LengthMismatchError):
        cls([1, 1], [1], *[[1, -1]] * (width(cls) - 2))


@DATA_SETS
def test_dataset_rejects_invalid_values(cls):
    with pytest.raises(ValueError, match="only \\+1/-1"):
        cls([1, 2], *[[1, 1]] * (width(cls) - 1))
    with pytest.raises(ValueError, match="only \\+1/-1"):
        cls.from_trials([(1.5,) + (1,) * (width(cls) - 1)])
    rest = [[1, 1]] * (width(cls) - 1)
    for bad in ([True, False], [1.0, 1.5], ["1", "-1"], [b"1", b"1"]):
        with pytest.raises(ValueError, match="only \\+1/-1"):
            cls(bad, *rest)
    # True and 1.0 are the outcome +1, as they always were
    d = cls([True, True], [1.0, -1.0], *rest[1:])
    assert getattr(d, fields(cls)[0].name).tolist() == [1, 1]
    assert getattr(d, fields(cls)[1].name).tolist() == [1, -1]


@DATA_SETS
def test_dataset_columns_are_read_only(cls):
    d = cls(*[[1]] * width(cls))
    for f in fields(cls):
        with pytest.raises(ValueError):
            getattr(d, f.name)[0] = -1


def test_dataset_copies_a_writeable_int8_column():
    # the caller's array is neither frozen nor shared with the column
    mine = np.array([1, -1, 1], dtype=np.int8)
    d = DataSetTriple(mine, mine[::-1], [1, 1, 1])
    assert mine.flags.writeable
    assert not np.shares_memory(mine, d.a)
    assert not np.shares_memory(mine, d.b)
    mine[0] = -1
    assert d.a.tolist() == [1, -1, 1]
    assert d.b.tolist() == [1, -1, 1]


def test_dataset_keeps_a_read_only_int8_column():
    col = np.array([1, -1], dtype=np.int8)
    col.setflags(write=False)
    d = DataSetTriple(col, col, col)
    assert d.a is col


@DATA_SETS
def test_dataset_from_trials_rejects_wrong_width(cls):
    for bad in (width(cls) - 1, width(cls) + 1):
        with pytest.raises(ValueError, match=f"rows of {width(cls)} outcomes"):
            cls.from_trials([(1,) * bad])


@given(datasets)
def test_dataset_columns_stay_aligned(d):
    assert d.a.shape == d.b.shape == d.bp.shape == (d.n,)
    assert np.isin(d.a, (-1, 1)).all()


def test_angle_config_requires_finite_angles():
    cfg = AngleConfig(0.0, 1.0, -2.5)
    assert cfg.convention is AngleConvention.SPIN
    with pytest.raises(ValueError, match="finite"):
        AngleConfig(0.0, math.nan, 1.0)
    with pytest.raises(ValueError, match="finite"):
        AngleConfig(math.inf, 0.0, 1.0)


def test_angle_config_requires_convention_instance():
    with pytest.raises(ValueError, match="AngleConvention"):
        AngleConfig(0.0, 0.0, 0.0, convention="spin")


def test_joint_probabilities_accepts_normalized_cells():
    jp = JointProbabilities(0.25, 0.25, 0.25, 0.25)
    assert jp.correlation == 0.0


def test_joint_probabilities_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        JointProbabilities(1.25, -0.25, 0.0, 0.0)


def test_joint_probabilities_rejects_unnormalized():
    with pytest.raises(ValueError, match="sum"):
        JointProbabilities(0.25, 0.25, 0.25, 0.2)


def test_report_from_sides_computes_margin_and_flag():
    r = InequalityReport.from_sides(
        InequalityKind.WIGNER, Mode.PAPER, lhs=0.25, rhs=0.3125, tolerance=1e-12
    )
    assert r.margin == 0.0625
    assert r.satisfied
    v = InequalityReport.from_sides(
        InequalityKind.WIGNER, Mode.NAIVE, lhs=0.25, rhs=0.125, tolerance=1e-12
    )
    assert not v.satisfied


def test_report_rejects_inconsistent_flag():
    with pytest.raises(ValueError, match="satisfied"):
        InequalityReport(
            InequalityKind.WIGNER, Mode.PAPER, 0.5, 0.25, -0.25, True, 1e-12
        )


def test_report_exact_data_requires_zero_tolerance():
    with pytest.raises(ValueError, match="zero tolerance"):
        InequalityReport(
            InequalityKind.DATA_BELL_3, Mode.EXACT_DATA, 0.0, 1.0, 1.0, True, 1e-12
        )


def test_report_as_dict_schema():
    r = InequalityReport.from_sides(
        InequalityKind.CORR_BELL, Mode.NAIVE, 1.0, 0.5, 1e-12
    )
    assert set(r.as_dict()) == {
        "kind", "mode", "lhs", "rhs", "margin", "satisfied", "tolerance",
    }
    assert r.as_dict()["kind"] == "CORR_BELL"
    assert r.as_dict()["mode"] == "NAIVE"


def test_convergence_record_derives_its_errors():
    r = ConvergenceRecord(400, estimate=-0.3, analytic=-0.25, seed=7)
    assert r.abs_error == pytest.approx(0.05)
    assert r.std_error == pytest.approx(math.sqrt((1 - 0.09) / 400))


def test_convergence_record_clamps_variance_at_zero():
    r = ConvergenceRecord(10, estimate=1.0, analytic=1.0, seed=0)
    assert r.std_error == 0.0


def test_convergence_record_rejects_bad_n_or_seed():
    with pytest.raises(ValueError, match="n_samples"):
        ConvergenceRecord(0, 0.0, 0.0, seed=1)
    with pytest.raises(ValueError, match="seed"):
        ConvergenceRecord(1, 0.0, 0.0, seed=-1)

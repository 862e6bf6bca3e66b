import math

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
    PatternCounts,
    SweepResult,
)
from bellwigner.core import FrozenInstanceError, _OutcomeColumns
from conftest import datasets

DATA_SETS = pytest.mark.parametrize("cls", [DataSetTriple, DataSetQuad])


def width(cls):
    return len(cls._fields)


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
    assert list(zip(*(getattr(d, name).tolist() for name in cls._fields))) == rows


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
    assert getattr(d, cls._fields[0]).tolist() == [1, 1]
    assert getattr(d, cls._fields[1]).tolist() == [1, -1]


@DATA_SETS
def test_dataset_columns_are_read_only(cls):
    d = cls(*[[1]] * width(cls))
    for name in cls._fields:
        with pytest.raises(ValueError):
            getattr(d, name)[0] = -1


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


@pytest.mark.parametrize(
    "angles, pair",
    [
        ((-1e308, 1e308, 0.0), "b and a"),
        ((-5e307, 0.0, 5e307), "bp and a"),
        ((0.0, 5e307, -5e307), "b and bp"),
        ((0.0, 2.0**1023, 0.0), "b and a"),
    ],
)
def test_angle_config_rejects_differences_that_overflow(angles, pair):
    # each angle is finite, but the kernels take the cosine of twice a difference
    with pytest.raises(ValueError, match=rf"angles {pair} must differ by less than 2\*\*1023"):
        AngleConfig(*angles)
    widest = math.nextafter(2.0**1023, 0.0)
    assert AngleConfig(0.0, widest, 0.0).b == widest


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


# One value of each value type, built positionally, and its repr: the text
# @dataclass gave these types, pinned so that logs and doctests keep it.
SPIN_CONFIG = AngleConfig(0.0, 1.0, 2.0)
VALUES = [
    (
        AngleConfig, (0.0, 1.0, 2.0, AngleConvention.SPIN),
        "AngleConfig(a=0.0, b=1.0, bp=2.0, convention=<AngleConvention.SPIN: 'spin'>)",
    ),
    (
        JointProbabilities, (0.25, 0.25, 0.125, 0.375),
        "JointProbabilities(pp=0.25, pm=0.25, mp=0.125, mm=0.375)",
    ),
    (
        InequalityReport, (InequalityKind.WIGNER, Mode.PAPER, 0.25, 0.3125, 0.0625, True, 1e-12),
        "InequalityReport(kind=<InequalityKind.WIGNER: 'wigner'>, mode=<Mode.PAPER: 'paper'>, "
        "lhs=0.25, rhs=0.3125, margin=0.0625, satisfied=True, tolerance=1e-12)",
    ),
    (
        ConvergenceRecord, (400, -0.3, -0.25, 7),
        "ConvergenceRecord(n_samples=400, estimate=-0.3, analytic=-0.25, seed=7)",
    ),
    (PatternCounts, ((0, 1, 2, 3, 4, 5, 6, 7),), "PatternCounts(counts=(0, 1, 2, 3, 4, 5, 6, 7))"),
    (
        SweepResult,
        (InequalityKind.CORR_BELL, Mode.NAIVE, AngleConvention.OPTICAL, 12, 1728, -0.5, SPIN_CONFIG, 60),
        "SweepResult(kind=<InequalityKind.CORR_BELL: 'corr_bell'>, mode=<Mode.NAIVE: 'naive'>, "
        "convention=<AngleConvention.OPTICAL: 'optical'>, resolution=12, n_points=1728, "
        "min_margin=-0.5, argmin=AngleConfig(a=0.0, b=1.0, bp=2.0, "
        "convention=<AngleConvention.SPIN: 'spin'>), violations=60)",
    ),
    (
        DataSetTriple, ([1, -1], [1, 1], [-1, -1]),
        "DataSetTriple(a=array([ 1, -1], dtype=int8), b=array([1, 1], dtype=int8), "
        "bp=array([-1, -1], dtype=int8))",
    ),
    (
        DataSetQuad, ([1], [1], [-1], [-1]),
        "DataSetQuad(a=array([1], dtype=int8), ap=array([1], dtype=int8), "
        "b=array([-1], dtype=int8), bp=array([-1], dtype=int8))",
    ),
]
ALL_VALUES = pytest.mark.parametrize("cls, args, text", VALUES, ids=[v[0].__name__ for v in VALUES])
# the data sets hold numpy columns, so == of two of them raises and they have no hash
HASHABLE = pytest.mark.parametrize(
    "cls, args, text", VALUES[:6], ids=[v[0].__name__ for v in VALUES[:6]]
)


@ALL_VALUES
def test_value_repr_names_every_field_in_order(cls, args, text):
    value = cls(*args)
    assert repr(value) == text
    assert cls.__match_args__ == cls._fields
    assert tuple(vars(value)) == cls._fields


def test_outcome_columns_base_declares_no_fields():
    assert _OutcomeColumns._fields == ()
    assert DataSetTriple._fields == ("a", "b", "bp")
    assert DataSetQuad._fields == ("a", "ap", "b", "bp")


@ALL_VALUES
def test_value_takes_its_fields_by_keyword(cls, args, text):
    assert repr(cls(**dict(zip(cls._fields, args)))) == text
    assert repr(cls(*args[:1], **dict(zip(cls._fields[1:], args[1:])))) == text


def test_value_defaults_fill_missing_arguments():
    assert AngleConfig(0.0, 1.0, 2.0).convention is AngleConvention.SPIN
    assert AngleConfig(bp=2, b=1, a=0) == SPIN_CONFIG
    optical = AngleConfig(0.0, 1.0, 2.0, convention=AngleConvention.OPTICAL)
    assert optical.convention is AngleConvention.OPTICAL


@ALL_VALUES
def test_value_rejects_missing_extra_and_repeated_arguments(cls, args, text):
    first = cls._fields[0]
    for call in (
        lambda: cls(),
        lambda: cls(*args, args[-1]),
        lambda: cls(*args, no_such_field=1),
        lambda: cls(*args, **{first: args[0]}),
        lambda: cls(**dict(zip(cls._fields[1:], args[1:]))),
    ):
        with pytest.raises(TypeError):
            call()


@HASHABLE
def test_equal_values_are_equal_and_hash_alike(cls, args, text):
    one, two = cls(*args), cls(**dict(zip(cls._fields, args)))
    assert one is not two
    assert one == two and not one != two
    assert hash(one) == hash(two)
    assert len({one, two}) == 1


def test_values_of_different_fields_differ():
    assert AngleConfig(0.0, 1.0, 2.0) != AngleConfig(0.0, 1.0, 2.5)
    assert AngleConfig(0.0, 1.0, 2.0) != AngleConfig(0.0, 1.0, 2.0, AngleConvention.OPTICAL)
    assert PatternCounts(range(8)) != PatternCounts(range(1, 9))
    assert ConvergenceRecord(400, -0.3, -0.25, 7) != ConvergenceRecord(400, -0.3, -0.25, 8)


def test_values_equal_nothing_of_another_class():
    class Subclass(AngleConfig):
        pass

    cfg = AngleConfig(0.0, 1.0, 2.0)
    twin = Subclass(0.0, 1.0, 2.0)
    assert cfg != twin and twin != cfg
    assert cfg != (0.0, 1.0, 2.0, AngleConvention.SPIN)
    assert cfg != 1
    assert JointProbabilities(0.25, 0.25, 0.25, 0.25) != (0.25, 0.25, 0.25, 0.25)
    assert cfg.__eq__(twin) is NotImplemented


@ALL_VALUES
def test_value_fields_cannot_be_assigned_or_deleted(cls, args, text):
    value = cls(*args)
    for name in (*cls._fields, "no_such_field"):
        with pytest.raises(FrozenInstanceError, match="cannot assign"):
            setattr(value, name, 0)
    with pytest.raises(FrozenInstanceError, match="cannot delete"):
        delattr(value, cls._fields[0])
    assert issubclass(FrozenInstanceError, AttributeError)
    assert repr(value) == text


def test_value_matches_positional_patterns():
    match SweepResult(*VALUES[5][1]):
        case SweepResult(kind, mode, convention, resolution, n, margin, AngleConfig(a, b, bp)):
            assert (kind, mode, resolution, n, margin) == (
                InequalityKind.CORR_BELL, Mode.NAIVE, 12, 1728, -0.5
            )
            assert convention is AngleConvention.OPTICAL and (a, b, bp) == (0.0, 1.0, 2.0)
        case _:
            pytest.fail("no match")


def test_report_rejects_negative_tolerance():
    with pytest.raises(ValueError, match="tolerance must be >= 0"):
        InequalityReport(InequalityKind.WIGNER, Mode.PAPER, 0.0, 1.0, 1.0, True, -1e-12)


def test_angle_config_stores_floats():
    cfg = AngleConfig(0, 1, True)
    assert (type(cfg.a), type(cfg.b), type(cfg.bp)) == (float, float, float)
    assert repr(cfg) == "AngleConfig(a=0.0, b=1.0, bp=1.0, convention=<AngleConvention.SPIN: 'spin'>)"

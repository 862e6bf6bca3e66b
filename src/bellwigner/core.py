"""Shared domain types: columnar outcome data sets, angle configurations, and reports.

Everything here is an immutable value type with validating construction.
Outcomes are signed integers (+1/-1), never booleans, so products like
``d.a * d.b`` are literal integer multiplications and data-level sums stay
exact.

The value types are plain classes that `_value_type` gives the methods a
frozen dataclass would have: ``__init__`` from the annotated fields, then
``__post_init__``; ``__eq__``, ``__hash__`` and ``__repr__`` over the field
values; ``__match_args__``; and no assignment or deletion of attributes.
Their field names are the class's ``_fields`` tuple. They are not
dataclasses, so ``dataclasses.fields`` and ``replace`` do not apply.
Importing `dataclasses` (which loads `inspect`, `ast` and `tokenize`) and
generating each class's methods with ``exec`` took about 10 ms of every
launch of the commands that load no numpy.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

# Tolerance for floating-point probability/correlation identities. Double
# precision leaves ~1e-15 headroom; 1e-12 absorbs accumulated trig error.
TOLERANCE = 1e-12


class EmptyDataError(ValueError):
    """A data set or sequence with zero trials was supplied where N >= 1 is required."""


class LengthMismatchError(ValueError):
    """Two aligned outcome sequences have different lengths."""


class FrozenInstanceError(AttributeError):
    """An attribute of an immutable value was assigned or deleted."""


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self._fields])


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    args = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
    return f"{self.__class__.__qualname__}({args})"


def _value_type(cls):
    """Make `cls` an immutable value type over its annotated fields.

    The fields are the names annotated in `cls` and its bases, base classes
    first, each in the order written; a field's default is the class
    attribute of its name. The constructor takes them by position or
    keyword, as ``@dataclass(frozen=True)`` would, and then calls
    ``__post_init__`` if the class has one, which may set a field only
    through ``object.__setattr__``.
    """
    names = tuple(dict.fromkeys(
        name for klass in reversed(cls.__mro__) for name in vars(klass).get("__annotations__", ())
    ))
    defaults = {name: getattr(cls, name) for name in names if hasattr(cls, name)}
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        if len(args) > len(names):
            raise TypeError(
                f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given"
            )
        state = dict(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in defaults:
                state[name] = defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__name__}() got {problem} argument {name!r}")
        self.__dict__.update(state)
        if post_init is not None:
            post_init(self)

    cls._fields = cls.__match_args__ = names
    cls.__init__ = __init__
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__repr__ = _repr
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


def outcome_array(values) -> np.ndarray:
    """Validate a sequence of outcomes and return it as a 1-D int8 array.

    An int8 array is returned as is, not copied.
    """
    import numpy as np

    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D outcome sequence, got shape {arr.shape}")
    valid = (arr == 1) | (arr == -1)
    if not valid.all():
        bad = arr[~valid][0]
        raise ValueError(f"outcome sequence contains value {bad!r}, only +1/-1 allowed")
    return arr.astype(np.int8, copy=False)


@_value_type
class _OutcomeColumns:
    """N >= 1 trials stored as aligned, read-only int8 columns, one per field.

    Subclasses only declare the columns; million-trial sets stay cheap and
    every bulk computation is a vectorised sum over whole columns.
    """

    def __post_init__(self) -> None:
        cols = []
        for name in self._fields:
            value = getattr(self, name)
            arr = outcome_array(value)
            # a column the caller could still write to is copied, so freezing
            # it never freezes the caller's array; a read-only one is kept
            if arr.flags.writeable and (arr is value or not arr.flags.owndata):
                arr = arr.copy()
            arr.setflags(write=False)
            cols.append(arr)
            object.__setattr__(self, name, arr)
        lengths = tuple(c.shape[0] for c in cols)
        if len(set(lengths)) != 1:
            raise LengthMismatchError(
                f"columns {', '.join(self._fields)} must have equal length, got {lengths}"
            )
        if lengths[0] == 0:
            raise EmptyDataError("a data set needs at least one trial")

    @classmethod
    def from_trials(cls, rows: Sequence[tuple] | np.ndarray):
        """Build from a sequence of row tuples or an (N, width) array of outcomes."""
        if len(rows) == 0:
            raise EmptyDataError("a data set needs at least one trial")
        import numpy as np

        arr = np.asarray(rows)
        width = len(cls._fields)
        if arr.ndim != 2 or arr.shape[1] != width:
            raise ValueError(f"expected rows of {width} outcomes, got shape {arr.shape}")
        return cls(*arr.T)

    @property
    def n(self) -> int:
        return int(getattr(self, self._fields[0]).shape[0])

    def __len__(self) -> int:
        return self.n


@_value_type
class DataSetTriple(_OutcomeColumns):
    """An ordered set of N >= 1 trials at settings (a, b, b')."""

    a: np.ndarray
    b: np.ndarray
    bp: np.ndarray


@_value_type
class DataSetQuad(_OutcomeColumns):
    """An ordered set of N >= 1 trials at settings (a, a', b, b')."""

    a: np.ndarray
    ap: np.ndarray
    b: np.ndarray
    bp: np.ndarray


class AngleConvention(Enum):
    """How a setting difference enters the trig argument.

    SPIN uses the half angle (argument (y - x)/2), OPTICAL the full angle.
    """

    SPIN = "spin"
    OPTICAL = "optical"


class Mode(Enum):
    """How an inequality's third pair is evaluated.

    PAPER: the third correlation/probability comes from the conditional
    construction (both B-side outcomes tied to the shared A-side outcome).
    NAIVE: the third pair is given the same unconditional entangled-pair
    form as the first two, the substitution that produces violations.
    EXACT_DATA: the inequality is evaluated on literal +-1 data sets in
    integer arithmetic, where it is an identity.
    """

    PAPER = "paper"
    NAIVE = "naive"
    EXACT_DATA = "exact_data"


class InequalityKind(Enum):
    DATA_BELL_3 = "data_bell_3"
    DATA_BELL_4 = "data_bell_4"
    CORR_BELL = "corr_bell"
    WIGNER = "wigner"


def _angle_difference(later: float, earlier: float, names: str) -> float:
    """later - earlier, refused unless twice it is finite; `names` names the pair.

    The kernels take sin and cos of up to twice a setting difference.
    """
    d = float(later) - float(earlier)
    if not math.isfinite(2.0 * d):
        raise ValueError(f"angles {names} must differ by less than 2**1023, got {d!r}")
    return d


@_value_type
class AngleConfig:
    """Three detector settings in radians plus the angle convention."""

    a: float
    b: float
    bp: float
    convention: AngleConvention = AngleConvention.SPIN

    def __post_init__(self) -> None:
        for name in ("a", "b", "bp"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"angle {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        for x, y in (("b", "a"), ("bp", "a"), ("b", "bp")):
            _angle_difference(getattr(self, x), getattr(self, y), f"{x} and {y}")
        if not isinstance(self.convention, AngleConvention):
            raise ValueError(f"not an AngleConvention: {self.convention!r}")


@_value_type
class JointProbabilities:
    """The four outcome probabilities P++, P+-, P-+, P-- of a setting pair."""

    pp: float
    pm: float
    mp: float
    mm: float

    def __post_init__(self) -> None:
        for name in ("pp", "pm", "mp", "mm"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"probability {name}={p!r} outside [0, 1]")
        total = self.pp + self.pm + self.mp + self.mm
        if abs(total - 1.0) > TOLERANCE:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

    @property
    def correlation(self) -> float:
        """Expectation of the outcome product, pp - pm - mp + mm."""
        return self.pp - self.pm - self.mp + self.mm

    def as_dict(self) -> dict:
        return {"pp": self.pp, "pm": self.pm, "mp": self.mp, "mm": self.mm}


@_value_type
class InequalityReport:
    """One inequality evaluation: lhs <= rhs up to tolerance."""

    kind: InequalityKind
    mode: Mode
    lhs: float
    rhs: float
    margin: float
    satisfied: bool
    tolerance: float

    def __post_init__(self) -> None:
        if self.tolerance < 0.0:
            raise ValueError("tolerance must be >= 0")
        if self.mode is Mode.EXACT_DATA and self.tolerance != 0.0:
            raise ValueError("EXACT_DATA reports use zero tolerance")
        if self.satisfied != (self.margin >= -self.tolerance):
            raise ValueError(
                f"satisfied={self.satisfied} inconsistent with margin={self.margin!r} "
                f"at tolerance={self.tolerance!r}"
            )

    @classmethod
    def from_sides(
        cls,
        kind: InequalityKind,
        mode: Mode,
        lhs: float,
        rhs: float,
        tolerance: float,
    ) -> "InequalityReport":
        margin = rhs - lhs
        return cls(kind, mode, lhs, rhs, margin, margin >= -tolerance, tolerance)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind.name,
            "mode": self.mode.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "satisfied": self.satisfied,
            "tolerance": self.tolerance,
        }


@_value_type
class ConvergenceRecord:
    """One Monte Carlo estimate against its closed-form target."""

    n_samples: int
    estimate: float
    analytic: float
    seed: int

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    @property
    def abs_error(self) -> float:
        return abs(self.estimate - self.analytic)

    @property
    def std_error(self) -> float:
        """Standard error sqrt((1 - estimate^2)/n) of a +-1 mean, clamped at 0."""
        return math.sqrt(max(0.0, 1.0 - self.estimate**2) / self.n_samples)

    def as_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "estimate": self.estimate,
            "analytic": self.analytic,
            "abs_error": self.abs_error,
            "std_error": self.std_error,
            "seed": self.seed,
        }

"""Shared domain types: columnar outcome data sets, angle configurations, and reports.

Everything here is an immutable value type with validating construction.
Outcomes are signed integers (+1/-1), never booleans, so products like
``d.a * d.b`` are literal integer multiplications and data-level sums stay
exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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


@dataclass(frozen=True)
class _OutcomeColumns:
    """N >= 1 trials stored as aligned, read-only int8 columns, one per field.

    Subclasses only declare the columns; million-trial sets stay cheap and
    every bulk computation is a vectorised sum over whole columns.
    """

    def __post_init__(self) -> None:
        names = [f.name for f in fields(self)]
        cols = []
        for name in names:
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
                f"columns {', '.join(names)} must have equal length, got {lengths}"
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
        width = len(fields(cls))
        if arr.ndim != 2 or arr.shape[1] != width:
            raise ValueError(f"expected rows of {width} outcomes, got shape {arr.shape}")
        return cls(*arr.T)

    @property
    def n(self) -> int:
        return int(getattr(self, fields(self)[0].name).shape[0])

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class DataSetTriple(_OutcomeColumns):
    """An ordered set of N >= 1 trials at settings (a, b, b')."""

    a: np.ndarray
    b: np.ndarray
    bp: np.ndarray


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        if not isinstance(self.convention, AngleConvention):
            raise ValueError(f"not an AngleConvention: {self.convention!r}")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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

"""Exact-arithmetic inequalities on +-1 data sets.

For any three aligned +-1 sequences a, b, b' of length N,

    |sum(a*b) - sum(a*b')|  <=  N - sum(b*b')

holds as an algebraic identity: per trial, a*b - a*b' = a*b*(1 - b*b') and
|1 - b_i*b'_i| is 0 or 2 with the sign fixed by b_i*b'_i. The same is true
for the four-set form, whose per-trial bracket a(b + b') + a'(b - b') can
only be -2 or +2. Everything here is computed in integer arithmetic scaled
by N before any division, so margins are exact and equality cases (e.g.
b = b') are decided with zero tolerance.

Every such sum is linear in how many trials show each sign pattern, so the
one exact statistic of a data set is its :class:`PatternCounts`, and each
sum is a dot product of the counts with a fixed coefficient vector. Both
linear halves of the three-set margin, (N - sum bb') -+ (sum ab - sum ab'),
have coefficient 1 - bb' -+ a(b - b') in {0, 4} on every pattern, and the
four-set halves 2 -+ bracket do too; so with counts >= 0 the margin is
>= 0 at every N. Counts are int64: nothing overflows below 2**62 trials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .core import (
    DataSetQuad,
    DataSetTriple,
    EmptyDataError,
    InequalityKind,
    InequalityReport,
    LengthMismatchError,
    Mode,
    outcome_array,
)


@dataclass(frozen=True)
class ExactCorrelation:
    """A correlation estimate held as an exact integer ratio sum(x*y)/N."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator < 1:
            raise ValueError("denominator must be a positive trial count")
        if abs(self.numerator) > self.denominator:
            raise ValueError(
                f"|{self.numerator}| exceeds trial count {self.denominator}"
            )

    @property
    def value(self) -> float:
        return self.numerator / self.denominator


def cross_correlation(xs, ys) -> ExactCorrelation:
    """Exact cross-correlation sum(x_i * y_i) / N of two aligned +-1 sequences."""
    x = outcome_array(xs)
    y = outcome_array(ys)
    if x.shape[0] != y.shape[0]:
        raise LengthMismatchError(
            f"sequences differ in length: {x.shape[0]} vs {y.shape[0]}"
        )
    if x.shape[0] == 0:
        raise EmptyDataError("cannot correlate empty sequences")
    numerator = int((x * y).sum(dtype=np.int64))
    return ExactCorrelation(numerator, x.shape[0])


def quad_brackets(d: DataSetQuad) -> np.ndarray:
    """Per-trial four-set combinations a*b + a*b' + a'*b - a'*b'; each is +-2."""
    return d.a * (d.b + d.bp) + d.ap * (d.b - d.bp)


def _exact_report(
    kind: InequalityKind, lhs_scaled: int, rhs_scaled: int, n: int
) -> InequalityReport:
    # Satisfaction is decided on the scaled integers; the float fields are
    # single-rounded quotients of the exact rationals, which preserves sign.
    margin_scaled = rhs_scaled - lhs_scaled
    return InequalityReport(
        kind=kind,
        mode=Mode.EXACT_DATA,
        lhs=lhs_scaled / n,
        rhs=rhs_scaled / n,
        margin=margin_scaled / n,
        satisfied=margin_scaled >= 0,
        tolerance=0.0,
    )


# Trials are coded in slices of this many rows, so counting a data set of
# any length holds only a slice's temporaries.
_COUNT_ROWS = 1 << 16


def _pattern_codes(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Each trial's sign pattern: one bit per +-1 column, OR-ed in header order."""
    code = (columns[0] > 0).view(np.uint8)
    for column in columns[1:]:
        code <<= 1
        code |= column > 0
    return code


@dataclass(frozen=True, eq=False)
class PatternCounts:
    """How many trials show each sign pattern: the exact statistic of a data set.

    ``counts[p]`` is the number of trials whose outcomes, in header order,
    are +1 exactly at the set bits of p, the first column being the highest
    bit: 8 patterns for a triple (a, b, b'), 16 for a quad (a, a', b, b').
    The counts of two data sets of the same width add up to those of both.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64)
        if counts.shape not in ((8,), (16,)):
            raise ValueError(f"expected 8 or 16 pattern counts, got shape {counts.shape}")
        if (counts < 0).any():
            raise ValueError("pattern counts must be >= 0")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_columns(cls, columns: Sequence[np.ndarray]) -> PatternCounts:
        """Counts of aligned +-1 columns in header order (not validated)."""
        n = columns[0].shape[0]
        counts = np.zeros(1 << len(columns), dtype=np.int64)
        for lo in range(0, n, _COUNT_ROWS):
            s = slice(lo, lo + _COUNT_ROWS)
            counts += np.bincount(_pattern_codes([c[s] for c in columns]), minlength=counts.size)
        return cls(counts)

    @classmethod
    def of(cls, data: DataSetTriple | DataSetQuad) -> PatternCounts:
        """Counts of a data set's trials."""
        return cls.from_columns([getattr(data, f.name) for f in fields(data)])

    @property
    def width(self) -> int:
        return self.counts.size.bit_length() - 1

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def __add__(self, other: PatternCounts) -> PatternCounts:
        if not isinstance(other, PatternCounts):
            return NotImplemented
        if other.width != self.width:
            raise ValueError(f"cannot add counts of widths {self.width} and {other.width}")
        return PatternCounts(self.counts + other.counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PatternCounts):
            return NotImplemented
        return np.array_equal(self.counts, other.counts)


# Pattern p's +-1 outcomes are entry p of itertools.product((-1, 1), repeat=width).
# Rows: each triple pattern's term in sum(ab), sum(ab') and sum(bb').
_TRIPLE_PRODUCTS = np.array(
    [[a * b, a * bp, b * bp] for a, b, bp in itertools.product((-1, 1), repeat=3)], dtype=np.int64
).T
# Each quad pattern's four-set bracket, as in quad_brackets.
_QUAD_BRACKETS = np.array(
    [a * (b + bp) + ap * (b - bp) for a, ap, b, bp in itertools.product((-1, 1), repeat=4)],
    dtype=np.int64,
)


def _triple_sums(c: PatternCounts) -> tuple[int, int, int]:
    sab, sabp, sbbp = (int(s) for s in _TRIPLE_PRODUCTS @ c.counts)
    return sab, sabp, sbbp


def _counts(d: DataSetTriple | DataSetQuad | PatternCounts, width: int) -> PatternCounts:
    c = d if isinstance(d, PatternCounts) else PatternCounts.of(d)
    if c.width != width:
        raise ValueError(f"expected {width} outcomes per trial, got {c.width}")
    if c.n == 0:
        raise EmptyDataError("no trials to check")
    return c


def _margin_3_from_sums(sab: int, sabp: int, sbbp: int, n: int) -> InequalityReport:
    return _exact_report(InequalityKind.DATA_BELL_3, abs(sab - sabp), n - sbbp, n)


def data_bell_margin_3(d: DataSetTriple | PatternCounts) -> InequalityReport:
    """Exact three-set inequality |C(a,b) - C(a,b')| <= 1 - C(b,b').

    Takes a data set or its pattern counts. The margin is >= 0 for every
    data set of any length and content.
    """
    c = _counts(d, 3)
    return _margin_3_from_sums(*_triple_sums(c), c.n)


def data_bell_margin_4(d: DataSetQuad | PatternCounts) -> InequalityReport:
    """Exact four-set inequality |mean of the per-trial brackets| <= 2.

    Takes a data set or its pattern counts.
    """
    c = _counts(d, 4)
    total = int(_QUAD_BRACKETS @ c.counts)
    return _exact_report(InequalityKind.DATA_BELL_4, abs(total), 2 * c.n, c.n)

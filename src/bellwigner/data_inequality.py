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
>= 0 at every N. Counts are Python ints, so no sum overflows. One fold,
on bit planes held as Python ints (`_PatternFold`), counts the int8 cells
for `PatternCounts.of`, `from_columns` and `datafile.read_pattern_counts`
alike, so this module imports no numpy.
"""

from __future__ import annotations

import operator
from typing import Sequence

from .core import (
    DataSetQuad,
    DataSetTriple,
    EmptyDataError,
    InequalityKind,
    InequalityReport,
    LengthMismatchError,
    Mode,
    _value_type,
    outcome_array,
    sign_patterns,
)


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


# Columns are folded in slices of this many rows, so counting a data set of
# any length holds only a slice's bit planes.
_COUNT_ROWS = 1 << 16


class _PatternFold:
    """A sink that keeps only the pattern counts, as Python ints, of the int8 cells it is given."""

    def __init__(self, width: int):
        self.width = width
        self.counts = [0] * (1 << width)

    def frombytes(self, cells) -> None:
        """Fold int8 cells given row after row, `width` to a row."""
        w = self.width
        self.fromcolumns([cells[j::w] for j in range(w)])

    def fromcolumns(self, columns: Sequence[bytes]) -> None:
        """Fold aligned columns of int8 cells, each given as bytes, in header order."""
        mask = int.from_bytes(b"\x01" * len(columns[0]), "little")
        # bit planes with bit 8i set where row i shows the pattern so far, in
        # pattern order: a -1 cell is 0xFF, whose bit 1 a +1 (0x01) lacks
        planes = [mask]
        for column in columns:
            minus = (int.from_bytes(column, "little") >> 1) & mask
            sides = (minus, minus ^ mask)
            planes = [p & side for p in planes for side in sides]
        for code, plane in enumerate(planes):
            self.counts[code] += plane.bit_count()


@_value_type
class PatternCounts:
    """How many trials show each sign pattern: the exact statistic of a data set.

    ``counts[p]`` is the number of trials whose outcomes, in header order,
    are +1 exactly at the set bits of p, the first column being the highest
    bit: 8 patterns for a triple (a, b, b'), 16 for a quad (a, a', b, b').
    The counts are a tuple of Python ints. The counts of two data sets of
    the same width add up to those of both.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        counts = tuple(map(operator.index, self.counts))
        if len(counts) not in (8, 16):
            raise ValueError(f"expected 8 or 16 pattern counts, got {len(counts)}")
        if min(counts) < 0:
            raise ValueError("pattern counts must be >= 0")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def from_columns(cls, columns: Sequence) -> PatternCounts:
        """Counts of aligned +-1 columns in header order.

        Raises ValueError if there are not 3 or 4 columns or any value is
        not +1 or -1, and LengthMismatchError if the columns differ in length.
        """
        if len(columns) not in (3, 4):
            raise ValueError(f"expected 3 or 4 columns, got {len(columns)}")
        lengths = tuple(len(c) for c in columns)
        if len(set(lengths)) != 1:
            raise LengthMismatchError(f"columns must have equal length, got {lengths}")
        return cls._fold(columns, outcome_array)

    @classmethod
    def of(cls, data: DataSetTriple | DataSetQuad) -> PatternCounts:
        """Counts of a data set's trials, whose columns were checked when it was built."""
        return cls._fold([getattr(data, name) for name in data._fields], lambda column: column)

    @classmethod
    def _fold(cls, columns: Sequence, as_outcomes) -> PatternCounts:
        # as_outcomes turns each slice of an equal-length column into int8 +-1
        fold = _PatternFold(len(columns))
        for lo in range(0, len(columns[0]), _COUNT_ROWS):
            s = slice(lo, lo + _COUNT_ROWS)
            fold.fromcolumns([as_outcomes(c[s]).tobytes() for c in columns])
        return cls(fold.counts)

    @property
    def width(self) -> int:
        return len(self.counts).bit_length() - 1

    @property
    def n(self) -> int:
        return sum(self.counts)

    def __add__(self, other: PatternCounts) -> PatternCounts:
        if not isinstance(other, PatternCounts):
            return NotImplemented
        if other.width != self.width:
            raise ValueError(f"cannot add counts of widths {self.width} and {other.width}")
        return PatternCounts(map(sum, zip(self.counts, other.counts)))


# Rows: each triple pattern's term in sum(ab), sum(ab') and sum(bb').
_TRIPLE_PRODUCTS = tuple(zip(*((a * b, a * bp, b * bp) for a, b, bp in sign_patterns(3))))
# Each quad pattern's four-set bracket a(b + b') + a'(b - b').
_QUAD_BRACKETS = tuple(a * (b + bp) + ap * (b - bp) for a, ap, b, bp in sign_patterns(4))


def _dot(coefficients: Sequence[int], c: PatternCounts) -> int:
    return sum(map(operator.mul, coefficients, c.counts))


def _triple_sums(c: PatternCounts) -> tuple[int, int, int]:
    sab, sabp, sbbp = (_dot(row, c) for row in _TRIPLE_PRODUCTS)
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
    total = _dot(_QUAD_BRACKETS, c)
    return _exact_report(InequalityKind.DATA_BELL_4, abs(total), 2 * c.n, c.n)

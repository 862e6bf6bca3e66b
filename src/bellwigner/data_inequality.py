"""Exact-arithmetic inequalities on +-1 data sets.

For any three aligned +-1 sequences a, b, b' of length N,

    |sum(a*b) - sum(a*b')|  <=  N - sum(b*b')

holds as an algebraic identity: per trial, a*b - a*b' = a*b*(1 - b*b') and
|1 - b_i*b'_i| is 0 or 2 with the sign fixed by b_i*b'_i. The same is true
for the four-set form, whose per-trial bracket a(b + b') + a'(b - b') can
only be -2 or +2. Everything here is computed in integer arithmetic scaled
by N before any division, so margins are exact and equality cases (e.g.
b = b') are decided with zero tolerance. Python integers are arbitrary
precision, so the sums cannot overflow at any N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


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


def _triple_sums(d: DataSetTriple) -> tuple[int, int, int]:
    # int8 products of +-1 are exact; the sums accumulate in int64
    sab = int((d.a * d.b).sum(dtype=np.int64))
    sabp = int((d.a * d.bp).sum(dtype=np.int64))
    sbbp = int((d.b * d.bp).sum(dtype=np.int64))
    return sab, sabp, sbbp


def _margin_3_from_sums(sab: int, sabp: int, sbbp: int, n: int) -> InequalityReport:
    return _exact_report(InequalityKind.DATA_BELL_3, abs(sab - sabp), n - sbbp, n)


def data_bell_margin_3(d: DataSetTriple) -> InequalityReport:
    """Exact three-set inequality |C(a,b) - C(a,b')| <= 1 - C(b,b').

    The margin is >= 0 for every data set of any length and content.
    """
    return _margin_3_from_sums(*_triple_sums(d), d.n)


def data_bell_margin_3_flipped(d: DataSetTriple) -> InequalityReport:
    """Same inequality with the side-flipped variable a' = -b' on the right.

    The rhs becomes 1 + C(b,a'), numerically identical to
    :func:`data_bell_margin_3` since sum(b*a') = -sum(b*b'). Exposed as an
    executable witness of that sign-flip step.
    """
    sab, sabp, _ = _triple_sums(d)
    ap = np.negative(d.bp)
    sbap = int((d.b * ap).sum(dtype=np.int64))
    lhs_scaled = abs(sab - sabp)
    rhs_scaled = d.n + sbap
    return _exact_report(InequalityKind.DATA_BELL_3, lhs_scaled, rhs_scaled, d.n)


def data_bell_margin_4(d: DataSetQuad) -> InequalityReport:
    """Exact four-set inequality |mean of the per-trial brackets| <= 2."""
    total = int(quad_brackets(d).sum(dtype=np.int64))
    return _exact_report(InequalityKind.DATA_BELL_4, abs(total), 2 * d.n, d.n)

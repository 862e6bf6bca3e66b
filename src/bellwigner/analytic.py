"""Closed-form entangled-pair probabilities, correlations, and inequality margins.

With k the convention factor (1/2 for SPIN, 1 for OPTICAL) and d = y - x the
setting difference, a perfectly entangled pair gives

    P++ = P-- = (1/2) sin^2(k d),   P+- = P-+ = (1/2) cos^2(k d),
    C(x, y) = 4 P++ - 1 = -cos(2 k d).

The third pair (b, b') is measured on the same side, so its statistics come
from conditioning both outcomes on the shared fair +-1 outcome at setting a.
That is a joint distribution q over the 8 sign patterns of (a, b, b'):

    q(a, b, b') = (1/2) P(b | a) P(b' | a),
    P(b | a)    = sin^2(k(b-a)) if b = a else cos^2(k(b-a)),

and the third pair's P(+,+), P(+,-) and the Wigner slack are sums of its
entries; its correlation is C(b,b') = cos(2k(b-a)) cos(2k(b'-a)).

PAPER mode feeds that conditional third pair into the Bell and Wigner
inequalities. It is the exact data identity applied to q in place of
counts, so the margins are nonnegative for every setting choice. NAIVE mode
substitutes the unconditional forms instead, which is what makes the
textbook violations appear. The margin helpers take plain Python floats,
which they evaluate with `math`, or numpy arrays and scalars, which they
evaluate with numpy ufuncs. `_margin_steps` alone turns a kind and a mode
into a margin's steps: the term of one setting difference (`_bell_term`,
`_sin2_cos2`), in NAIVE mode the third pair's at b - b' (`_bell_term`,
`_wigner_third`), then (lhs, rhs) from the terms (`_bell_sides`,
`_wigner_sides`). The margin helpers compose them at a point or over arrays,
and the sweep's census minimum and record streams in plain floats without
numpy; the sweep tests check both against a grid point's numpy margin bit
for bit.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .core import (
    TOLERANCE,
    AngleConfig,
    AngleConvention,
    InequalityKind,
    InequalityReport,
    JointProbabilities,
    Mode,
    _angle_difference,
    sign_patterns,
)


def _trig(*values):
    """The module whose sin and cos to use: math for plain Python numbers, else numpy."""
    for value in values:
        if type(value) is not float and type(value) is not int:
            import numpy

            return numpy
    return math


def half_angle_factor(convention: AngleConvention) -> float:
    """Factor multiplying every setting difference: 1/2 for SPIN, 1 for OPTICAL."""
    if convention is AngleConvention.SPIN:
        return 0.5
    if convention is AngleConvention.OPTICAL:
        return 1.0
    raise ValueError(f"not an AngleConvention: {convention!r}")


def sin2_cos2(k: float, d):
    """(sin^2(k d), cos^2(k d)) for a setting difference d; broadcasts over arrays.

    Given a fair A-side outcome, these are the conditional +1 probabilities
    at a setting d away: sin^2 after a +1, cos^2 after a -1.
    """
    return _sin2_cos2(_trig(k, d), k, d)


def _sin2_cos2(trig, k, d):
    # s * s is what numpy computes for s ** 2; Python's ** would call pow
    s, c = trig.sin(k * d), trig.cos(k * d)
    return s * s, c * c


def joint_probability(
    x: float, y: float, convention: AngleConvention = AngleConvention.SPIN
) -> JointProbabilities:
    """Four-cell outcome distribution of an entangled pair at settings (x, y)."""
    d = _angle_difference(y, x, "y and x")
    s2, c2 = _sin2_cos2(math, half_angle_factor(convention), d)
    return JointProbabilities(pp=0.5 * s2, pm=0.5 * c2, mp=0.5 * c2, mm=0.5 * s2)


def bell_correlation(
    x: float, y: float, convention: AngleConvention = AngleConvention.SPIN
) -> float:
    """Entangled-pair correlation -cos(2k(y - x)); equals 4 P++ - 1."""
    k = half_angle_factor(convention)
    return -math.cos(2.0 * k * _angle_difference(y, x, "y and x"))


class ThirdPairProbabilities(NamedTuple):
    ppp: float
    ppm: float


def pattern_probabilities(a, b, bp, k: float):
    """The model's probability q of each sign pattern of (a, b, b'); broadcasts over arrays.

    The patterns are in PatternCounts order: a is a fair +-1, then b and b'
    are drawn independently given it, each equal to a with probability
    sin^2(k d), d being its setting minus a. For plain Python numbers q is
    a list of 8 floats; otherwise a numpy array with the pattern axis first.
    """
    trig = _trig(a, b, bp, k)
    s2b, c2b = _sin2_cos2(trig, k, b - a)
    s2bp, c2bp = _sin2_cos2(trig, k, bp - a)
    q = [
        0.5 * (s2b if sb == sa else c2b) * (s2bp if sbp == sa else c2bp)
        for sa, sb, sbp in sign_patterns(3)
    ]
    return q if trig is math else trig.array(q)


def third_pair_probabilities(cfg: AngleConfig) -> ThirdPairProbabilities:
    """P(+,+) and P(+,-) of the (b, b') pair, conditioned through setting a."""
    q = pattern_probabilities(cfg.a, cfg.b, cfg.bp, half_angle_factor(cfg.convention))
    return ThirdPairProbabilities(float(q[3] + q[7]), float(q[2] + q[6]))


def third_correlation(cfg: AngleConfig) -> float:
    """Conditional third-pair correlation cos(2k(b-a)) * cos(2k(b'-a))."""
    k = half_angle_factor(cfg.convention)
    cos = _trig(cfg.a, cfg.b, cfg.bp).cos
    return float(cos(2.0 * k * (cfg.b - cfg.a)) * cos(2.0 * k * (cfg.bp - cfg.a)))


def _bell_term(trig, k, d):
    """-cos(2k d): the correlation of a pair at setting difference d."""
    return -trig.cos(2.0 * k * d)


def _bell_sides(c_ab, c_abp, c_bbp):
    """(lhs, rhs) of the correlation Bell inequality from its terms; floats or arrays.

    c_ab, c_abp and c_bbp are `_bell_term` at b - a, b' - a and b - b';
    c_bbp is None in PAPER mode. 1 + c_bbp rounds as 1 - cos(2k(b - b'))
    does: IEEE subtraction is addition of the negated operand.
    """
    lhs = abs(c_ab - c_abp)
    if c_bbp is None:
        return lhs, 1.0 - c_ab * c_abp
    # third pair given the same -cos form as the measured pairs
    return lhs, 1.0 + c_bbp


def _wigner_third(trig, k, d):
    """sin(k d) at d = b - b': the NAIVE Wigner bound is half its square."""
    return trig.sin(k * d)


def _wigner_sides(terms_b, terms_bp, sin_bbp):
    """(lhs, rhs) of the Wigner inequality from its terms; floats or arrays.

    terms_b and terms_bp are the `_sin2_cos2` pairs at b - a and b' - a;
    sin_bbp is `_wigner_third` at b - b' in NAIVE mode and None in PAPER
    mode.
    """
    s2b, c2b = terms_b
    s2bp, c2bp = terms_bp
    lhs = 0.5 * s2b - 0.5 * s2bp
    if sin_bbp is None:
        # q(a-, b+, b'-) + q(a+, b+, b'-), rounded as third_pair_probabilities rounds it
        return lhs, 0.5 * c2b * s2bp + 0.5 * s2b * c2bp
    return lhs, 0.5 * (sin_bbp * sin_bbp)


def _margin_steps(kind: InequalityKind, mode: Mode):
    """(term, third, sides): the steps of the `kind` margin in `mode`.

    term(trig, k, d) is a measured pair's term at setting difference d,
    third(trig, k, d) the NAIVE third pair's at d = b - b' (None in PAPER
    mode), and sides(term_b, term_bp, third_bbp) a point's (lhs, rhs).
    """
    if kind is InequalityKind.CORR_BELL:
        term, third, sides = _bell_term, _bell_term, _bell_sides
    elif kind is InequalityKind.WIGNER:
        term, third, sides = _sin2_cos2, _wigner_third, _wigner_sides
    else:
        raise ValueError(f"margin kernels evaluate CORR_BELL or WIGNER, got {kind!r}")
    if mode not in (Mode.PAPER, Mode.NAIVE):
        raise ValueError(f"analytic margins take Mode.PAPER or Mode.NAIVE, got {mode!r}")
    return term, third if mode is Mode.NAIVE else None, sides


def _margin_sides(kind: InequalityKind, a, b, bp, k: float, mode: Mode):
    """(lhs, rhs) of the `kind` margin in `mode`; broadcasts over arrays."""
    term, third, sides = _margin_steps(kind, mode)
    trig = _trig(a, b, bp, k)
    return sides(term(trig, k, b - a), term(trig, k, bp - a), third and third(trig, k, b - bp))


def bell_margin_parts(a, b, bp, k: float, mode: Mode):
    """(lhs, rhs) of the correlation Bell inequality; broadcasts over arrays."""
    return _margin_sides(InequalityKind.CORR_BELL, a, b, bp, k, mode)


def wigner_margin_parts(a, b, bp, k: float, mode: Mode):
    """(lhs, rhs) of the Wigner inequality; broadcasts over arrays.

    The rhs pair sits on opposite apparatus sides, where a +1 at the flipped
    setting corresponds to a -1 at b'; in PAPER mode the bound is therefore
    the conditional P(+,-) of the (b, b') pair.
    """
    return _margin_sides(InequalityKind.WIGNER, a, b, bp, k, mode)


def _report(kind: InequalityKind, cfg: AngleConfig, mode: Mode) -> InequalityReport:
    k = half_angle_factor(cfg.convention)
    lhs, rhs = _margin_sides(kind, cfg.a, cfg.b, cfg.bp, k, mode)
    return InequalityReport.from_sides(kind, mode, float(lhs), float(rhs), TOLERANCE)


def bell_margin(cfg: AngleConfig, mode: Mode) -> InequalityReport:
    """Correlation Bell inequality |C(a,b) - C(a,b')| <= 1 - C3.

    PAPER mode uses the conditional third correlation, NAIVE the -cos
    substitution (rhs = 1 + C(b,b')).
    """
    return _report(InequalityKind.CORR_BELL, cfg, mode)


def wigner_margin(cfg: AngleConfig, mode: Mode) -> InequalityReport:
    """Wigner inequality P++(a,b) - P++(a,b') <= bound on the third pair."""
    return _report(InequalityKind.WIGNER, cfg, mode)


def wigner_slack(cfg: AngleConfig) -> float:
    """Nonnegative slack of the PAPER-mode Wigner inequality.

    Equals twice (rhs - lhs) of :func:`wigner_margin` in PAPER mode. It is
    twice the model probability of the patterns (a+, b-, b'+) and
    (a-, b+, b'-), so its nonnegativity is visible by inspection.
    """
    q = pattern_probabilities(cfg.a, cfg.b, cfg.bp, half_angle_factor(cfg.convention))
    return float(2 * (q[2] + q[5]))

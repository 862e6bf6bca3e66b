"""Closed-form entangled-pair probabilities, correlations, and inequality margins.

With k the convention factor (1/2 for SPIN, 1 for OPTICAL) and d = y - x the
setting difference, a perfectly entangled pair gives

    P++ = P-- = (1/2) sin^2(k d),   P+- = P-+ = (1/2) cos^2(k d),
    C(x, y) = 4 P++ - 1 = -cos(2 k d).

The third pair (b, b') is measured on the same side, so its statistics come
from conditioning both outcomes on the shared fair +-1 outcome at setting a:

    P++(b,b') = (1/2)[sin^2(k(b-a)) sin^2(k(b'-a)) + cos^2(k(b-a)) cos^2(k(b'-a))]
    P+-(b,b') = (1/2)[sin^2(k(b-a)) cos^2(k(b'-a)) + cos^2(k(b-a)) sin^2(k(b'-a))]
    C(b,b')   = cos(2k(b-a)) cos(2k(b'-a)).

PAPER mode feeds that conditional third pair into the Bell and Wigner
inequalities (the margins are then nonnegative for every setting choice);
NAIVE mode substitutes the unconditional forms instead, which is what makes
the textbook violations appear. The margin helpers are written with numpy
ufuncs so the sweep module can evaluate them on whole angle grids.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (
    TOLERANCE,
    AngleConfig,
    AngleConvention,
    InequalityKind,
    InequalityReport,
    JointProbabilities,
    Mode,
)


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
    return np.sin(k * d) ** 2, np.cos(k * d) ** 2


def _check_margin_mode(mode: Mode) -> None:
    if mode not in (Mode.PAPER, Mode.NAIVE):
        raise ValueError(f"analytic margins take Mode.PAPER or Mode.NAIVE, got {mode!r}")


def joint_probability(
    x: float, y: float, convention: AngleConvention = AngleConvention.SPIN
) -> JointProbabilities:
    """Four-cell outcome distribution of an entangled pair at settings (x, y)."""
    s2, c2 = (float(p) for p in sin2_cos2(half_angle_factor(convention), y - x))
    return JointProbabilities(pp=0.5 * s2, pm=0.5 * c2, mp=0.5 * c2, mm=0.5 * s2)


def bell_correlation(
    x: float, y: float, convention: AngleConvention = AngleConvention.SPIN
) -> float:
    """Entangled-pair correlation -cos(2k(y - x)); equals 4 P++ - 1."""
    k = half_angle_factor(convention)
    return float(-np.cos(2.0 * k * (y - x)))


class ThirdPairProbabilities(NamedTuple):
    ppp: float
    ppm: float


def third_pair_probabilities(cfg: AngleConfig) -> ThirdPairProbabilities:
    """P(+,+) and P(+,-) of the (b, b') pair, conditioned through setting a.

    ppp + ppm = 1/2 exactly: each B-side sign pattern conditions on the fair
    +-1 outcome at a.
    """
    k = half_angle_factor(cfg.convention)
    s2b, c2b = sin2_cos2(k, cfg.b - cfg.a)
    s2bp, c2bp = sin2_cos2(k, cfg.bp - cfg.a)
    ppp = 0.5 * (s2b * s2bp + c2b * c2bp)
    ppm = 0.5 * (s2b * c2bp + c2b * s2bp)
    return ThirdPairProbabilities(float(ppp), float(ppm))


def third_correlation(cfg: AngleConfig) -> float:
    """Conditional third-pair correlation cos(2k(b-a)) * cos(2k(b'-a))."""
    k = half_angle_factor(cfg.convention)
    return float(np.cos(2.0 * k * (cfg.b - cfg.a)) * np.cos(2.0 * k * (cfg.bp - cfg.a)))


def bell_margin_parts(a, b, bp, k: float, mode: Mode):
    """(lhs, rhs) of the correlation Bell inequality; broadcasts over arrays."""
    c_ab = -np.cos(2.0 * k * (b - a))
    c_abp = -np.cos(2.0 * k * (bp - a))
    lhs = np.abs(c_ab - c_abp)
    if mode is Mode.PAPER:
        rhs = 1.0 - np.cos(2.0 * k * (b - a)) * np.cos(2.0 * k * (bp - a))
    else:
        # third pair given the same -cos form as the measured pairs
        rhs = 1.0 - np.cos(2.0 * k * (b - bp))
    return lhs, rhs


def wigner_margin_parts(a, b, bp, k: float, mode: Mode):
    """(lhs, rhs) of the Wigner inequality; broadcasts over arrays.

    The rhs pair sits on opposite apparatus sides, where a +1 at the flipped
    setting corresponds to a -1 at b'; in PAPER mode the bound is therefore
    the conditional P(+,-) of the (b, b') pair.
    """
    s2b, c2b = sin2_cos2(k, b - a)
    s2bp, c2bp = sin2_cos2(k, bp - a)
    lhs = 0.5 * s2b - 0.5 * s2bp
    if mode is Mode.PAPER:
        rhs = 0.5 * (s2b * c2bp + c2b * s2bp)
    else:
        rhs = 0.5 * np.sin(k * (b - bp)) ** 2
    return lhs, rhs


def wigner_slack_parts(a, b, bp, k: float):
    """Closed-form slack 2 sin^2(k(a-b')) cos^2(k(a-b)); broadcasts over arrays."""
    return 2.0 * np.sin(k * (a - bp)) ** 2 * np.cos(k * (a - b)) ** 2


def bell_margin(cfg: AngleConfig, mode: Mode) -> InequalityReport:
    """Correlation Bell inequality |C(a,b) - C(a,b')| <= 1 - C3.

    PAPER mode uses the conditional third correlation, NAIVE the -cos
    substitution (rhs = 1 + C(b,b')).
    """
    _check_margin_mode(mode)
    k = half_angle_factor(cfg.convention)
    lhs, rhs = bell_margin_parts(cfg.a, cfg.b, cfg.bp, k, mode)
    return InequalityReport.from_sides(
        InequalityKind.CORR_BELL, mode, float(lhs), float(rhs), TOLERANCE
    )


def wigner_margin(cfg: AngleConfig, mode: Mode) -> InequalityReport:
    """Wigner inequality P++(a,b) - P++(a,b') <= bound on the third pair."""
    _check_margin_mode(mode)
    k = half_angle_factor(cfg.convention)
    lhs, rhs = wigner_margin_parts(cfg.a, cfg.b, cfg.bp, k, mode)
    return InequalityReport.from_sides(
        InequalityKind.WIGNER, mode, float(lhs), float(rhs), TOLERANCE
    )


def wigner_slack(cfg: AngleConfig) -> float:
    """Nonnegative slack of the PAPER-mode Wigner inequality.

    Equals exactly twice (rhs - lhs) of :func:`wigner_margin` in PAPER mode;
    the closed form makes the nonnegativity visible by inspection.
    """
    k = half_angle_factor(cfg.convention)
    return float(wigner_slack_parts(cfg.a, cfg.b, cfg.bp, k))

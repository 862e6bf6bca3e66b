import math

import numpy as np
import pytest
from hypothesis import example, given

from bellwigner import (
    TOLERANCE,
    AngleConfig,
    AngleConvention,
    InequalityKind,
    Mode,
    bell_correlation,
    bell_margin,
    grid_angles,
    half_angle_factor,
    joint_probability,
    third_correlation,
    third_pair_probabilities,
    wigner_margin,
    wigner_slack,
)
from bellwigner.analytic import bell_margin_parts, pattern_probabilities, wigner_margin_parts
from bellwigner.data_inequality import _TRIPLE_PRODUCTS
from conftest import angles, configs, conventions

SPIN = AngleConvention.SPIN
OPTICAL = AngleConvention.OPTICAL

# canonical violation witness for the naive substitution
WITNESS = AngleConfig(0.0, 2 * math.pi / 3, math.pi / 3)


def test_half_angle_factor_values():
    assert half_angle_factor(SPIN) == 0.5
    assert half_angle_factor(OPTICAL) == 1.0
    with pytest.raises(ValueError):
        half_angle_factor("spin")


def test_joint_probability_same_setting_anticorrelates():
    jp = joint_probability(0.0, 0.0, SPIN)
    assert jp.pp == 0.0
    assert jp.pm == 0.5


def test_joint_probability_opposite_setting_correlates():
    jp = joint_probability(0.0, math.pi, SPIN)
    assert jp.pp == pytest.approx(0.5, abs=TOLERANCE)
    assert jp.pm == pytest.approx(0.0, abs=TOLERANCE)


def test_joint_probability_quarter_cells():
    jp = joint_probability(0.0, math.pi / 2, SPIN)
    for p in (jp.pp, jp.pm, jp.mp, jp.mm):
        assert p == pytest.approx(0.25, abs=TOLERANCE)


@given(x=angles, y=angles, convention=conventions)
def test_joint_probability_symmetric_and_normalized(x, y, convention):
    jp = joint_probability(x, y, convention)
    assert jp.pp == jp.mm
    assert jp.pm == jp.mp
    assert jp.pp + jp.pm + jp.mp + jp.mm == pytest.approx(1.0, abs=TOLERANCE)


@given(x=angles, y=angles)
def test_optical_equals_spin_at_doubled_angles(x, y):
    assert joint_probability(x, y, OPTICAL) == joint_probability(2 * x, 2 * y, SPIN)


def test_bell_correlation_frozen_values():
    assert bell_correlation(0.0, 0.0, SPIN) == -1.0
    assert bell_correlation(0.0, math.pi, SPIN) == pytest.approx(1.0, abs=TOLERANCE)
    assert bell_correlation(0.0, math.pi / 3, SPIN) == pytest.approx(-0.5, abs=TOLERANCE)


@given(x=angles, y=angles, convention=conventions)
def test_bell_correlation_equals_probability_combinations(x, y, convention):
    jp = joint_probability(x, y, convention)
    c = bell_correlation(x, y, convention)
    assert c == pytest.approx(4 * jp.pp - 1, abs=TOLERANCE)
    assert c == pytest.approx(2 * jp.pp - 2 * jp.pm, abs=TOLERANCE)
    assert c == pytest.approx(jp.correlation, abs=TOLERANCE)


def test_third_pair_frozen_values():
    ppp, ppm = third_pair_probabilities(AngleConfig(0.0, math.pi / 3, 2 * math.pi / 3))
    assert ppp == pytest.approx(3 / 16, abs=TOLERANCE)
    assert ppm == pytest.approx(5 / 16, abs=TOLERANCE)
    ppp, ppm = third_pair_probabilities(AngleConfig(0.0, 0.0, 0.0))
    assert (ppp, ppm) == (0.5, 0.0)
    ppp, ppm = third_pair_probabilities(AngleConfig(0.0, math.pi / 2, math.pi / 2))
    assert ppp == pytest.approx(0.25, abs=TOLERANCE)
    assert ppm == pytest.approx(0.25, abs=TOLERANCE)


@given(configs)
def test_third_pair_matches_conditional_enumeration(cfg):
    # independent route: sum over the fair +-1 outcome at a of the products
    # of the two conditional +1 probabilities, sin^2(k d) after a +1 and
    # cos^2(k d) after a -1
    ppp, ppm = third_pair_probabilities(cfg)
    k = 0.5 if cfg.convention is SPIN else 1.0
    by_hand_ppp = 0.0
    by_hand_ppm = 0.0
    for trig in (math.sin, math.cos):
        pb = trig(k * (cfg.b - cfg.a)) ** 2
        pbp = trig(k * (cfg.bp - cfg.a)) ** 2
        by_hand_ppp += 0.5 * pb * pbp
        by_hand_ppm += 0.5 * pb * (1 - pbp)
    assert ppp == pytest.approx(by_hand_ppp, abs=TOLERANCE)
    assert ppm == pytest.approx(by_hand_ppm, abs=TOLERANCE)


@given(configs)
def test_third_pair_sums_to_half(cfg):
    ppp, ppm = third_pair_probabilities(cfg)
    assert ppp + ppm == pytest.approx(0.5, abs=TOLERANCE)


def test_third_correlation_frozen_values():
    assert third_correlation(AngleConfig(0.0, math.pi / 3, 2 * math.pi / 3)) == pytest.approx(
        -0.25, abs=TOLERANCE
    )
    theta = 0.7
    assert third_correlation(AngleConfig(0.0, theta, theta)) == pytest.approx(
        math.cos(theta) ** 2, abs=TOLERANCE
    )
    assert third_correlation(AngleConfig(0.0, math.pi / 2, 1.234)) == pytest.approx(
        0.0, abs=TOLERANCE
    )


@given(configs)
def test_third_correlation_equals_probability_difference(cfg):
    ppp, ppm = third_pair_probabilities(cfg)
    assert third_correlation(cfg) == pytest.approx(2 * ppp - 2 * ppm, abs=TOLERANCE)


def test_bell_margin_paper_witness():
    r = bell_margin(WITNESS, Mode.PAPER)
    assert r.kind is InequalityKind.CORR_BELL
    assert r.tolerance == TOLERANCE
    assert r.lhs == pytest.approx(1.0, abs=TOLERANCE)
    assert r.rhs == pytest.approx(1.25, abs=TOLERANCE)
    assert r.margin == pytest.approx(0.25, abs=TOLERANCE)
    assert r.satisfied


def test_bell_margin_naive_witness_violates():
    r = bell_margin(WITNESS, Mode.NAIVE)
    assert r.rhs == pytest.approx(0.5, abs=TOLERANCE)
    assert r.margin == pytest.approx(-0.5, abs=TOLERANCE)
    assert not r.satisfied


@given(a=angles, b=angles)
def test_bell_margin_equal_settings_is_satisfied(a, b):
    r = bell_margin(AngleConfig(a, b, b), Mode.PAPER)
    assert r.lhs == pytest.approx(0.0, abs=TOLERANCE)
    assert r.satisfied


def test_bell_margin_rejects_exact_data_mode():
    with pytest.raises(ValueError, match="PAPER or"):
        bell_margin(WITNESS, Mode.EXACT_DATA)


@pytest.mark.parametrize("parts", [bell_margin_parts, wigner_margin_parts])
@pytest.mark.parametrize("mode", [Mode.EXACT_DATA, "paper"])
def test_margin_parts_reject_modes_other_than_paper_or_naive(parts, mode):
    with pytest.raises(ValueError, match="PAPER or"):
        parts(0.0, 1.0, 2.0, 0.5, mode)


def test_wigner_margin_paper_witness():
    r = wigner_margin(WITNESS, Mode.PAPER)
    assert r.kind is InequalityKind.WIGNER
    assert r.lhs == pytest.approx(0.25, abs=TOLERANCE)
    assert r.rhs == pytest.approx(0.3125, abs=TOLERANCE)
    assert r.margin == pytest.approx(0.0625, abs=TOLERANCE)
    assert r.satisfied


def test_wigner_margin_naive_witness_violates():
    r = wigner_margin(WITNESS, Mode.NAIVE)
    assert r.rhs == pytest.approx(0.125, abs=TOLERANCE)
    assert r.margin == pytest.approx(-0.125, abs=TOLERANCE)
    assert not r.satisfied


@given(b=angles, bp=angles)
def test_wigner_margin_lhs_nonpositive_when_a_equals_b(b, bp):
    r = wigner_margin(AngleConfig(b, b, bp), Mode.PAPER)
    assert r.lhs <= TOLERANCE
    assert r.satisfied


@given(configs)
@example(AngleConfig(1.6044707761031459e-161, 0.0, 0.0))  # subnormal sin^2 terms
def test_wigner_paper_rhs_is_third_pair_ppm(cfg):
    r = wigner_margin(cfg, Mode.PAPER)
    assert r.rhs == third_pair_probabilities(cfg).ppm


@given(configs)
def test_paper_margins_never_violate(cfg):
    assert bell_margin(cfg, Mode.PAPER).margin >= -TOLERANCE
    assert wigner_margin(cfg, Mode.PAPER).margin >= -TOLERANCE


def test_wigner_slack_frozen_values():
    assert wigner_slack(WITNESS) == pytest.approx(0.125, abs=TOLERANCE)
    assert wigner_slack(AngleConfig(1.1, 0.3, 1.1)) == 0.0
    assert wigner_slack(AngleConfig(0.5, 0.5 + math.pi, 2.0)) == pytest.approx(
        0.0, abs=TOLERANCE
    )


@given(configs)
def test_wigner_slack_is_twice_the_paper_margin(cfg):
    r = wigner_margin(cfg, Mode.PAPER)
    slack = wigner_slack(cfg)
    assert slack >= 0.0
    assert slack == pytest.approx(2 * (r.rhs - r.lhs), abs=TOLERANCE)


@given(configs)
def test_pattern_probabilities_reproduce_the_measured_pairs(cfg):
    k = half_angle_factor(cfg.convention)
    q = pattern_probabilities(cfg.a, cfg.b, cfg.bp, k).reshape(2, 2, 2)  # [a][b][b'], -1 first
    assert q.min() >= 0.0
    assert q.sum() == pytest.approx(1.0, abs=TOLERANCE)
    for setting, other_axis in ((cfg.b, 2), (cfg.bp, 1)):
        jp = joint_probability(cfg.a, setting, cfg.convention)
        np.testing.assert_allclose(
            q.sum(axis=other_axis), [[jp.mm, jp.mp], [jp.pm, jp.pp]], rtol=0, atol=TOLERANCE
        )


@pytest.mark.parametrize("convention", [SPIN, OPTICAL], ids=["spin", "optical"])
def test_paper_margins_are_the_data_identity_applied_to_the_model(convention):
    # PAPER mode is the three-set data identity with the pattern counts
    # replaced by the model's q. Each Bell half, (1 - sum bb') -+ (sum ab -
    # sum ab'), is then a sum of q_p times a coefficient 0 or 4: nonnegative
    # in floating point too, with no tolerance.
    k = half_angle_factor(convention)
    a, b, bp = np.meshgrid(*[grid_angles(60)] * 3, indexing="ij")
    q = pattern_probabilities(a, b, bp, k)
    sab, sabp, sbbp = np.tensordot(_TRIPLE_PRODUCTS, q, axes=1)
    lhs, rhs = bell_margin_parts(a, b, bp, k, Mode.PAPER)
    assert np.abs(np.abs(sab - sabp) - lhs).max() <= 1e-15
    assert np.abs((1 - sbbp) - rhs).max() <= 1e-15
    ab, abp, bbp = _TRIPLE_PRODUCTS
    for sign in (1, -1):
        assert np.tensordot((1 - bbp) - sign * (ab - abp), q, axes=1).min() >= 0.0
    # the Wigner margin is q(a+, b-, b'+) + q(a-, b+, b'-)
    lhs, rhs = wigner_margin_parts(a, b, bp, k, Mode.PAPER)
    assert np.abs((rhs - lhs) - (q[2] + q[5])).max() <= 1e-15


@given(configs)
def test_bell_margin_is_four_times_the_smaller_wigner_margin(cfg):
    # the paper's Bell -> Wigner step as an identity, in each mode: with
    # x = b - a and y = b' - a, the PAPER Wigner margin is cos^2(kx) sin^2(ky)
    # and the NAIVE one -sin(k(x - y)) cos(kx) sin(ky)
    k = half_angle_factor(cfg.convention)
    x, y = cfg.b - cfg.a, cfg.bp - cfg.a
    closed_forms = {
        Mode.PAPER: math.cos(k * x) ** 2 * math.sin(k * y) ** 2,
        Mode.NAIVE: -math.sin(k * (x - y)) * math.cos(k * x) * math.sin(k * y),
    }
    swapped = AngleConfig(cfg.a, cfg.bp, cfg.b, cfg.convention)
    for mode, closed_form in closed_forms.items():
        w = wigner_margin(cfg, mode).margin
        w_swapped = wigner_margin(swapped, mode).margin
        assert abs(bell_margin(cfg, mode).margin - 4 * min(w, w_swapped)) <= 1e-14, mode
        assert abs(w - closed_form) <= 1e-14, mode

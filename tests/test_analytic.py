import math
import operator
from fractions import Fraction

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
from bellwigner.data_inequality import _TRIPLE_PRODUCTS, sign_patterns
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


@pytest.mark.parametrize("function", [joint_probability, bell_correlation])
@pytest.mark.parametrize(
    "x, y, convention",
    [(-1e308, 1e308, SPIN), (1e308, -1e308, OPTICAL), (0.0, 2.0**1023, OPTICAL)],
    ids=["spin", "optical", "optical-twice-overflows"],
)
def test_settings_whose_difference_overflows_are_refused(function, x, y, convention):
    # the functions take raw floats: y - x, or twice it, is not finite, and
    # the error names the pair as AngleConfig's does
    with pytest.raises(ValueError, match=r"angles y and x must differ by less than 2\*\*1023"):
        function(x, y, convention)
    widest = math.nextafter(2.0**1023, 0.0)
    assert function(0.0, widest, convention) == function(widest, 0.0, convention)


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
    q = np.array(pattern_probabilities(cfg.a, cfg.b, cfg.bp, k)).reshape(2, 2, 2)  # [a][b][b'], -1 first
    assert q.min() >= 0.0
    assert q.sum() == pytest.approx(1.0, abs=TOLERANCE)
    for setting, other_axis in ((cfg.b, 2), (cfg.bp, 1)):
        jp = joint_probability(cfg.a, setting, cfg.convention)
        np.testing.assert_allclose(
            q.sum(axis=other_axis), [[jp.mm, jp.mp], [jp.pm, jp.pp]], rtol=0, atol=TOLERANCE
        )


@given(configs)
@example(WITNESS)
def test_pattern_probabilities_of_floats_are_a_list_in_sign_pattern_order(cfg):
    # plain floats give a list, computed without numpy, of the patterns of sign_patterns(3)
    k = half_angle_factor(cfg.convention)
    q = pattern_probabilities(cfg.a, cfg.b, cfg.bp, k)
    assert type(q) is list and all(type(p) is float for p in q)

    def squares(d):
        s, c = math.sin(k * d), math.cos(k * d)
        return s * s, c * c

    s2b, c2b = squares(cfg.b - cfg.a)
    s2bp, c2bp = squares(cfg.bp - cfg.a)
    assert q == [
        0.5 * (s2b if sb == sa else c2b) * (s2bp if sbp == sa else c2bp)
        for sa, sb, sbp in sign_patterns(3)
    ]


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
    ab, abp, bbp = np.array(_TRIPLE_PRODUCTS)
    for sign in (1, -1):
        assert np.tensordot((1 - bbp) - sign * (ab - abp), q, axes=1).min() >= 0.0
    # the Wigner margin is q(a+, b-, b'+) + q(a-, b+, b'-)
    lhs, rhs = wigner_margin_parts(a, b, bp, k, Mode.PAPER)
    assert np.abs((rhs - lhs) - (q[2] + q[5])).max() <= 1e-15


@pytest.mark.parametrize("convention", [SPIN, OPTICAL], ids=["spin", "optical"])
def test_paper_bell_rhs_is_bit_identical_to_the_cosine_product(convention):
    # the rhs reuses the negated correlations; negation is exact, so the
    # bytes equal those of the product of the cosines computed afresh
    k = half_angle_factor(convention)
    a, b, bp = np.meshgrid(*[grid_angles(60)] * 3, indexing="ij")
    _, rhs = bell_margin_parts(a, b, bp, k, Mode.PAPER)
    reference = 1.0 - np.cos(2.0 * k * (b - a)) * np.cos(2.0 * k * (bp - a))
    assert rhs.tobytes() == reference.tobytes()


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


# Half-tangents t of the rational points on the circle: cos = (1 - t^2)/(1 + t^2),
# sin = 2t/(1 + t^2). Every angle but pi has one; these cover all four quadrants.
HALF_TANGENTS = [Fraction(0)] + [
    sign * Fraction(n, d)
    for n, d in [(1, 7), (1, 3), (1, 2), (1, 1), (2, 1), (3, 1), (7, 1), (5, 4), (9, 5)]
    for sign in (1, -1)
]


def circle_point(t):
    """(cos, sin) of the angle 2 atan(t), exactly."""
    d = 1 + t * t
    return (1 - t * t) / d, 2 * t / d


def exact_pattern_probability(u, v, sa, sb, sbp):
    """q(a, b, b') = (1/2) P(b | a) P(b' | a), P(x | a) = sin^2 if x = a else cos^2."""
    (cu, su), (cv, sv) = u, v
    return Fraction(1, 2) * (su * su if sb == sa else cu * cu) * (sv * sv if sbp == sa else cv * cv)


def exact_wigner_margin(u, v, mode):
    """Wigner rhs - lhs at u = k(b - a), v = k(b' - a), from wigner_margin's docstring."""
    (cu, su), (cv, sv) = u, v
    lhs = (su * su - sv * sv) / 2  # P++(a, b) - P++(a, b')
    if mode is Mode.PAPER:
        # the conditional P(+, -) of the (b, b') pair
        rhs = sum(exact_pattern_probability(u, v, sa, 1, -1) for sa in (1, -1))
    else:
        s_bbp = su * cv - cu * sv  # sin(u - v) = sin(k(b - b'))
        rhs = s_bbp * s_bbp / 2
    return rhs - lhs


def exact_bell_margin(u, v, mode):
    """Bell rhs - lhs at u = k(b - a), v = k(b' - a), from bell_margin's docstring."""
    (cu, su), (cv, sv) = u, v
    c_ab, c_abp = su * su - cu * cu, sv * sv - cv * cv  # -cos(2u), -cos(2v)
    if mode is Mode.PAPER:
        rhs = 1 - c_ab * c_abp  # 1 - cos(2u) cos(2v)
    else:
        c_d, s_d = cu * cv + su * sv, su * cv - cu * sv  # cos and sin of u - v
        rhs = 1 + (s_d * s_d - c_d * c_d)  # 1 + C(b, b') = 1 - cos(2(u - v))
    return rhs - abs(c_ab - c_abp)


def test_margin_identities_hold_exactly_at_rational_points():
    # no tolerance: the identities behind grid_sweep's candidate set and the
    # census sign rule, in Fractions
    points = [circle_point(t) for t in HALF_TANGENTS]
    for u in points:
        cu, su = u
        for v in points:
            cv, sv = v
            paper = exact_wigner_margin(u, v, Mode.PAPER)
            assert paper == cu * cu * sv * sv
            assert paper == exact_pattern_probability(u, v, 1, -1, 1) + exact_pattern_probability(
                u, v, -1, 1, -1
            )
            for mode in (Mode.PAPER, Mode.NAIVE):
                smaller = min(exact_wigner_margin(u, v, mode), exact_wigner_margin(v, u, mode))
                assert exact_bell_margin(u, v, mode) == 4 * smaller, mode
            assert exact_wigner_margin(u, v, Mode.NAIVE) >= abs(cu) * (abs(cu) - 1) / 2


def test_margins_are_the_exact_rational_forms_in_floats():
    # the floats the kernels compute at a = 0, b = 2 atan(t), b' = 2 atan(t') (OPTICAL)
    for t in HALF_TANGENTS:
        for tp in HALF_TANGENTS:
            cfg = AngleConfig(0.0, 2 * math.atan(t), 2 * math.atan(tp), OPTICAL)
            u, v = circle_point(t), circle_point(tp)
            for mode in (Mode.PAPER, Mode.NAIVE):
                wigner = exact_wigner_margin(u, v, mode)
                assert abs(wigner_margin(cfg, mode).margin - wigner) <= 1e-14
                assert abs(bell_margin(cfg, mode).margin - exact_bell_margin(u, v, mode)) <= 1e-14


def test_paper_bell_halves_are_the_data_identity_on_q_exactly():
    # the paper's claim in one line: each PAPER Bell half, (1 - C3) -+ (C(a,b)
    # - C(a,b')), is the data identity's sum(coef_p * count_p) with the model's
    # q in place of the counts, and every coef_p, from the data layer's own
    # table, is 0 or 4; in Fractions, with no tolerance
    ab, abp, bbp = _TRIPLE_PRODUCTS
    halves = {
        sign: [(1 - x3) - sign * (x1 - x2) for x1, x2, x3 in zip(ab, abp, bbp)] for sign in (1, -1)
    }
    assert all(coef in (0, 4) for coefs in halves.values() for coef in coefs)
    points = [circle_point(t) for t in HALF_TANGENTS]
    for u in points:
        cu, su = u
        for v in points:
            cv, sv = v
            q = [exact_pattern_probability(u, v, *pattern) for pattern in sign_patterns(3)]
            assert sum(q) == 1
            c_ab, c_abp = su * su - cu * cu, sv * sv - cv * cv
            rhs = 1 - c_ab * c_abp
            for sign, coefs in halves.items():
                assert rhs - sign * (c_ab - c_abp) == sum(map(operator.mul, coefs, q)), sign
            assert exact_bell_margin(u, v, Mode.PAPER) == min(
                sum(map(operator.mul, coefs, q)) for coefs in halves.values()
            )

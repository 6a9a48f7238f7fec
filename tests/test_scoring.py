"""Scoring rules against quadrature oracles and closed-form spot values."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from scoremech import (
    NormalBelief,
    ScoringRule,
    ValidationError,
    density,
    divergence,
    expected_score,
    score,
    selfdot,
)

LOG = ScoringRule.LOGARITHMIC
QUAD = ScoringRule.QUADRATIC

STD = NormalBelief(mean=0.0, precision=1.0)

precisions = st.floats(min_value=0.1, max_value=100.0)
means = st.floats(min_value=-20.0, max_value=20.0)


def test_rule_values_round_trip():
    assert ScoringRule("logarithmic") is LOG
    assert ScoringRule("quadratic") is QUAD


def test_belief_validation():
    with pytest.raises(ValidationError):
        NormalBelief(mean=float("nan"), precision=1.0)
    with pytest.raises(ValidationError):
        NormalBelief(mean=0.0, precision=0.0)
    with pytest.raises(ValidationError):
        NormalBelief(mean=0.0, precision=-2.0)
    with pytest.raises(ValidationError):
        NormalBelief(mean=0.0, precision=float("inf"))


def test_standard_density_peak():
    assert density(STD, 0.0) == pytest.approx(0.3989422804014327, abs=1e-16)


@given(means, precisions, st.floats(min_value=-30, max_value=30))
def test_log_score_is_log_density(mu, tau, x):
    p = NormalBelief(mean=mu, precision=tau)
    d = density(p, x)
    if d > 1e-300:
        assert score(LOG, p, x) == pytest.approx(math.log(d), rel=1e-12, abs=1e-12)


@given(means, precisions, st.floats(min_value=-30, max_value=30))
def test_quadratic_score_decomposition(mu, tau, x):
    p = NormalBelief(mean=mu, precision=tau)
    assert score(QUAD, p, x) == pytest.approx(
        2.0 * density(p, x) - selfdot(p) - 1.0, rel=1e-14, abs=1e-14)


def test_selfdot_against_quadrature():
    for mu, tau in [(0.0, 1.0), (3.0, 0.2), (-7.0, 40.0)]:
        p = NormalBelief(mean=mu, precision=tau)
        assert selfdot(p) == pytest.approx(oracles.quad_selfdot(mu, tau), rel=1e-10)
    assert selfdot(STD) == pytest.approx(0.28209479177387814, abs=1e-15)


def test_self_expected_scores_frozen():
    assert expected_score(LOG, STD, STD) == pytest.approx(
        -1.4189385332046727, abs=1e-12)
    assert expected_score(QUAD, STD, STD) == pytest.approx(
        -0.7179052082261219, abs=1e-12)


def test_expected_score_against_quadpack():
    rng = np.random.default_rng(20260819)
    pairs = [rng.uniform(-10, 10, size=2).tolist()
             + np.exp(rng.uniform(np.log(0.1), np.log(100.0), size=2)).tolist()
             for _ in range(40)]
    # A sharp prediction far out in a wide truth: a quadrature panel over
    # the truth's span can miss the predicted density's spike here.
    pairs.append([0.0, -2.5, 1000.0, 0.15])
    for pm, qm, pt, qt in pairs:
        p = NormalBelief(mean=float(pm), precision=float(pt))
        q = NormalBelief(mean=float(qm), precision=float(qt))
        for rule in (LOG, QUAD):
            want = oracles.quad_expected_score(rule.value, pm, pt, qm, qt)
            assert expected_score(rule, p, q) == pytest.approx(
                want, rel=1e-9, abs=1e-11)


def test_divergence_closed_forms_sample():
    # Subset of the acceptance-1 sweep; the full 1000-pair run lives in the
    # acceptance module. Magnitudes are kept above the oracle's resolution.
    rng = np.random.default_rng(42)
    for _ in range(50):
        tau = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
        dmu = float(rng.uniform(0.05, 20.0) * rng.choice([-1.0, 1.0]))
        p = NormalBelief(mean=dmu, precision=tau)
        q = NormalBelief(mean=0.0, precision=tau)
        got_log = divergence(LOG, p, q)
        got_quad = divergence(QUAD, p, q)
        assert got_log == pytest.approx(-0.5 * tau * dmu * dmu, rel=1e-12)
        assert got_quad == pytest.approx(
            math.sqrt(tau / math.pi) * math.expm1(-0.25 * tau * dmu * dmu),
            rel=1e-12)
        assert got_log == pytest.approx(
            oracles.quad_divergence("logarithmic", dmu, tau, 0.0, tau), rel=1e-8)
        assert got_quad == pytest.approx(
            oracles.quad_divergence("quadratic", dmu, tau, 0.0, tau), rel=1e-8)


def test_divergence_spot_values():
    p = NormalBelief(mean=10.0, precision=1.0)
    q = NormalBelief(mean=0.0, precision=1.0)
    assert divergence(LOG, p, q) == pytest.approx(-50.0, rel=1e-14)
    assert divergence(QUAD, p, q) == pytest.approx(-0.5641895835399209, rel=1e-12)


@given(means, means, precisions, precisions)
def test_propriety(pm, qm, pt, qt):
    p = NormalBelief(mean=pm, precision=pt)
    q = NormalBelief(mean=qm, precision=qt)
    for rule in (LOG, QUAD):
        gap = divergence(rule, p, q)
        assert gap <= 1e-12
        if abs(pm - qm) > 1e-2 or abs(pt / qt - 1.0) > 1e-2:
            assert gap < 0.0


def test_unequal_precision_divergence_matches_expectation_difference():
    p = NormalBelief(mean=1.0, precision=3.0)
    q = NormalBelief(mean=-0.5, precision=0.7)
    for rule in (LOG, QUAD):
        want = expected_score(rule, p, q) - expected_score(rule, q, q)
        assert divergence(rule, p, q) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_far_outcome_scores_stay_finite_or_diverge_cleanly():
    p = NormalBelief(mean=0.0, precision=4.0)
    far = score(LOG, p, 1e3)
    assert far < -1e6 and math.isfinite(far)
    assert score(QUAD, p, 1e3) == pytest.approx(-selfdot(p) - 1.0, abs=1e-15)
    # Overflowing the exponent produces a clean -inf, never a NaN.
    assert score(LOG, p, 1e200) == -math.inf


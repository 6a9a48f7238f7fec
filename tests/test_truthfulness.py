"""Analytic truthfulness classification: closed forms, limits, boundaries."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from scoremech import (
    DegenerateCorrelationError,
    NumericError,
    ScoringRule,
    SignalModel,
    TruthfulnessVerdict,
    ValidationError,
    classify_log,
    classify_quadratic,
    delta_log,
    delta_quadratic,
    local_truthfulness_fd,
    posterior_pair,
    posterior_single,
)

LOG = ScoringRule.LOGARITHMIC
QUAD = ScoringRule.QUADRATIC
_SQRT_2PI = math.sqrt(2.0 * math.pi)

precisions = st.floats(min_value=0.05, max_value=50.0)
rhos = st.floats(min_value=-0.98, max_value=0.98)


def _random_model(rng):
    ta, tb = np.exp(rng.uniform(np.log(0.05), np.log(50.0), size=2))
    tc = float(rng.choice([0.0, np.exp(rng.uniform(np.log(0.01), np.log(50.0)))]))
    return SignalModel(tau_a=float(ta), tau_b=float(tb), tau_c=tc,
                       rho=float(rng.uniform(-0.98, 0.98)))


def test_delta_log_spot_values():
    flat = SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.0, rho=0.0)
    assert delta_log(flat, 1.0) == pytest.approx(0.5, abs=1e-15)
    anti = SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.0, rho=-0.8)
    assert delta_log(anti, 1.0) == pytest.approx(-1.5, rel=1e-14)


@given(precisions, precisions, precisions, rhos,
       st.floats(min_value=-50, max_value=50))
def test_delta_log_is_quadratic_in_shift(ta, tb, tc, rho, c):
    model = SignalModel(tau_a=ta, tau_b=tb, tau_c=tc, rho=rho)
    assert delta_log(model, 2.0 * c) == pytest.approx(
        4.0 * delta_log(model, c), rel=1e-12, abs=1e-12)
    assert delta_log(model, -c) == delta_log(model, c)


def test_log_margin_sign_matches_delta_sign():
    rng = np.random.default_rng(11)
    for _ in range(300):
        model = _random_model(rng)
        margin = classify_log(model).margin
        if abs(margin) < 1e-9:
            continue
        assert (delta_log(model, 1.0) > 0.0) == (margin > 0.0)


def test_log_boundary_pair():
    at = SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.0, rho=-0.5)
    below = SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.0, rho=-0.5 - 1e-9)
    assert classify_log(at).globally_truthful
    assert classify_log(at).margin == 0.0
    assert not classify_log(below).globally_truthful
    assert classify_log(below).margin < 0.0


def test_log_local_equals_global():
    rng = np.random.default_rng(12)
    for _ in range(200):
        v = classify_log(_random_model(rng))
        assert v.locally_truthful == v.globally_truthful


def test_equal_precision_flat_prior_interval():
    # Subset of the acceptance-3 sweep: with equal signal precisions and a
    # flat prior the verdict reduces to rho >= -1/2.
    rng = np.random.default_rng(13)
    for _ in range(500):
        tau = float(np.exp(rng.uniform(np.log(0.05), np.log(50.0))))
        rho = float(rng.uniform(-0.999, 0.999))
        model = SignalModel(tau_a=tau, tau_b=tau, tau_c=0.0, rho=rho)
        assert classify_log(model).globally_truthful == (rho >= -0.5)


def test_degenerate_correlation_is_untruthful_not_an_error():
    for rho in (1.0, -1.0):
        # Log rule: untruthful verdict regardless of the (finite) margin.
        v = classify_log(SignalModel(tau_a=1.0, tau_b=2.0, rho=rho))
        assert not v.globally_truthful and not v.locally_truthful
        assert math.isfinite(v.margin)
        vq = classify_quadratic(SignalModel(tau_a=1.0, tau_b=2.0, rho=rho))
        assert not vq.locally_truthful
        assert vq.margin == -math.inf
    # The finite log margin can even be zero while the verdict stays False.
    corner = classify_log(SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.0, rho=1.0))
    assert corner.margin == 0.0 and not corner.globally_truthful
    with pytest.raises(DegenerateCorrelationError):
        delta_log(SignalModel(tau_a=1.0, tau_b=1.0, rho=1.0), 1.0)
    with pytest.raises(DegenerateCorrelationError):
        delta_quadratic(SignalModel(tau_a=1.0, tau_b=1.0, rho=-1.0), 1.0)


def test_quadratic_never_globally_truthful():
    rng = np.random.default_rng(14)
    for _ in range(200):
        assert not classify_quadratic(_random_model(rng)).globally_truthful


def test_quadratic_margin_is_prior_free():
    for rho in (-0.9, -0.3, 0.2, 0.6, 0.9):
        margins = {
            classify_quadratic(
                SignalModel(tau_a=2.0, tau_b=1.0, tau_c=tc, rho=rho)).margin
            for tc in (0.0, 1.0, 100.0)
        }
        assert len(margins) == 1


@given(precisions, precisions, rhos)
def test_quadratic_margin_closed_form(ta, tb, rho):
    model = SignalModel(tau_a=ta, tau_b=tb, tau_c=1.0, rho=rho)
    f = (1.0 - rho * math.sqrt(tb / ta)) / (1.0 - rho * rho)
    v = classify_quadratic(model)
    assert v.margin == pytest.approx(1.0 - f * f, rel=1e-12, abs=1e-12)
    assert v.locally_truthful == (v.margin > 0.0)


def test_quadratic_small_shift_gain_matches_margin_curvature():
    # delta_quadratic(h)/h^2 converges to tau_a^2 * margin / (4 sqrt(2 pi)).
    rng = np.random.default_rng(15)
    h = 1e-4
    for _ in range(100):
        model = _random_model(rng)
        margin = classify_quadratic(model).margin
        want = model.tau_a ** 2 * margin / (4.0 * _SQRT_2PI)
        if abs(want) < 1e-10:
            continue
        assert delta_quadratic(model, h) / (h * h) == pytest.approx(want, rel=1e-4)


def test_quadratic_large_shift_tail():
    # As the lie grows the gain tends to (tau_single - tau_pool)/sqrt(2 pi),
    # negative whenever the second signal adds information.
    rng = np.random.default_rng(16)
    for _ in range(50):
        model = _random_model(rng)
        tau_single = posterior_single(model, 0.0).precision
        tau_pool = posterior_pair(model, 0.0, 0.0).precision
        want = (tau_single - tau_pool) / _SQRT_2PI
        assert delta_quadratic(model, 1e8) == pytest.approx(want, rel=1e-10)


def test_zero_pair_shift_locus_makes_every_lie_self_harm():
    # At rho = sqrt(tau_a/tau_b) a first-slot shift cancels out of the pooled
    # posterior exactly, so the deviation criterion is positive for every c.
    model = SignalModel(tau_a=0.25, tau_b=1.0, tau_c=0.0, rho=0.5)
    for c in (1e-3, 1.0, 1e3):
        assert delta_quadratic(model, c) > 0.0
    tau_single = posterior_single(model, 0.0).precision
    want = tau_single / _SQRT_2PI
    assert delta_quadratic(model, 1e8) == pytest.approx(want, rel=1e-12)


def test_large_noise_ratio_positive_rho_not_locally_truthful():
    # For sigma_a > sigma_b the curvature criterion 1 - f^2 > 0 has a second
    # root rho* = (-r + sqrt(r^2 + 8))/2 below r = sqrt(tau_b/tau_a): beyond
    # it f < -1 and small lies profit even though 0 < rho < r still holds.
    model = SignalModel(tau_a=0.25, tau_b=1.0, tau_c=0.0, rho=0.8)
    v = classify_quadratic(model)
    assert 0.0 < model.rho < math.sqrt(model.tau_b / model.tau_a)
    assert v.margin < 0.0
    assert not v.locally_truthful
    assert delta_quadratic(model, 0.01) < 0.0
    assert not local_truthfulness_fd(QUAD, model)
    rho_star = (-2.0 + math.sqrt(12.0)) / 2.0
    inside = SignalModel(tau_a=0.25, tau_b=1.0, tau_c=0.0, rho=rho_star - 0.05)
    assert classify_quadratic(inside).locally_truthful


def test_fd_probe_matches_margins_off_boundary():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(200):
        model = _random_model(rng)
        for rule, verdict in ((LOG, classify_log(model)),
                              (QUAD, classify_quadratic(model))):
            if abs(verdict.margin) < 1e-3:
                continue
            assert local_truthfulness_fd(rule, model) == verdict.locally_truthful
            checked += 1
    assert checked > 300


def test_fd_probe_raises_on_exact_boundaries():
    with pytest.raises(NumericError):
        local_truthfulness_fd(QUAD, SignalModel(tau_a=1.0, tau_b=1.0, rho=0.0))
    with pytest.raises(NumericError):
        local_truthfulness_fd(
            LOG, SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.0, rho=-0.5))


def test_verdict_consistency_guard():
    with pytest.raises(ValidationError):
        TruthfulnessVerdict(globally_truthful=True, locally_truthful=False,
                            margin=1.0)


def test_verdict_consistency_guard_survives_optimize():
    # python -O strips assert statements; the guard must be an explicit raise.
    code = (
        "from scoremech import TruthfulnessVerdict, ValidationError\n"
        "try:\n"
        "    TruthfulnessVerdict(True, False, 1.0)\n"
        "except ValidationError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env)
    assert done.returncode == 0

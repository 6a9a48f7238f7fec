"""Analytic truthfulness classification: closed forms, limits, boundaries."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import canonical_models, saturating_shift
from scoremech import (
    DegenerateCorrelationError,
    DiscountSchedule,
    NumericError,
    ScoringRule,
    SignalModel,
    TruthfulnessVerdict,
    ValidationError,
    analytic_gain,
    best_response,
    classify_log,
    classify_quadratic,
    deviation_criterion,
    local_truthfulness_fd,
    posterior_pair,
    posterior_single,
    required_ratio_numeric,
)

LOG = ScoringRule.LOGARITHMIC
QUAD = ScoringRule.QUADRATIC
FLAT = DiscountSchedule(kind="constant", k0=1.0)

precisions = st.floats(min_value=0.05, max_value=50.0)
rhos = st.floats(min_value=-0.98, max_value=0.98)


def _random_model(rng):
    ta, tb = np.exp(rng.uniform(np.log(0.05), np.log(50.0), size=2))
    tc = float(rng.choice([0.0, np.exp(rng.uniform(np.log(0.01), np.log(50.0)))]))
    return SignalModel(tau_a=float(ta), tau_b=float(tb), tau_c=tc,
                       rho=float(rng.uniform(-0.98, 0.98)))


def test_delta_log_spot_values():
    flat = SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.0, rho=0.0)
    assert deviation_criterion(LOG, flat, 1.0) == pytest.approx(0.25, abs=1e-15)
    anti = SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.0, rho=-0.8)
    assert deviation_criterion(LOG, anti, 1.0) == pytest.approx(-0.75, rel=1e-14)


@given(precisions, precisions, precisions, rhos,
       st.floats(min_value=-50, max_value=50))
def test_delta_log_is_quadratic_in_shift(ta, tb, tc, rho, c):
    model = SignalModel(tau_a=ta, tau_b=tb, tau_c=tc, rho=rho)
    assert deviation_criterion(LOG, model, 2.0 * c) == pytest.approx(
        4.0 * deviation_criterion(LOG, model, c), rel=1e-12, abs=1e-12)
    assert deviation_criterion(LOG, model, -c) == deviation_criterion(LOG, model, c)


def test_log_margin_sign_matches_delta_sign():
    rng = np.random.default_rng(11)
    for _ in range(300):
        model = _random_model(rng)
        margin = classify_log(model).margin
        if abs(margin) < 1e-9:
            continue
        assert (deviation_criterion(LOG, model, 1.0) > 0.0) == (margin > 0.0)


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
        deviation_criterion(LOG, SignalModel(tau_a=1.0, tau_b=1.0, rho=1.0), 1.0)
    with pytest.raises(DegenerateCorrelationError):
        deviation_criterion(QUAD, SignalModel(tau_a=1.0, tau_b=1.0, rho=-1.0), 1.0)


def test_quadratic_never_globally_truthful():
    rng = np.random.default_rng(14)
    for _ in range(200):
        assert not classify_quadratic(_random_model(rng)).globally_truthful


def test_quadratic_margin_is_prior_free():
    # The prior enters the margin only through the precision ratio: the
    # curvature ratio 1 - margin, rescaled by sqrt(tau_pool/tau_single), is
    # the same f^2 for every tau_C.
    for rho in (-0.9, -0.3, 0.2, 0.6, 0.9):
        scaled = []
        for tc in (0.0, 1.0, 100.0):
            model = SignalModel(tau_a=2.0, tau_b=1.0, tau_c=tc, rho=rho)
            ratio = model.tau_pool / model.tau_single
            scaled.append((1.0 - classify_quadratic(model).margin) * math.sqrt(ratio))
        assert max(scaled) == pytest.approx(min(scaled), rel=1e-12)


@given(precisions, precisions, rhos)
def test_quadratic_margin_closed_form(ta, tb, rho):
    model = SignalModel(tau_a=ta, tau_b=tb, tau_c=1.0, rho=rho)
    f = (1.0 - rho * math.sqrt(tb / ta)) / (1.0 - rho * rho)
    tau_single = posterior_single(model, 0.0).precision
    tau_pool = posterior_pair(model, 0.0, 0.0).precision
    v = classify_quadratic(model)
    want = 1.0 - f * f * math.sqrt(tau_single / tau_pool)
    assert v.margin == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert v.locally_truthful == (v.margin > 0.0)


def test_quadratic_small_shift_gain_matches_margin_curvature():
    # The quadratic divergence is -tau^{3/2} s^2 / (4 sqrt(pi)) + O(s^4), so
    # the criterion over h^2 converges to tau_a^2 margin / (4 sqrt(pi tau_single)).
    rng = np.random.default_rng(15)
    h = 1e-4
    for _ in range(100):
        model = _random_model(rng)
        margin = classify_quadratic(model).margin
        want = model.tau_a ** 2 * margin / (4.0 * math.sqrt(math.pi * model.tau_single))
        if abs(want) < 1e-10:
            continue
        got = -analytic_gain(model, QUAD, FLAT, h) / (h * h)
        assert got == pytest.approx(want, rel=1e-4)


def test_quadratic_large_shift_tail():
    # As the lie grows the criterion tends to
    # -(sqrt(tau_pool) - sqrt(tau_single))/sqrt(pi), negative whenever the
    # second signal adds information.
    rng = np.random.default_rng(16)
    for _ in range(50):
        model = _random_model(rng)
        tau_single = posterior_single(model, 0.0).precision
        tau_pool = posterior_pair(model, 0.0, 0.0).precision
        want = -(math.sqrt(tau_pool) - math.sqrt(tau_single)) / math.sqrt(math.pi)
        assert deviation_criterion(QUAD, model, 1e8) == pytest.approx(want, rel=1e-10)


def test_zero_pair_shift_locus_makes_every_lie_self_harm():
    # At rho = sqrt(tau_a/tau_b) a first-slot shift cancels out of the pooled
    # posterior exactly, so the deviation criterion is positive for every c
    # and tends to the forfeited first-slot divergence sqrt(tau_single/pi).
    model = SignalModel(tau_a=0.25, tau_b=1.0, tau_c=0.0, rho=0.5)
    for c in (1e-3, 1.0, 1e3):
        assert deviation_criterion(QUAD, model, c) > 0.0
    tau_single = posterior_single(model, 0.0).precision
    want = math.sqrt(tau_single / math.pi)
    assert deviation_criterion(QUAD, model, 1e8) == pytest.approx(want, rel=1e-12)


def test_large_noise_ratio_positive_rho_not_locally_truthful():
    # For sigma_a > sigma_b the curvature ratio passes 1 a second time below
    # r = sqrt(tau_b/tau_a) = 2, near rho = 0.785 for this model: beyond it
    # small lies profit even though 0 < rho < r still holds.
    model = SignalModel(tau_a=0.25, tau_b=1.0, tau_c=0.0, rho=0.8)
    v = classify_quadratic(model)
    assert 0.0 < model.rho < math.sqrt(model.tau_b / model.tau_a)
    assert v.margin < 0.0
    assert not v.locally_truthful
    assert deviation_criterion(QUAD, model, 0.01) < 0.0
    assert analytic_gain(model, QUAD, FLAT, 0.01) > 0.0
    assert not local_truthfulness_fd(QUAD, model)
    inside = SignalModel(tau_a=0.25, tau_b=1.0, tau_c=0.0, rho=0.7)
    assert classify_quadratic(inside).locally_truthful
    assert analytic_gain(inside, QUAD, FLAT, 0.01) < 0.0


def _early_weight(ratio):
    """k(1)/k(2) = ratio: Alice's first slot is paid ratio times Bob's."""
    return DiscountSchedule(kind="piecewise", k0=ratio, resets=((2, 1.0),))


def test_criterion_verdict_and_ratio_read_the_game_on_the_default_grid():
    # The criterion is the game's gain with its sign flipped, the quadratic
    # verdict is the sign of that gain at a small shift, and the quadratic
    # ratio K is the least early/late payment ratio at which no shift pays.
    verdict_flips, residues, misses = [], [], []
    nonzero = checked = 0
    for model in canonical_models():
        for rule in (LOG, QUAD):
            for c in (1e-3, 1.0, 1e3):
                assert deviation_criterion(rule, model, c) == -analytic_gain(
                    model, rule, FLAT, c), (model, rule, c)
        gain = analytic_gain(model, QUAD, FLAT, 1e-3)
        if gain != 0.0:
            nonzero += 1
            if classify_quadratic(model).locally_truthful != (gain < 0.0):
                verdict_flips.append(model)
        k = required_ratio_numeric(QUAD, model)
        if k == 0.0:
            continue
        checked += 1
        c_bound = saturating_shift(model)
        at_k = best_response(model, QUAD, _early_weight(k), c_bound).gain
        if at_k > 1e-12 * math.sqrt(model.tau_pool / math.pi):
            residues.append((model, at_k))
        if not best_response(model, QUAD, _early_weight(0.99 * k), c_bound).gain > 0.0:
            misses.append(model)
    assert nonzero == 348 and not verdict_flips, verdict_flips
    assert checked == 348
    assert not residues, residues
    assert not misses, misses


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
    # On the neutral boundary rho = sqrt(tau_b/tau_a) the quadratic
    # criterion is identically zero.
    with pytest.raises(NumericError):
        local_truthfulness_fd(QUAD, SignalModel(tau_a=4.0, tau_b=1.0, rho=0.5))
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

"""Discount schedules, restoration ratios, and worst-case loss bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from conftest import canonical_models
from scoremech import (
    DiscountIneffectiveError,
    DiscountSchedule,
    NormalBelief,
    ScoringRule,
    SignalModel,
    ValidationError,
    analytic_gain,
    best_response,
    classify_log,
    loss_bound,
    nonpositivity_shift,
    posterior_pair,
    posterior_single,
    required_ratio_log,
    required_ratio_numeric,
    schedule_eval,
    score,
)
from scoremech.scoring import _divergence

LOG = ScoringRule.LOGARITHMIC
QUAD = ScoringRule.QUADRATIC
STD = NormalBelief(mean=0.0, precision=1.0)


@st.composite
def schedules(draw):
    kind = draw(st.sampled_from(["constant", "geometric_by_count", "piecewise"]))
    k0 = draw(st.floats(min_value=0.1, max_value=10.0))
    decay = (draw(st.floats(min_value=0.3, max_value=0.99))
             if kind == "geometric_by_count" else 1.0)
    times = draw(st.lists(st.integers(min_value=1, max_value=30),
                          max_size=5, unique=True))
    levels = draw(st.lists(st.floats(min_value=0.1, max_value=10.0),
                           min_size=len(times), max_size=len(times)))
    resets = tuple(sorted(zip(times, levels)))
    return DiscountSchedule(kind=kind, k0=k0, decay=decay, resets=resets)


def test_schedule_validation():
    with pytest.raises(ValidationError):
        DiscountSchedule(kind="linear", k0=1.0)
    with pytest.raises(ValidationError):
        DiscountSchedule(kind="constant", k0=0.0)
    with pytest.raises(ValidationError):
        DiscountSchedule(kind="constant", k0=1.0, decay=0.5)
    with pytest.raises(ValidationError):
        DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.0)
    with pytest.raises(ValidationError):
        DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=1.5)
    with pytest.raises(ValidationError):
        DiscountSchedule(kind="piecewise", k0=1.0, resets=((3, 1.0), (3, 2.0)))
    with pytest.raises(ValidationError):
        DiscountSchedule(kind="piecewise", k0=1.0, resets=((5, 1.0), (2, 2.0)))
    with pytest.raises(ValidationError):
        DiscountSchedule(kind="piecewise", k0=1.0, resets=((2, 0.0),))
    with pytest.raises(ValidationError):
        DiscountSchedule(kind="piecewise", k0=1.0,
                         resets=tuple((t, 1.0) for t in range(1, 70)))


def test_schedule_eval_spots():
    geo = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.5)
    assert schedule_eval(geo, 0) == 1.0
    assert schedule_eval(geo, 3) == 0.125
    stepped = DiscountSchedule(kind="piecewise", k0=1.0,
                               resets=((2, 0.5), (5, 2.0)))
    assert schedule_eval(stepped, 1) == 1.0
    assert schedule_eval(stepped, 2) == 0.5
    assert schedule_eval(stepped, 4) == 0.5
    assert schedule_eval(stepped, 7) == 2.0
    with pytest.raises(ValidationError):
        schedule_eval(stepped, -1)


@given(schedules(), st.integers(min_value=0, max_value=40))
def test_schedule_eval_matches_recursion(schedule, t):
    want = oracles.recursive_schedule_level(
        schedule.kind, schedule.k0, schedule.decay, schedule.resets, t)
    assert schedule_eval(schedule, t) == pytest.approx(want, rel=1e-12)


@given(schedules())
def test_schedule_config_round_trip(schedule):
    clone = DiscountSchedule.from_config(schedule.to_config())
    assert clone == schedule


def test_required_ratio_log_spots():
    assert required_ratio_log(
        SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.0, rho=0.0)) == pytest.approx(
            0.5, abs=1e-15)
    assert required_ratio_log(
        SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.0, rho=-0.8)) == pytest.approx(
            2.5, rel=1e-14)


def test_required_ratio_log_vs_truthfulness():
    # A ratio at most 1 means no discount is needed, which is exactly the
    # truthful verdict; the two must agree away from the boundary.
    rng = np.random.default_rng(21)
    for _ in range(300):
        ta, tb = np.exp(rng.uniform(np.log(0.05), np.log(50.0), size=2))
        tc = float(rng.choice([0.0, float(np.exp(rng.uniform(-3, 3)))]))
        model = SignalModel(tau_a=float(ta), tau_b=float(tb), tau_c=tc,
                            rho=float(rng.uniform(-0.98, 0.98)))
        ratio = required_ratio_log(model)
        margin = classify_log(model).margin
        if abs(ratio - 1.0) < 1e-9:
            continue
        assert (ratio <= 1.0) == (margin >= 0.0)


def test_required_ratio_log_edge_cases():
    # Shift-proof locus: the pair posterior ignores the lie entirely.
    locus = SignalModel(tau_a=0.25, tau_b=1.0, tau_c=0.0, rho=0.5)
    assert required_ratio_log(locus) == 0.0
    for rho in (1.0, -1.0):
        with pytest.raises(DiscountIneffectiveError):
            required_ratio_log(SignalModel(tau_a=2.0, tau_b=1.0, rho=rho))
    # Equal precisions keep a finite 1/4 limit toward perfect correlation.
    near_one = SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.0, rho=1.0 - 1e-9)
    assert required_ratio_log(near_one) == pytest.approx(0.25, rel=1e-3)
    # Unequal precisions diverge toward perfect correlation.
    assert required_ratio_log(
        SignalModel(tau_a=4.0, tau_b=1.0, tau_c=0.0, rho=1.0 - 1e-7)) > 1e4


def test_numeric_ratio_matches_analytic_for_log_rule():
    # Two derivations of one number: the curvature ratio read from
    # scoring's divergence weight and rate, and the closed form in
    # (tau_A, tau_B, tau_C, rho), which the oracle evaluates at 60 digits.
    rng = np.random.default_rng(22)
    models = list(canonical_models())
    for _ in range(25):
        ta, tb = np.exp(rng.uniform(np.log(0.1), np.log(20.0), size=2))
        models.append(SignalModel(tau_a=float(ta), tau_b=float(tb),
                                  tau_c=float(np.exp(rng.uniform(-3, 2))),
                                  rho=float(rng.uniform(-0.9, 0.9))))
    for model in models:
        closed = oracles.mp_log_ratio_closed_form(
            model.tau_a, model.tau_b, model.tau_c, model.rho)
        assert required_ratio_numeric(LOG, model) == pytest.approx(
            float(closed), rel=1e-12, abs=0.0), model


def test_numeric_ratio_quadratic_equals_extreme_limit():
    # The quadratic ratio is monotone in |c|, so its supremum is the larger
    # of the c -> 0 and c -> inf limits, both available in closed form.
    rng = np.random.default_rng(23)
    for _ in range(25):
        ta, tb = np.exp(rng.uniform(np.log(0.1), np.log(20.0), size=2))
        model = SignalModel(tau_a=float(ta), tau_b=float(tb),
                            tau_c=float(np.exp(rng.uniform(-3, 2))),
                            rho=float(rng.uniform(-0.9, 0.9)))
        alpha_g, alpha_h = model.alpha_g, model.alpha_h
        tau_single = posterior_single(model, 0.0).precision
        tau_pool = posterior_pair(model, 0.0, 0.0).precision
        # The quadratic divergence is -tau^{3/2} s^2 / (4 sqrt(pi)) near
        # s = 0 and tends to -sqrt(tau/pi) as s grows.
        zero = (tau_pool / tau_single) ** 1.5 * (alpha_h / alpha_g) ** 2
        tail = math.sqrt(tau_pool / tau_single)
        got = required_ratio_numeric(QUAD, model)
        # The package reads both limits from scoring's weight and rate, so
        # they agree with these forms to rounding (largest seen 4.0e-16).
        assert got == pytest.approx(max(zero, tail), rel=1e-15, abs=0.0)
        assert math.isfinite(got)


def test_numeric_ratio_locus_and_degenerate():
    locus = SignalModel(tau_a=0.25, tau_b=1.0, tau_c=0.0, rho=0.5)
    assert required_ratio_numeric(QUAD, locus) == 0.0
    assert required_ratio_numeric(LOG, locus) == 0.0
    with pytest.raises(DiscountIneffectiveError):
        required_ratio_numeric(QUAD, SignalModel(tau_a=1.0, tau_b=1.0, rho=1.0))


ORACLE_SCHEDULES = (
    DiscountSchedule(kind="constant", k0=1.0),
    DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.9),
    DiscountSchedule(kind="piecewise", k0=2.0, resets=((2, 1.0),)),
    DiscountSchedule(kind="piecewise", k0=1.0, resets=((2, 3.0),)),
)


def test_closed_forms_dominate_a_dense_shift_grid():
    # Neither the quadratic ratio nor the quadratic gain, evaluated densely
    # in |c| up to 1e3, may exceed its closed-form supremum by more than
    # rounding. The ratio is the influence/forfeit quotient written out; the
    # divergences are analytic_gain's own scalar terms, so the gain arrays
    # equal analytic_gain exactly (checked on a subsample).
    cs = [0.0] + np.logspace(-6, 3, 4000).tolist()
    checked = 0
    for model in canonical_models():
        if model.alpha_h == 0.0:
            continue
        ts, tp = model.tau_single, model.tau_pool
        div_first = np.array([_divergence(QUAD, ts, c * model.alpha_g) for c in cs])
        div_pool = np.array([_divergence(QUAD, tp, c * model.alpha_h) for c in cs])
        pos = np.array(cs[1:])
        ratio = (np.sqrt(tp) * np.expm1(-0.25 * tp * (pos * model.alpha_h) ** 2)) / (
            np.sqrt(ts) * np.expm1(-0.25 * ts * (pos * model.alpha_g) ** 2))
        k_min = required_ratio_numeric(QUAD, model)
        assert ratio.max() <= k_min * (1.0 + 1e-14), model
        for sched in ORACLE_SCHEDULES:
            k1, k2 = schedule_eval(sched, 1), schedule_eval(sched, 2)
            gain = k1 * div_first - k2 * div_pool
            for i in range(0, len(cs), 401):
                assert gain[i] == analytic_gain(model, QUAD, sched, cs[i])
            best = best_response(model, QUAD, sched).gain
            assert gain.max() <= best + 1e-14 * max(1.0, abs(best)), (model, sched)
            checked += 1
    assert checked == 348 * len(ORACLE_SCHEDULES)


def test_loss_bound_frozen_value():
    flat = DiscountSchedule(kind="constant", k0=1.0)
    assert loss_bound(flat, STD, LOG) == pytest.approx(
        1.4189385332046727, abs=1e-12)
    # Quadrature agreement, independently of the closed form.
    want = -oracles.quad_expected_score("logarithmic", 0, 1, 0, 1)
    assert loss_bound(flat, STD, LOG) == pytest.approx(want, rel=1e-9)


def test_loss_bound_counts_every_reset_as_an_epoch():
    flat = DiscountSchedule(kind="constant", k0=1.0)
    base = loss_bound(flat, STD, LOG)
    # A reset to the same level still re-exposes the maker once more.
    once = DiscountSchedule(kind="piecewise", k0=1.0, resets=((5, 1.0),))
    assert loss_bound(once, STD, LOG) == pytest.approx(2.0 * base, rel=1e-14)
    mixed = DiscountSchedule(kind="piecewise", k0=2.0,
                             resets=((3, 0.5), (9, 1.5)))
    assert loss_bound(mixed, STD, LOG) == pytest.approx(4.0 * base, rel=1e-14)
    # Pure decay adds no epochs.
    geo = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.5)
    assert loss_bound(geo, STD, LOG) == pytest.approx(base, rel=1e-14)


def test_loss_bound_rejects_positive_self_score():
    sharp = NormalBelief(mean=0.0, precision=20.0)
    flat = DiscountSchedule(kind="constant", k0=1.0)
    with pytest.raises(ValidationError, match="nonpositivity_shift"):
        loss_bound(flat, sharp, LOG)


def test_nonpositivity_shift_values():
    assert nonpositivity_shift(LOG, 2.0 * math.pi) == 0.0
    assert nonpositivity_shift(LOG, 1.0) == 0.0
    assert nonpositivity_shift(LOG, 625.0) == pytest.approx(
        2.299937291663528, rel=1e-14)
    assert nonpositivity_shift(QUAD, 1.0) == 0.0
    assert nonpositivity_shift(QUAD, 625.0) == pytest.approx(
        11.894744225724683, rel=1e-14)
    # The quadratic rule turns positive just above tau ~ 3.7588.
    assert nonpositivity_shift(QUAD, 3.75) == 0.0
    assert nonpositivity_shift(QUAD, 3.77) > 0.0


@given(st.floats(min_value=0.1, max_value=1000.0))
def test_shift_caps_peak_score(tau):
    belief = NormalBelief(mean=0.0, precision=tau)
    for rule in (LOG, QUAD):
        shift = nonpositivity_shift(rule, tau)
        peak = score(rule, belief, 0.0)
        assert peak - shift <= 1e-12
        if shift > 0.0:
            assert peak - shift == pytest.approx(0.0, abs=1e-12)

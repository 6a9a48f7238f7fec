"""The package's deviation calculus against 60-digit mpmath forms of it
(``oracles.mp_*``), over the precisions the CLI accepts.

The models are drawn with precisions log-uniform over the CLI's range
[``_MIN_PRECISION``, ``_MAX_PRECISION``], a prior precision of 0 or in that
range, and |rho| <= 1 - 1e-6. Two tolerances are stated here and not tuned:

* a value whose exact counterpart is not 0 agrees to ``REL_TOL`` relative.
  A margin or a gain is a difference of two terms, so it agrees to
  ``REL_TOL`` of the larger term instead;
* a verdict agrees with the sign of the exact margin, except inside the
  boundary band |margin| <= ``BAND`` times the larger term of its
  inequality (1 and R for the quadratic rule, so the band is |1 - R| <=
  1e-9 wherever it matters).

Closer to |rho| = 1, the pooled precision and alpha_h lose relative accuracy
as about 1e-16 / (1 - |rho|): at 1 - |rho| = 6.2e-9, R was off by 6.2e-9.
"""

import math

import pytest
from hypothesis import example, given, strategies as st

import oracles
from scoremech import (
    DiscountSchedule,
    ScoringRule,
    SignalModel,
    analytic_gain,
    classify_log,
    classify_quadratic,
    required_ratio_log,
    required_ratio_numeric,
)
from scoremech.errors import _MAX_PRECISION, _MIN_PRECISION
from scoremech.truthfulness import _curvatures

REL_TOL = 1e-9
BAND = 1e-9
RHO_LIMIT = 1.0 - 1e-6

precisions = st.floats(math.log10(_MIN_PRECISION), math.log10(_MAX_PRECISION)).map(
    lambda exponent: 10.0**exponent)
models = st.builds(
    SignalModel,
    tau_a=precisions,
    tau_b=precisions,
    tau_c=st.one_of(st.just(0.0), precisions),
    rho=st.floats(-RHO_LIMIT, RHO_LIMIT),
)
rules = st.sampled_from(ScoringRule)


def fields(model):
    return model.tau_a, model.tau_b, model.tau_c, model.rho


def assert_close(name, got, want, scale=None):
    """``got`` within ``REL_TOL`` of ``want``, relative to ``scale`` (by
    default ``want`` itself)."""
    scale = abs(want) if scale is None else scale
    assert math.isfinite(got), (name, got, want)
    assert abs(oracles.MP.mpf(got) - want) <= REL_TOL * scale, (name, got, float(want))


@given(models)
def test_posterior_precisions_and_shift_coefficients(model):
    check_precisions_and_shift_coefficients(model)


def check_precisions_and_shift_coefficients(model):
    single, pool = oracles.mp_precisions(*fields(model))
    a_g, a_h = oracles.mp_alphas(*fields(model))
    assert_close("tau_single", model.tau_single, single)
    assert_close("tau_pool", model.tau_pool, pool)
    assert_close("alpha_g", model.alpha_g, a_g)
    if a_h != 0:
        assert_close("alpha_h", model.alpha_h, a_h)


@given(models, rules)
# (a_h/a_g)^2 = 1e-316 here, which float64 holds to 8 digits only.
@example(SignalModel(tau_a=1e-92, tau_b=1e66), ScoringRule.LOGARITHMIC)
def test_curvature_ratio_tail_and_required_ratio(model, rule):
    check_curvature_ratio_tail_and_required_ratio(model, rule)


def check_curvature_ratio_tail_and_required_ratio(model, rule):
    ratio, tail, _, _ = _curvatures(rule, model)
    exact = oracles.mp_curvature_ratio(rule.value, *fields(model))
    if exact != 0:
        assert_close("R", ratio, exact)
    if rule is ScoringRule.QUADRATIC:
        assert_close("tail", tail, oracles.mp_quadratic_tail(*fields(model)))
    k_min = oracles.mp_required_ratio(rule.value, *fields(model))
    if k_min != 0:
        assert_close("k_min", required_ratio_numeric(rule, model), k_min)


# A model inside the band, with tau_a close to tau_b, where the pooled
# algebra's 1 - rho^2 and tau_a - 2 rho sqrt(tau_a tau_b) + tau_b cancel:
# alpha_h is 9.1e-8 off relative and both rules' R 1.8e-7. The strategy
# above draws tau_a and tau_b independently and almost never reaches it.
CANCELLING = SignalModel(tau_a=0.641665468002355, tau_b=0.6416679720365872,
                         tau_c=1.0816887343294421, rho=0.9999980486871994)
cancels = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="the pooled algebra cancels near |rho| = 1 when tau_a is close to tau_b")


@cancels
def test_precisions_of_a_cancelling_model():
    check_precisions_and_shift_coefficients(CANCELLING)


@cancels
@pytest.mark.parametrize("rule", list(ScoringRule))
def test_curvature_ratio_of_a_cancelling_model(rule):
    check_curvature_ratio_tail_and_required_ratio(CANCELLING, rule)


@given(models)
def test_the_log_closed_form_is_the_curvature_ratio(model):
    # The closed form that discount's k_min_analytic once printed is R of
    # the log rule in the model's fields, to all 60 digits, and the package
    # prints R under both names.
    closed = oracles.mp_log_ratio_closed_form(*fields(model))
    ratio = oracles.mp_curvature_ratio("logarithmic", *fields(model))
    assert abs(closed - ratio) <= oracles.MP.mpf(10) ** -50 * abs(ratio)
    assert required_ratio_log(model) == required_ratio_numeric(ScoringRule.LOGARITHMIC, model)


@given(models, rules)
def test_classifier_margins_and_verdicts(model, rule):
    lhs, rhs = oracles.mp_margin_sides(rule.value, *fields(model))
    exact, scale = lhs - rhs, max(abs(lhs), abs(rhs))
    if rule is ScoringRule.LOGARITHMIC:
        verdict = classify_log(model)
        truthful = verdict.globally_truthful
    else:
        verdict = classify_quadratic(model)
        truthful = verdict.locally_truthful
    assert_close("margin", verdict.margin, exact, scale)
    if abs(exact) > BAND * scale:
        assert truthful == (exact > 0), (verdict, float(exact))


# Shifts from 1e-3 to 1e3 and weights from 0.1 to 10: a shift whose square
# underflows has a gain that float64 cannot hold, whatever the formula.
shifts = st.floats(-3.0, 3.0).map(lambda exponent: 10.0**exponent)
weights = st.floats(0.1, 10.0)


@given(models, rules, shifts, weights, weights)
def test_analytic_gain(model, rule, c, k1, k2):
    schedule = DiscountSchedule(kind="piecewise", k0=1.0, resets=((1, k1), (2, k2)))
    forfeited, harvested = oracles.mp_gain_terms(rule.value, *fields(model), k1, k2, c)
    exact, scale = forfeited - harvested, max(abs(forfeited), abs(harvested))
    got = analytic_gain(model, rule, schedule, c)
    assert_close("gain", got, exact, scale)
    if abs(exact) > BAND * scale:
        assert (got > 0) == (exact > 0), (got, float(exact))

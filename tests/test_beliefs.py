"""Belief aggregation against dense linear-algebra conditioning oracles."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from scoremech import (
    DegenerateCorrelationError,
    SignalModel,
    ValidationError,
    classify_log,
    classify_quadratic,
    posterior_pair,
    posterior_single,
)

precisions = st.floats(min_value=0.05, max_value=100.0)
rhos = st.floats(min_value=-0.99, max_value=0.99)
signals = st.floats(min_value=-20.0, max_value=20.0)


def test_model_validation():
    with pytest.raises(ValidationError):
        SignalModel(tau_a=0.0, tau_b=1.0)
    with pytest.raises(ValidationError):
        SignalModel(tau_a=1.0, tau_b=-1.0)
    with pytest.raises(ValidationError):
        SignalModel(tau_a=1.0, tau_b=1.0, tau_c=-0.1)
    with pytest.raises(ValidationError):
        SignalModel(tau_a=1.0, tau_b=1.0, rho=1.5)
    assert SignalModel(tau_a=1.0, tau_b=1.0, rho=1.0).degenerate
    assert not SignalModel(tau_a=1.0, tau_b=1.0, rho=0.95).degenerate


def test_posterior_single_spot():
    post = posterior_single(SignalModel(tau_a=1.0, tau_b=1.0, tau_c=1.0), 2.0)
    assert post.mean == pytest.approx(1.0, abs=1e-15)
    assert post.precision == pytest.approx(2.0, abs=1e-15)


def test_posterior_pair_spot():
    post = posterior_pair(SignalModel(tau_a=1.0, tau_b=1.0, rho=0.5), 2.0, 0.0)
    assert post.mean == pytest.approx(1.0, abs=1e-15)
    assert post.precision == pytest.approx(4.0 / 3.0, rel=1e-15)


@given(precisions, precisions, precisions, rhos, signals, signals, signals)
def test_posteriors_match_conditioning_oracle(ta, tb, tc, rho, c0, a0, b0):
    model = SignalModel(tau_a=ta, tau_b=tb, tau_c=tc, rho=rho, c0=c0)
    single = posterior_single(model, a0)
    want_m, want_p = oracles.conditioned_posterior(ta, tb, tc, rho, c0, a0)
    assert single.mean == pytest.approx(want_m, rel=1e-9, abs=1e-9)
    assert single.precision == pytest.approx(want_p, rel=1e-9)
    pair = posterior_pair(model, a0, b0)
    want_m, want_p = oracles.conditioned_posterior(ta, tb, tc, rho, c0, a0, b0)
    assert pair.mean == pytest.approx(want_m, rel=1e-9, abs=1e-9)
    assert pair.precision == pytest.approx(want_p, rel=1e-9)


@given(precisions, precisions, rhos, signals, signals)
def test_flat_prior_matches_gls_oracle(ta, tb, rho, a0, b0):
    model = SignalModel(tau_a=ta, tau_b=tb, tau_c=0.0, rho=rho)
    single = posterior_single(model, a0)
    want_m, want_p = oracles.gls_posterior(ta, tb, 0.0, rho, 0.0, a0)
    assert single.mean == pytest.approx(want_m, rel=1e-10, abs=1e-10)
    assert single.precision == pytest.approx(want_p, rel=1e-10)
    pair = posterior_pair(model, a0, b0)
    want_m, want_p = oracles.gls_posterior(ta, tb, 0.0, rho, 0.0, a0, b0)
    assert pair.mean == pytest.approx(want_m, rel=1e-9, abs=1e-9)
    assert pair.precision == pytest.approx(want_p, rel=1e-9)


def test_independent_signals_reduce_to_precision_weighting_exactly():
    # With rho = 0 the pair posterior must be the plain precision-weighted
    # average, bit for bit, not merely to tolerance.
    model = SignalModel(tau_a=3.0, tau_b=0.5, tau_c=2.0, rho=0.0, c0=-1.0)
    a0, b0 = 1.25, -4.5
    post = posterior_pair(model, a0, b0)
    denom = 3.0 + 0.5 + 2.0
    assert post.precision == denom
    assert post.mean == (3.0 * a0 + 0.5 * b0 + 2.0 * (-1.0)) / denom


SINGLE_DERIVED = ("tau_single", "alpha_g")
POOLED_DERIVED = ("_pair_weights", "tau_pool", "alpha_h")


def lazy_copy(model):
    """The model's fields on an instance that skipped ``__post_init__``, so
    each derived value is computed by its cached property when read."""
    lazy = object.__new__(SignalModel)
    lazy.__dict__.update(
        (f.name, getattr(model, f.name)) for f in dataclasses.fields(SignalModel))
    return lazy


@given(precisions, precisions, st.floats(min_value=0.0, max_value=100.0), rhos)
def test_derived_values_are_built_with_the_model_bit_for_bit(ta, tb, tc, rho):
    model = SignalModel(tau_a=ta, tau_b=tb, tau_c=tc, rho=rho)
    names = SINGLE_DERIVED + POOLED_DERIVED
    built = [model.__dict__[name] for name in names]
    lazy = lazy_copy(model)
    # repr tells every float apart, -0.0 from 0.0 included.
    assert repr(built) == repr([getattr(lazy, name) for name in names])


def test_degenerate_correlation_raises():
    for rho in (1.0, -1.0):
        model = SignalModel(tau_a=2.0, tau_b=1.0, rho=rho)
        for name in SINGLE_DERIVED:
            assert repr(model.__dict__[name]) == repr(getattr(lazy_copy(model), name))
        assert not classify_log(model).globally_truthful
        assert classify_quadratic(model).margin == -np.inf
        with pytest.raises(DegenerateCorrelationError):
            posterior_pair(model, 1.0, 0.0)
        for name in POOLED_DERIVED:
            assert name not in model.__dict__
            with pytest.raises(DegenerateCorrelationError):
                getattr(model, name)


@given(precisions, precisions, precisions, rhos, signals, signals,
       st.floats(min_value=-5, max_value=5))
def test_shift_coefficients_match_posterior_response(ta, tb, tc, rho, a0, b0, c):
    model = SignalModel(tau_a=ta, tau_b=tb, tau_c=tc, rho=rho)
    alpha_single, alpha_pair = model.alpha_g, model.alpha_h
    assert alpha_single == pytest.approx(ta / (ta + tc), rel=1e-15)
    base = posterior_pair(model, a0, b0)
    moved = posterior_pair(model, a0 + c, b0)
    assert moved.mean - base.mean == pytest.approx(
        c * alpha_pair, rel=1e-9, abs=1e-9)
    assert moved.precision == base.precision
    base_s = posterior_single(model, a0)
    moved_s = posterior_single(model, a0 + c)
    assert moved_s.mean - base_s.mean == pytest.approx(
        c * alpha_single, rel=1e-10, abs=1e-12)


def test_cross_oracle_agreement():
    # The covariance-conditioning and GLS-precision routes are independent
    # formulations; their mutual agreement guards the oracles themselves.
    rng = np.random.default_rng(7)
    for _ in range(50):
        ta, tb, tc = np.exp(rng.uniform(np.log(0.05), np.log(100.0), size=3))
        rho = rng.uniform(-0.99, 0.99)
        c0, a0, b0 = rng.uniform(-10, 10, size=3)
        got = oracles.conditioned_posterior(ta, tb, tc, rho, c0, a0, b0)
        want = oracles.gls_posterior(ta, tb, tc, rho, c0, a0, b0)
        assert got[0] == pytest.approx(want[0], rel=1e-8, abs=1e-8)
        assert got[1] == pytest.approx(want[1], rel=1e-8)

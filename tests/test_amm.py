"""Discounted log market maker: pricing, trades, settlement, replay."""

import base64
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtr

import oracles
from scoremech import (
    DiscountSchedule,
    LogConsistencyError,
    MarketState,
    NumericError,
    NormalBelief,
    OutcomeGrid,
    ScoringRule,
    SignalModel,
    ValidationError,
    amm,
    binned_density,
    binned_self_score,
    cost_function,
    draw_worlds,
    nonpositivity_shift,
    open_market,
    posterior_pair,
    posterior_single,
    price,
    prices,
    replay,
    schedule_eval,
    settle,
    simulate_sessions,
    trade,
    write_log,
)

FLAT = DiscountSchedule(kind="constant", k0=1.0)
HALF = DiscountSchedule(kind="constant", k0=0.5)
STD = NormalBelief(mean=0.0, precision=1.0)

TOY_GRID = OutcomeGrid(lo=0.0, hi=2.0, n=2)
TOY_PRIOR = NormalBelief(mean=1.0, precision=100.0)


def toy_state(shares=(0.0, 0.0), t=0, schedule=FLAT):
    return MarketState(grid=TOY_GRID, shares=shares, t=t, schedule=schedule,
                       prior=TOY_PRIOR)


# A finite share whose s / k overflows at k = 0.5: the price mass is NaN.
OVERFLOWING = 1.7e308


def shares_text(values):
    """Log text of an inventory: base64 of its little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def shares_of(text):
    """The inventory that log text holds."""
    return np.frombuffer(base64.b64decode(text), dtype="<f8").copy()


def raises_without_warning(error, match, call, *args):
    """Assert that ``call(*args)`` raises ``error`` matching ``match`` and
    warns nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error, match=match):
            call(*args)
    assert caught == []


def test_state_arrays_are_read_only():
    source = np.zeros(2)
    state = toy_state(shares=source)
    source[0] = 5.0
    assert state.shares.tolist() == [0.0, 0.0]
    _, rec = trade(state, [1.0, 0.0])
    for array in (state.shares, rec.pre_shares, rec.post_shares,
                  TOY_GRID.edges, TOY_GRID.widths):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_grid_validation_and_locate():
    with pytest.raises(ValidationError):
        OutcomeGrid(lo=1.0, hi=1.0, n=4)
    with pytest.raises(ValidationError):
        OutcomeGrid(lo=0.0, hi=1.0, n=1)
    grid = OutcomeGrid(lo=0.0, hi=1.0, n=4)
    assert grid.locate(0.0) == (0, False)
    assert grid.locate(0.26) == (1, False)
    assert grid.locate(0.99) == (3, False)
    # Bins are half-open, so the top edge itself counts as outside.
    assert grid.locate(1.0) == (3, True)
    assert grid.locate(-0.5) == (0, True)
    assert grid.locate(2.0) == (3, True)
    assert grid.width == pytest.approx(0.25)


def test_cost_function_worked_values():
    assert cost_function((0.0, 0.0), 0, FLAT, TOY_GRID) == pytest.approx(
        math.log(2.0), rel=1e-15)
    assert cost_function((1.0, 0.0), 0, FLAT, TOY_GRID) == pytest.approx(
        math.log(math.e + 1.0), rel=1e-15)
    # The same inventory under a halved weight.
    assert cost_function((1.0, 0.0), 0, HALF, TOY_GRID) == pytest.approx(
        0.5 * math.log(math.e ** 2 + 1.0), rel=1e-14)
    overflowing = (OVERFLOWING, 0.0)
    raises_without_warning(NumericError, "sum to 1", cost_function, overflowing, 0, HALF, TOY_GRID)
    # At k = 3 the price mass is 1, but k times the largest s / k overflows.
    largest, thirds = (np.finfo(float).max, 0.0), DiscountSchedule(kind="constant", k0=3.0)
    raises_without_warning(NumericError, "overflows", cost_function, largest, 0, thirds, TOY_GRID)


def test_trade_costs_worked_values():
    state = toy_state()
    moved, rec = trade(state, [1.0, 0.0], trader="alice", t=0)
    assert rec.cost == pytest.approx(0.6201145069582775, rel=1e-13)
    assert moved.shares.tolist() == [1.0, 0.0]
    # Executing the identical delta from the same start under k = 0.5
    # (delayed into a discounted regime) costs more.
    delayed, rec2 = trade(toy_state(schedule=HALF), [1.0, 0.0], t=0)
    assert rec2.cost == pytest.approx(0.7168904152415134, rel=1e-13)
    assert rec2.cost > rec.cost


def test_batched_potentials_equal_the_scalar_formula_bit_for_bit():
    # Trade logs must not change between versions: each row's potential is
    # k (max z + log sum_j w_j exp(z_j - max z)) with math.log, whose last
    # bit np.log does not always match.
    rng = np.random.default_rng(29)
    grid = OutcomeGrid(lo=-1.0, hi=2.0, n=8)
    shares = rng.normal(scale=3.0, size=(4000, grid.n))
    # Rows whose largest share is 0 carry the log's last bit into C.
    shares[::2] -= shares[::2].max(axis=1, keepdims=True)
    potential, finite, unit_mass = amm._step(shares, 0.7, grid.widths)
    top, e, total = amm._normalizer(shares, 0.7, grid.widths)
    assert finite.all() and unit_mass.all()
    for row, got, got_top, got_e, got_total in zip(shares, potential, top, e, total):
        z = row / 0.7
        want_e = np.exp(z - z.max())
        want_total = float(np.sum(grid.widths * want_e))
        assert got == 0.7 * (float(z.max()) + math.log(want_total))
        assert (got_top, got_total) == (z.max(), want_total)
        assert got_e.tobytes() == want_e.tobytes()
    assert cost_function(shares[0], 0, HALF, grid) == amm._step(
        shares[:1], 0.5, grid.widths)[0][0]
    # The price densities are the exponentials over the normalizer.
    state = MarketState(grid=grid, shares=shares[0], t=0, prior=NormalBelief(0.5, 100.0),
                        schedule=DiscountSchedule(kind="constant", k0=0.7))
    assert prices(state).tobytes() == (e[0] / total[0]).tobytes()
    # One level per row, as replay prices a block of records: each row is
    # the one-row call at its own level.
    levels = rng.uniform(0.05, 4.0, size=len(shares))
    potential, _, _ = amm._step(shares, levels, grid.widths)
    top, e, total = amm._normalizer(shares, levels, grid.widths)
    for i, (row, level) in enumerate(zip(shares, levels)):
        assert potential[i] == amm._step(row[None, :], float(level), grid.widths)[0][0]
        want_top, want_e, want_total = amm._normalizer(row[None, :], float(level), grid.widths)
        assert (top[i], total[i]) == (want_top[0], want_total[0])
        assert e[i].tobytes() == want_e[0].tobytes()


def mass_check_flags(post, k, widths):
    """The reference for the market step's flags: finite shares, and the
    width-weighted price mass sum_j (e_j / total) w_j, computed in full,
    within 1e-10 of 1."""
    with np.errstate(all="ignore"):
        z = post / k
        e = np.exp(z - z.max(axis=1)[:, None])
        total = np.sum(widths * e, axis=1)
        mass = np.sum(e / total[:, None] * widths, axis=1)
    return np.isfinite(post).all(axis=1), np.abs(mass - 1.0) <= 1e-10


def mass_check_message(post, k, widths):
    """The message ``cost_function`` raises on the one-row ``post`` by the
    reference flags and the potential formula, or None."""
    finite, unit_mass = mass_check_flags(post[None, :], k, widths)
    if not finite[0]:
        return "shares must be finite"
    if not unit_mass[0]:
        return "width-weighted prices failed to sum to 1"
    with np.errstate(all="ignore"):
        z = post / k
        total = float(np.sum(widths * np.exp(z - z.max())))
        if not np.isfinite(k * (z.max() + math.log(total))):
            return "the potential C(post, t) overflows"
    return None


def raised_message(call, *args):
    """The message of the error ``call(*args)`` raises, or None; a warning
    is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(*args)
        except (ValidationError, NumericError) as exc:
            return str(exc)
    return None


def step_rows(rng, n):
    """Finite inventories from flat to far apart, whose exponentials
    underflow, then rows whose s / k overflows to +inf or -inf in one bin
    or in all, and a NaN row."""
    rows = rng.normal(size=(60, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(60, 1))
    special = np.zeros((5, n))
    special[0, 0] = OVERFLOWING
    special[1] = OVERFLOWING
    special[2, -1] = -OVERFLOWING
    special[3] = -OVERFLOWING
    special[4, n // 2] = math.nan
    return np.concatenate([rows, special])


def zero_width_grid():
    """A grid whose edges repeat in float64, so some bins have zero width."""
    grid = OutcomeGrid(lo=1.0, hi=1.0 + 8 * 2.0**-52, n=16)
    assert (grid.widths == 0.0).any() and (grid.widths > 0.0).any()
    return grid


def overflowing_span_grid():
    """lo = -1e308, hi = 1e308: hi - lo overflows, so the widths are not
    finite. They are computed, and cached, here without warning."""
    grid = OutcomeGrid(lo=-1e308, hi=1e308, n=4)
    with np.errstate(all="ignore"):
        assert not np.isfinite(grid.widths).all()
    return grid


@pytest.mark.parametrize("grid", (
    OutcomeGrid.from_prior(STD, 2), OutcomeGrid.from_prior(STD, 128),
    OutcomeGrid.from_prior(STD, 4096), zero_width_grid(), overflowing_span_grid(),
), ids=("n2", "n128", "n4096", "zero_width_bins", "overflowing_span"))
def test_the_step_flags_what_the_price_mass_check_flagged(grid):
    # The mass is 1 by construction, so the step checks that the normalizer
    # and its reciprocal are finite: the same verdict as the mass check.
    rng = np.random.default_rng(grid.n)
    rows = step_rows(rng, grid.n)
    for schedule in (DiscountSchedule(kind="constant", k0=1e-3), HALF, FLAT):
        k = schedule_eval(schedule, 0)
        _, finite, unit_mass = amm._step(rows, k, grid.widths)
        want_finite, want_mass = mass_check_flags(rows, k, grid.widths)
        assert finite.tolist() == want_finite.tolist()
        assert unit_mass.tolist() == want_mass.tolist()
        regular = grid.n in (2, 128, 4096)
        if regular and k < 1.0:
            # Every special row fails but the one with -inf in a single
            # bin, whose prices are still a distribution.
            assert unit_mass.tolist()[-5:] == [False, False, True, False, False]
        for row in rows:
            want = mass_check_message(row, k, grid.widths)
            assert raised_message(cost_function, row, 0, schedule, grid) == want
            if regular and np.isfinite(row).all():
                state = MarketState(grid=grid, shares=np.zeros(grid.n), t=0,
                                    schedule=schedule, prior=STD)
                assert raised_message(trade, state, row) == want


@pytest.mark.parametrize("shares", ((0.0, 0.0), (0.0, -1000.0)))
def test_a_denormal_width_grid_fails_its_price_mass(shares):
    # Widths of 5e-321: the normalizer is finite but its reciprocal is not.
    grid = OutcomeGrid(lo=0.0, hi=1e-320, n=2)
    _, e, total = amm._normalizer(np.array([shares]), 1.0, grid.widths)
    with np.errstate(over="ignore"):
        assert math.isfinite(total[0]) and math.isinf(1.0 / total[0])
    assert mass_check_message(np.array(shares), 1.0, grid.widths) == (
        "width-weighted prices failed to sum to 1")
    raises_without_warning(NumericError, "sum to 1", cost_function, shares, 0, FLAT, grid)


def test_a_subnormal_normalizer_is_where_the_two_checks_part():
    # Where the flags part: 2**19 bins of width 1e-308, one share at 0 and
    # every other exponential such that w_j e_j rounds down to 0, losing
    # just under half a denormal each. The mass computed in full reads
    # 1 + 1.3e-10; the normalizer and its reciprocal are finite, and the
    # potential is log(1e-308), off by those lost terms.
    n = 2**19
    grid = OutcomeGrid(lo=0.0, hi=1e-308 * n, n=n)
    row = np.log(0.49 * (2.0**-1074 / grid.widths))
    row[0] = 0.0
    assert mass_check_flags(row[None, :], 1.0, grid.widths)[1].tolist() == [False]
    potential, finite, unit_mass = amm._step(row[None, :], 1.0, grid.widths)
    assert finite.tolist() == unit_mass.tolist() == [True]
    assert potential[0] == math.log(1e-308)


def test_prices_worked_values():
    state = toy_state(shares=(1.0, 0.0))
    m = prices(state)
    assert m[0] == pytest.approx(math.e / (math.e + 1.0), rel=1e-14)
    assert m[1] == pytest.approx(1.0 / (math.e + 1.0), rel=1e-14)
    assert price(state, 0) == m[0]
    with pytest.raises(ValidationError):
        price(state, 2)


def test_translation_invariance():
    rng = np.random.default_rng(51)
    grid = OutcomeGrid(lo=-4.0, hi=4.0, n=32)
    for _ in range(20):
        s = rng.normal(size=32)
        delta = float(rng.uniform(-50, 50))
        base = cost_function(s, 0, FLAT, grid)
        assert cost_function(s + delta, 0, FLAT, grid) == pytest.approx(
            base + delta, rel=1e-12)
        p0 = _prices_for(s, grid)
        p1 = _prices_for(s + delta, grid)
        assert np.allclose(p0, p1, rtol=1e-12, atol=0)


def _prices_for(shares, grid):
    state = MarketState(grid=grid, shares=tuple(np.asarray(shares) - np.max(shares)),
                        t=0, schedule=FLAT,
                        prior=NormalBelief(mean=0.0, precision=100.0))
    return prices(state)


def test_price_is_cost_gradient():
    grid = OutcomeGrid(lo=-4.0, hi=4.0, n=16)
    rng = np.random.default_rng(52)
    s = rng.normal(size=16)
    state = MarketState(grid=grid, shares=tuple(s), t=0, schedule=HALF,
                        prior=NormalBelief(mean=0.0, precision=100.0))
    m = prices(state)
    eps = 1e-6
    for j in (0, 7, 15):
        bumped = s.copy()
        bumped[j] += eps
        dipped = s.copy()
        dipped[j] -= eps
        grad = (cost_function(bumped, 0, HALF, grid)
                - cost_function(dipped, 0, HALF, grid)) / (2 * eps)
        assert grad == pytest.approx(m[j] * grid.widths[j], rel=1e-6)


def test_market_state_validation():
    with pytest.raises(ValidationError):
        toy_state(shares=(0.0,))
    with pytest.raises(ValidationError):
        toy_state(shares=(float("nan"), 0.0))
    with pytest.raises(ValidationError):
        toy_state(t=-1)
    with pytest.raises(ValidationError):
        # Prior too wide for the grid: mean +/- 10 sigma escapes [0, 2].
        MarketState(grid=TOY_GRID, shares=(0.0, 0.0), t=0, schedule=FLAT,
                    prior=NormalBelief(mean=1.0, precision=25.0))
    raises_without_warning(NumericError, "sum to 1", toy_state, (OVERFLOWING, 0.0), 0, HALF)


def test_binned_density_against_erf_oracle():
    grid = OutcomeGrid(lo=-10.0, hi=10.0, n=64)
    for belief in (STD, NormalBelief(mean=1.3, precision=4.0)):
        mass = binned_density(belief, grid) * grid.widths
        want = oracles.erf_bin_masses(belief.mean, belief.precision, list(grid.edges))
        for got, ref in zip(mass, want):
            if ref > 1e-12:
                assert got == pytest.approx(ref, rel=1e-9)
    total = float(np.sum(binned_density(STD, grid) * grid.widths))
    assert total == pytest.approx(1.0, abs=1e-14)


def test_binned_density_tails_stay_positive_and_symmetric():
    grid = OutcomeGrid(lo=-10.0, hi=10.0, n=512)
    mass = binned_density(STD, grid) * grid.widths
    assert np.all(mass > 0.0)
    assert np.allclose(mass, mass[::-1], rtol=1e-12, atol=0)
    # The CDF saturates around 8 sigma; the reflected-tail evaluation keeps
    # the outermost bins at their true (tiny) mass instead of zero.
    assert 0.0 < mass[-1] < 1e-20


def two_sided_density(belief, grid):
    """The reflected-tail densities with ndtr evaluated at every edge twice,
    directly and reflected, keeping one of the two per bin."""
    z = (grid.edges - belief.mean) * math.sqrt(belief.precision)
    lower = np.diff(ndtr(z))
    upper = np.diff(ndtr(-z[::-1]))[::-1]
    return np.where(z[:-1] + z[1:] > 0.0, upper, lower) / grid.widths


def test_binned_density_equals_the_two_sided_formula_bit_for_bit():
    rng = np.random.default_rng(77)
    beliefs = [NormalBelief(0.0, 1.0), NormalBelief(10.0, 1.0), NormalBelief(-10.0, 1.0)]
    for _ in range(60):
        # Sigmas down to 1/4 put the far edges of the [-10, 10] grids 40
        # belief sigmas out, past where the reflected tail underflows.
        beliefs.append(NormalBelief(float(rng.uniform(-12.0, 12.0)),
                                    float(rng.uniform(0.01, 16.0))))
    for n in (2, 3, 128, 512, 4096):
        grid = OutcomeGrid(lo=-10.0, hi=10.0, n=n)
        for belief in beliefs:
            got = binned_density(belief, grid)
            assert got.tobytes() == two_sided_density(belief, grid).tobytes()
        # The batch helper: one row per mean, at one precision.
        means = np.array([b.mean for b in beliefs])
        rows = amm._binned_densities(means, 16.0, grid)
        want = [two_sided_density(NormalBelief(m, 16.0), grid) for m in means]
        assert rows.tobytes() == np.array(want).tobytes()
        # One precision per row, as replay and simulate_sessions bin them:
        # sharp and broad beliefs in one call, each row its own belief's.
        precisions = np.array([b.precision for b in beliefs])
        rows = amm._binned_densities(means, precisions, grid)
        want = [two_sided_density(belief, grid) for belief in beliefs]
        assert rows.tobytes() == np.array(want).tobytes()


def test_settle_bins_the_prior_once_per_market(monkeypatch):
    # Every binned row at the prior's mean and precision, whichever of
    # open_market, settle or binned_self_score asked for it.
    prior_rows = []
    binned = amm._binned_densities

    def counting(means, precision, grid):
        precisions = np.broadcast_to(precision, np.shape(means))
        prior_rows.extend(grid.n for mean, tau in zip(means.tolist(), precisions.tolist())
                          if (mean, tau) == (STD.mean, STD.precision))
        return binned(means, precision, grid)

    monkeypatch.setattr(amm, "_binned_densities", counting)
    monkeypatch.setattr(amm, "_PRIOR_SCORES", {})
    decay = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.9)
    state = open_market(STD, decay, n_bins=300, affine_shift=0.25)
    moved, rec = trade(state, NormalBelief(0.2, 3.0))
    reports = [settle(moved, x, [rec]) for x in (-1.0, 0.0, 0.5, 2.0)]
    assert prior_rows == [300]
    k0, k1 = schedule_eval(decay, 0), schedule_eval(decay, 1)
    want = -k0 * (binned_self_score(STD, state.grid) - 0.25) + (k1 - k0) * 0.25
    assert all(r.loss_bound == want for r in reports)


def test_binned_self_score_matches_oracle():
    grid = OutcomeGrid(lo=-10.0, hi=10.0, n=256)
    want = 0.0
    masses = oracles.erf_bin_masses(0.0, 1.0, list(grid.edges))
    for m, w in zip(masses, grid.widths):
        if m > 0.0:
            want += m * math.log(m / w)
    assert binned_self_score(STD, grid) == pytest.approx(want, rel=1e-9)


def test_open_market_prices_the_prior():
    state = open_market(STD, FLAT)
    assert state.grid.n == 512
    assert state.t == 0
    assert cost_function(state.shares, 0, FLAT, state.grid) == pytest.approx(
        0.0, abs=1e-9)
    assert np.allclose(prices(state), binned_density(STD, state.grid),
                       rtol=1e-9, atol=1e-300)


def test_path_independence_at_fixed_counter():
    rng = np.random.default_rng(53)
    state = open_market(STD, FLAT)
    for _ in range(25):
        delta = rng.normal(scale=2.0, size=state.grid.n)
        split = rng.uniform(0.0, 1.0, size=state.grid.n)
        _, whole = trade(state, delta, t=1)
        mid, first = trade(state, delta * split, t=1)
        _, second = trade(mid, delta * (1.0 - split), t=1)
        assert whole.cost == pytest.approx(first.cost + second.cost, abs=1e-10)


def test_delay_costs_more_on_a_sub_unit_span_market():
    # Grid span 0.8 < 1 keeps every price density's entropy negative, which
    # is exactly the condition making later (more discounted) execution of
    # the same delta dearer.
    decay = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.8)
    state = open_market(NormalBelief(mean=0.0, precision=625.0), decay)
    rng = np.random.default_rng(54)
    for _ in range(200):
        delta = rng.normal(scale=1.5, size=state.grid.n)
        _, prompt = trade(state, delta, t=1)
        _, late = trade(state, delta, t=2)
        assert late.cost > prompt.cost


def test_delay_can_pay_on_a_wide_market():
    # On a 20-unit span the prior price density already has positive
    # entropy, so discounting makes delayed execution cheaper: the
    # monotonicity above is a property of tight grids, not of the maker.
    decay = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.8)
    state = open_market(STD, decay)
    delta = np.zeros(state.grid.n)
    delta[:16] = 0.1
    _, prompt = trade(state, delta, t=1)
    _, late = trade(state, delta, t=2)
    assert late.cost < prompt.cost


def test_belief_trades_are_cashless_and_exact():
    schedule = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.9)
    state = open_market(STD, schedule)
    target = NormalBelief(mean=0.4, precision=2.5)
    moved, rec = trade(state, target, trader="alice")
    assert abs(rec.cost) <= 1e-12
    assert rec.clipped_bins == 0
    assert moved.t == 1
    assert np.allclose(prices(moved), binned_density(target, moved.grid),
                       rtol=1e-9, atol=1e-300)


def test_extreme_belief_clips_with_warning():
    state = open_market(STD, FLAT)
    needle = NormalBelief(mean=0.0, precision=625.0 ** 2)
    with pytest.warns(RuntimeWarning) as caught:
        _, rec = trade(state, needle)
    assert rec.clipped_bins > 0
    # The warning points at the caller of trade.
    assert [w.filename for w in caught] == [__file__]


def test_trade_validation():
    state = open_market(STD, FLAT)
    with pytest.raises(ValidationError):
        trade(state, [1.0, 2.0])
    with pytest.raises(ValidationError):
        trade(state, [float("inf")] * state.grid.n)
    moved, _ = trade(state, np.zeros(state.grid.n), t=3)
    with pytest.raises(ValidationError):
        trade(moved, np.zeros(state.grid.n), t=2)
    delta = np.zeros(state.grid.n)
    delta[0] = OVERFLOWING
    raises_without_warning(NumericError, "sum to 1", trade, open_market(STD, HALF), delta)


@pytest.mark.parametrize("target", ("belief", "delta"))
def test_a_trade_prices_only_a_share_delta_inventory(target, monkeypatch):
    state = open_market(STD, HALF)
    priced = counting_steps(monkeypatch)
    post_init = MarketState.__post_init__
    states = []

    def counting_post_init(built):
        states.append(built.t)
        post_init(built)

    monkeypatch.setattr(MarketState, "__post_init__", counting_post_init)
    moved, rec = trade(state, NormalBelief(0.4, 2.5) if target == "belief"
                       else np.full(state.grid.n, 0.1))
    # A belief trade takes its cost k(t) log M in closed form and calls the
    # market step not at all; a share delta calls it once, on one row.
    # Neither builds a MarketState.
    assert priced == ([] if target == "belief" else [(1, 0)])
    assert states == []
    priced_anew = MarketState(grid=moved.grid, shares=moved.shares, t=moved.t,
                              schedule=moved.schedule, prior=moved.prior).potential
    if target == "belief":
        assert moved.potential == state.potential + rec.cost
        assert abs(priced_anew - moved.potential) <= 1e-15
    else:
        assert moved.potential == priced_anew
        assert rec.cost == moved.potential - state.potential


def test_settlement_accounting():
    state = open_market(STD, FLAT)
    empty = settle(state, 0.3)
    assert empty.payouts == {} and empty.maker_loss == 0.0
    assert empty.loss_bound == pytest.approx(
        -binned_self_score(STD, state.grid), rel=1e-12)

    s1, r1 = trade(state, NormalBelief(mean=0.5, precision=3.0), trader="a")
    s2, r2 = trade(s1, NormalBelief(mean=0.2, precision=4.0), trader="b")
    report = settle(s2, 0.3, [r1, r2])
    idx, _ = state.grid.locate(0.3)
    assert report.outcome_bin == idx
    assert not report.out_of_range
    assert report.payouts["a"] == pytest.approx(
        r1.post_shares[idx] - r1.pre_shares[idx], rel=1e-15)
    assert report.maker_loss == pytest.approx(
        sum(report.payouts.values()) - report.collected, rel=1e-12)
    assert report.maker_loss <= report.loss_bound

    outside = settle(s2, 99.0, [r1, r2])
    assert outside.out_of_range and outside.outcome_bin == state.grid.n - 1


def test_loss_bound_weights_the_shift_by_the_final_discount():
    # For belief trades the maker's loss telescopes to
    # k(T) log m_T[x] - k(0) log m_0[x]; with every traded log density at
    # most the shift, its expectation is at most k(T) shift - k(0) S_bin.
    decay = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.9)
    shift = 0.5
    state = open_market(STD, decay, affine_shift=shift)
    records = []
    for t, belief in enumerate((NormalBelief(0.3, 2.0), NormalBelief(0.1, 3.0),
                                NormalBelief(0.2, 3.0)), start=1):
        state, rec = trade(state, belief, t=t)
        records.append(rec)
    report = settle(state, 0.4, records)
    want = (schedule_eval(decay, 3) * shift
            - schedule_eval(decay, 0) * binned_self_score(STD, state.grid))
    assert report.loss_bound == pytest.approx(want, rel=1e-14)
    assert isinstance(report.loss_bound, float)
    assert all(type(v) is float for v in report.payouts.values())


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the loss bound assumes a market that opened at its prior")
def test_loss_bound_holds_for_a_market_not_opened_at_its_prior():
    # The constant_128 market of tests/test_cli.py, with its prior and grid,
    # opened at the binned log density of N(2.5, precision 20) instead: the
    # mean loss over 4,000 sessions is about 64.4 +/- 1.0 against a bound
    # of 1.77, which settle computes as if the opening were the prior's.
    model = SignalModel(tau_a=2.0, tau_b=0.7, tau_c=0.5, rho=-0.4, c0=0.3)
    prior = NormalBelief(model.c0, model.tau_c)
    grid = OutcomeGrid.from_prior(prior, 128)
    log_dens = np.log(np.maximum(binned_density(NormalBelief(2.5, 20.0), grid), 1e-300))
    opening = MarketState(grid=grid, shares=log_dens, t=0, schedule=FLAT, prior=prior)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        batch = simulate_sessions(opening, model, draw_worlds(model, 7, 4000))
    loss = batch.maker_loss
    std_error = loss.std(ddof=1) / math.sqrt(loss.size)
    assert loss.mean() <= batch.settlement.loss_bound + 4.0 * std_error


def test_round_trip_delta_trades():
    # Constant discount: buy and unwind cancel to the cent, maker flat.
    state = open_market(STD, FLAT)
    delta = np.zeros(state.grid.n)
    delta[100:140] = 2.0
    s1, r1 = trade(state, delta, trader="churner")
    s2, r2 = trade(s1, -delta, trader="churner")
    report = settle(s2, 0.0, [r1, r2])
    assert report.payouts["churner"] == pytest.approx(0.0, abs=1e-12)
    assert r1.cost + r2.cost == 0.0
    assert report.maker_loss == 0.0

    # Decaying discount on a tight grid: the unwind happens in a dearer
    # regime, so churning costs the trader and pays the maker.
    decay = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.8)
    tight = open_market(NormalBelief(mean=0.0, precision=625.0), decay)
    delta = np.zeros(tight.grid.n)
    delta[200:280] = 1.0
    t1, q1 = trade(tight, delta, trader="churner")
    t2, q2 = trade(t1, -delta, trader="churner")
    rep = settle(t2, 0.0, [q1, q2])
    assert rep.payouts["churner"] == pytest.approx(0.0, abs=1e-12)
    assert q1.cost + q2.cost > 0.0
    assert rep.maker_loss == pytest.approx(-(q1.cost + q2.cost), rel=1e-12)


def test_trader_profit_equals_discounted_binned_score_increment():
    schedule = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.85)
    state = open_market(STD, schedule)
    g = NormalBelief(mean=0.7, precision=2.0)
    h = NormalBelief(mean=0.2, precision=3.5)
    s1, r1 = trade(state, g, trader="alice", t=1)
    s2, r2 = trade(s1, h, trader="alice", t=2)
    outcome = -0.35
    report = settle(s2, outcome, [r1, r2])
    idx, _ = state.grid.locate(outcome)

    def binned_log(belief, k):
        return k * math.log(binned_density(belief, state.grid)[idx])

    want = (binned_log(g, schedule_eval(schedule, 1))
            - binned_log(STD, schedule_eval(schedule, 0))
            + binned_log(h, schedule_eval(schedule, 2))
            - binned_log(g, schedule_eval(schedule, 1)))
    profit = report.payouts["alice"] - (r1.cost + r2.cost)
    assert profit == pytest.approx(want, abs=1e-10)


def test_write_log_replay_round_trip(tmp_path):
    schedule = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.9)
    state = open_market(STD, schedule)
    s1, r1 = trade(state, NormalBelief(mean=0.4, precision=2.0), trader="a")
    s2, r2 = trade(s1, NormalBelief(mean=-0.1, precision=2.5), trader="b")
    report = settle(s2, 0.1, [r1, r2])
    path = tmp_path / "session.jsonl"
    write_log(path, state, [r1, r2], report)

    lines = path.read_text().splitlines()
    final, records, replayed = replay(lines)
    assert np.array_equal(final.shares, s2.shares)
    assert [r.cost for r in records] == [r1.cost, r2.cost]
    assert replayed is not None
    assert replayed.payouts == report.payouts
    assert replayed.maker_loss == pytest.approx(report.maker_loss, abs=1e-15)

    header_only, no_records, no_report = replay(lines[:1])
    assert np.array_equal(header_only.shares, state.shares)
    assert no_records == [] and no_report is None


def test_replay_detects_tampering(tmp_path):
    state = open_market(STD, FLAT)
    s1, r1 = trade(state, NormalBelief(mean=0.4, precision=2.0), trader="a")
    s2, r2 = trade(s1, NormalBelief(mean=0.1, precision=3.0), trader="b")
    path = tmp_path / "session.jsonl"
    write_log(path, state, [r1, r2])
    lines = path.read_text().splitlines()

    bad_cost = json.loads(lines[2])
    bad_cost["cost"] += 1e-6
    with pytest.raises(LogConsistencyError) as err:
        replay([lines[0], lines[1], json.dumps(bad_cost, sort_keys=True)])
    assert err.value.index == 1
    assert "record 1" in str(err.value)

    with pytest.raises(LogConsistencyError):
        replay(["not json"])
    with pytest.raises(LogConsistencyError):
        replay([])


SESSION_SCHEDULES = (
    DiscountSchedule(kind="constant", k0=1.0),
    DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.9),
    DiscountSchedule(kind="piecewise", k0=1.0, resets=((3, 10.0),)),
)
# The second model's pooled belief (precision 201) clips the far bins.
SESSION_MODELS = (
    (SignalModel(tau_a=2.0, tau_b=0.7, tau_c=0.5, rho=-0.4, c0=0.3), 0.0),
    (SignalModel(tau_a=100.0, tau_b=100.0, tau_c=1.0),
     nonpositivity_shift(ScoringRule.LOGARITHMIC, 201.0)),
)


def scalar_session(opening, model, lam, a0, b0):
    """The truthful Alice-Bob-Alice chain that simulate_sessions batches."""
    g, h = posterior_single(model, a0), posterior_pair(model, a0, b0)
    s1, r1 = trade(opening, g, trader="alice", t=1)
    s2, r2 = trade(s1, h, trader="bob", t=2)
    s3, r3 = trade(s2, h, trader="alice", t=3)
    return [r1, r2, r3], settle(s3, lam, [r1, r2, r3])


@pytest.mark.parametrize("n_bins", (128, 512, 4096))
@pytest.mark.parametrize("schedule", SESSION_SCHEDULES, ids=lambda s: s.kind)
@pytest.mark.parametrize("which", (0, 1))
def test_simulate_sessions_rows_equal_the_trade_chain(which, schedule, n_bins):
    model, shift = SESSION_MODELS[which]
    prior = NormalBelief(model.c0, model.tau_c)
    opening = open_market(prior, schedule, n_bins=n_bins, affine_shift=shift)
    # More sessions than one block holds, so the last block is partial.
    count = amm._BLOCK_ELEMENTS // n_bins + 3
    worlds = draw_worlds(model, 17 + n_bins, count)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batch = simulate_sessions(opening, model, worlds)
        chains = [scalar_session(opening, model, *w)
                  for w in zip(*(x.tolist() for x in worlds))]
    batch_warnings = [str(w.message) for w in caught if "sessions" in str(w.message)]
    clipping = sum(r.clipped_bins for records, _ in chains for r in records)
    assert clipping > 0 or which == 0
    clipped_sessions = sum(any(r.clipped_bins for r in records) for records, _ in chains)
    assert batch_warnings == ([f"belief density clipped to 1e-300 on {clipping} bins "
                               f"in {clipped_sessions} of {count} sessions"] if clipping else [])
    assert batch.maker_loss.tolist() == [report.maker_loss for _, report in chains]
    assert batch.costs.tolist() == [[r.cost for r in records] for records, _ in chains]
    assert batch.clipped_bins.tolist() == [
        [r.clipped_bins for r in records] for records, _ in chains]

    records, report = chains[-1]
    assert batch.records[0].pre_shares is opening.shares
    for got, want in zip(batch.records, records):
        assert got.pre_shares.tobytes() == want.pre_shares.tobytes()
        assert got.post_shares.tobytes() == want.post_shares.tobytes()
        assert (got.t, got.trader, got.cost, got.clipped_bins, got.belief) == (
            want.t, want.trader, want.cost, want.clipped_bins, want.belief)
        assert not got.post_shares.flags.writeable
    assert batch.records[0].post_shares is batch.records[1].pre_shares
    assert batch.settlement == report


def test_simulate_sessions_single_session_and_validation():
    model, _ = SESSION_MODELS[0]
    opening = open_market(NormalBelief(model.c0, model.tau_c), SESSION_SCHEDULES[1])
    worlds = draw_worlds(model, 5, 1)
    batch = simulate_sessions(opening, model, worlds)
    records, report = scalar_session(opening, model, *(x.item() for x in worlds))
    assert batch.maker_loss.tolist() == [report.maker_loss]
    assert batch.settlement == report
    assert [r.cost for r in batch.records] == [r.cost for r in records]
    for array in (batch.maker_loss, batch.costs, batch.clipped_bins):
        with pytest.raises(ValueError):
            array[0] = 0
    lam, a0, b0 = worlds
    for bad in ((lam[:0], a0[:0], b0[:0]), (lam, a0, np.append(b0, 0.0)),
                (np.array([np.nan]), a0, b0), (lam, np.array([np.inf]), b0)):
        with pytest.raises(ValidationError):
            simulate_sessions(opening, model, bad)


def test_locate_all_matches_locate():
    grid = OutcomeGrid(lo=-1.0, hi=2.0, n=7)
    xs = np.concatenate([np.linspace(-1.5, 2.5, 401), grid.edges, [np.nextafter(2.0, 0)]])
    index, outside = grid.locate_all(xs)
    assert list(zip(index.tolist(), outside.tolist())) == [grid.locate(x) for x in xs]
    with pytest.raises(ValidationError):
        grid.locate(float("nan"))


def reference_log_lines(opening, records, report):
    return [json.dumps(log_obj, sort_keys=True) for log_obj in (
        [amm.log_header(opening)]
        + [amm.record_to_json(i, rec) for i, rec in enumerate(records)]
        + ([amm.settlement_to_json(report)] if report is not None else []))]


def test_write_log_lines_equal_json_dumps(tmp_path):
    decay = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.9)
    rng = np.random.default_rng(91)
    logs = {}

    # Belief trades, as market simulate writes them.
    model, _ = SESSION_MODELS[0]
    opening = open_market(NormalBelief(model.c0, model.tau_c), decay, n_bins=256)
    records, report = scalar_session(opening, model, *draw_world_floats(model))
    logs["beliefs"] = (opening, records, report)

    # Share deltas, including a no-op and a trade at a repeated counter.
    state = delta_open = open_market(STD, FLAT, n_bins=64)
    records = []
    for t, scale in ((1, 1.0), (1, 0.0), (4, 2.5)):
        state, rec = trade(state, rng.normal(scale=scale, size=64), trader="d", t=t)
        records.append(rec)
    logs["deltas"] = (delta_open, records, None)

    # Many traders, one of whose names mimics an inventory field.
    state = multi_open = open_market(NormalBelief(-0.5, 2.0), decay, n_bins=128)
    names = ["t0", "t1", 'x", "pre": null, "post": null, "y', "pre"]
    records = []
    for i in range(12):
        belief = NormalBelief(float(rng.normal(-0.5, 0.7)), float(rng.uniform(2.0, 10.0)))
        state, rec = trade(state, belief, trader=names[i % len(names)])
        records.append(rec)
    logs["multi"] = (multi_open, records, settle(state, 0.1, records))

    # Records that do not chain: two trades from the same state.
    _, first = trade(delta_open, np.ones(64), trader="a")
    _, second = trade(delta_open, -np.ones(64), trader="b")
    logs["unchained"] = (delta_open, [first, second], None)

    for name, (opening, records, report) in logs.items():
        path = tmp_path / f"{name}.jsonl"
        write_log(path, opening, records, report)
        lines = path.read_text().splitlines()
        assert lines == reference_log_lines(opening, records, report)
        header = json.loads(lines[0])
        assert header["version"] == 3
        assert shares_of(header["s0"]).tobytes() == opening.shares.tobytes()
        for line, rec in zip(lines[1:], records):
            logged = json.loads(line)
            assert "pre" not in logged
            if rec.belief is None:
                assert "belief" not in logged
                assert shares_of(logged["post"]).tobytes() == rec.post_shares.tobytes()
            else:
                assert "post" not in logged
                assert logged["belief"] == {"mean": rec.belief.mean,
                                            "precision": rec.belief.precision}


def draw_world_floats(model):
    return (x.item() for x in draw_worlds(model, 23, 1))


@pytest.mark.parametrize("n_bins", (128, 512, 4096))
def test_replayed_inventories_equal_the_written_ones_bit_for_bit(n_bins, tmp_path):
    model, shift = SESSION_MODELS[1]
    opening = open_market(NormalBelief(model.c0, model.tau_c), SESSION_SCHEDULES[2],
                          n_bins=n_bins, affine_shift=shift)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        batch = simulate_sessions(opening, model, draw_worlds(model, n_bins, 2))
    path = tmp_path / "session.jsonl"
    write_log(path, opening, batch.records, batch.settlement)
    final, records, report = replay(path.read_text().splitlines())
    assert report == batch.settlement
    assert len(records) == len(batch.records) == 3
    bits = [opening.shares] + [r.post_shares for r in batch.records]
    got = [records[0].pre_shares] + [r.post_shares for r in records]
    for want, replayed in zip(bits, got):
        assert np.array_equal(replayed.view(np.uint64), want.view(np.uint64))
    assert np.array_equal(final.shares.view(np.uint64), bits[-1].view(np.uint64))
    assert [(r.t, r.trader, r.cost, r.clipped_bins) for r in records] == [
        (r.t, r.trader, r.cost, r.clipped_bins) for r in batch.records]


def test_shares_codec_keeps_every_bit_of_extreme_values():
    values = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                       -1.7976931348623157e308, 1.0, np.nextafter(1.0, 2.0)])
    text = amm._encode_shares(values)
    assert text == shares_text(values)
    decoded = amm._decode_shares(text, "s0", values.size)
    assert np.array_equal(decoded.view(np.uint64), values.view(np.uint64))
    assert math.copysign(1.0, decoded[0]) == -1.0


def delta_log(tmp_path, deltas, traders="abc", schedule=FLAT):
    """Lines of a chained delta-trade log on the toy grid, with a settlement:
    each record logs its post-trade inventory as ``post``."""
    state = opening = toy_state(schedule=schedule)
    records = []
    for delta, trader in zip(deltas, traders):
        state, rec = trade(state, delta, trader=trader)
        records.append(rec)
    path = tmp_path / "toy.jsonl"
    write_log(path, opening, records, settle(state, 0.5, records))
    return path.read_text().splitlines()


def replay_outcome(lines):
    """What replay returns or refuses, in comparable form."""
    try:
        state, records, report = replay(lines)
    except LogConsistencyError as exc:
        return "refused", str(exc), exc.index
    rows = [(r.t, r.pre_shares, r.post_shares, r.cost, r.trader, r.clipped_bins) for r in records]
    return "accepted", (state.t, state.shares), rows, report


def assert_same_outcome(got, want):
    assert got[0] == want[0]
    if got[0] == "refused":
        assert got[1:] == want[1:]
        return
    (t, shares), rows, report = got[1:]
    (want_t, want_shares), want_rows, want_report = want[1:]
    assert t == want_t and np.array_equal(shares, want_shares)
    assert len(rows) == len(want_rows)
    for row, want_row in zip(rows, want_rows):
        assert row[0] == want_row[0] and row[3:] == want_row[3:]
        assert np.array_equal(row[1], want_row[1]) and np.array_equal(row[2], want_row[2])
    assert report == want_report


# Deltas whose inventories print as short decimals: [1.0, 0.0], [1.0, 2.5], ...
TOY_DELTAS = ([1.0, 0.0], [0.0, 2.5], [-0.5, 0.25])


def test_replay_refuses_an_inventory_whose_prices_overflow(tmp_path):
    # Record 1's post holds a finite share whose s / k overflows at k = 0.5.
    # Its price mass is NaN, which the mass check refuses at its own line,
    # without a warning.
    lines = delta_log(tmp_path, TOY_DELTAS, schedule=HALF)
    logged, huge = shares_text([1.0, 2.5]), shares_text([OVERFLOWING, 0.0])
    assert f'"post": "{logged}"' in lines[2]
    lines[2] = lines[2].replace(f'"post": "{logged}"', f'"post": "{huge}"')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = replay_outcome(lines)
    assert caught == []
    assert got[0] == "refused" and got[2] == 1
    assert got[1] == "record 1: line 3: width-weighted prices failed to sum to 1"


def test_replay_names_a_potential_that_overflows_as_cost_function_does(tmp_path):
    # At k = 3 the price mass of [max, 0] is 1, but its potential overflows:
    # replay refuses record 0's post at its own line with the message that
    # cost_function raises, not as a cost that differs from inf.
    thirds = DiscountSchedule(kind="constant", k0=3.0)
    largest = [float(np.finfo(float).max), 0.0]
    lines = delta_log(tmp_path, TOY_DELTAS, schedule=thirds)
    logged, huge = shares_text([1.0, 0.0]), shares_text(largest)
    assert f'"post": "{logged}"' in lines[1]
    lines[1] = lines[1].replace(f'"post": "{logged}"', f'"post": "{huge}"')
    raises_without_warning(NumericError, "^the potential C\\(post, t\\) overflows$",
                           cost_function, largest, 0, thirds, TOY_GRID)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = replay_outcome(lines)
    assert caught == []
    assert got == ("refused", "record 0: line 2: the potential C(post, t) overflows", 0)


@pytest.mark.parametrize("index", (1, 3))
def test_replay_refuses_a_belief_that_rebuilds_a_non_finite_inventory(index, tmp_path):
    # At k = 1e306 a belief sharp enough to clip bins rebuilds an inventory
    # k log(1e-300) + C that overflows to -inf: refused at its own line,
    # with the logged clipped-bin count right, and without a warning.
    state = opening = open_market(STD, DiscountSchedule(kind="constant", k0=1e306), n_bins=64)
    records = []
    for j in range(6):
        state, rec = trade(state, NormalBelief(0.1 * j, 2.0))
        records.append(rec)
    path = tmp_path / "session.jsonl"
    write_log(path, opening, records)
    lines = path.read_text().splitlines()
    obj = json.loads(lines[index + 1])
    sharp = NormalBelief(obj["belief"]["mean"], 1e6)
    obj["belief"]["precision"] = sharp.precision
    obj["clipped_bins"] = int(np.count_nonzero(binned_density(sharp, opening.grid) < 1e-300))
    assert obj["clipped_bins"] > 0
    lines[index + 1] = json.dumps(obj, sort_keys=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = replay_outcome(lines)
    assert caught == []
    assert got[0] == "refused" and got[2] == index
    assert got[1] == (f"record {index}: line {index + 2}: "
                      "field 'belief' rebuilds an inventory that is not finite")


@pytest.mark.parametrize("case", ("not_finite", "no_unit_mass"))
def test_a_belief_trade_is_refused_as_its_inventory_is(case):
    # trade and replay check a belief's inventory k log d + C at its
    # extreme log densities without building it. Their verdict and message
    # are the ones cost_function gives the inventory built in full.
    if case == "not_finite":
        # At k = 1e306, k log(1e-300) overflows on the bins a sharp belief clips.
        state = open_market(STD, DiscountSchedule(kind="constant", k0=1e306), n_bins=64)
        belief = NormalBelief(0.1, 1e6)
    else:
        # A reset to k = 1e-10 at counter 1: (k log d + C) / k overflows.
        schedule = DiscountSchedule(kind="piecewise", k0=1.0, resets=((1, 1e-10),))
        state = MarketState(grid=OutcomeGrid.from_prior(STD, 64), shares=np.full(64, 1e300),
                            t=0, schedule=schedule, prior=STD)
        belief = NormalBelief(0.1, 2.0)
    dens = binned_density(belief, state.grid)
    with np.errstate(over="ignore"):
        post = schedule_eval(state.schedule, 1) * np.log(np.maximum(dens, 1e-300)) + state.potential
    want = raised_message(cost_function, post, 1, state.schedule, state.grid)
    assert want == ("shares must be finite" if case == "not_finite"
                    else "width-weighted prices failed to sum to 1")
    with warnings.catch_warnings():
        # The sharp belief clips bins.
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises((ValidationError, NumericError)) as err:
            trade(state, belief)
    assert str(err.value) == want
    record = {"i": 0, "t": 1, "trader": "m", "cost": 0.0, "belief": {
        "mean": belief.mean, "precision": belief.precision},
        "clipped_bins": int(np.count_nonzero(dens < 1e-300))}
    lines = [json.dumps(amm.log_header(state)), json.dumps(record)]
    if case == "not_finite":
        want = "field 'belief' rebuilds an inventory that is not finite"
    assert replay_outcome(lines) == ("refused", f"record 0: line 2: {want}", 0)


def test_replay_of_a_zero_delta_trade(tmp_path):
    lines = delta_log(tmp_path, ([1.0, 0.0], [0.0, 0.0], [0.5, 0.5]))
    assert json.loads(lines[1])["post"] == json.loads(lines[2])["post"] == shares_text([1.0, 0.0])
    got = replay_outcome(lines)
    assert got[0] == "accepted" and len(got[2]) == 3
    assert got[2][1][3] == 0.0


# The log text of record 1's post, the inventory [1.0, 2.5].
TOY_POST = f'"post": "{shares_text([1.0, 2.5])}"'


@pytest.mark.parametrize("trader", (f'x", {TOY_POST}, "y', TOY_POST.split(": ")[1], TOY_POST),
                         ids=("escaped_field", "inventory_text", "field_text"))
def test_replay_of_a_trader_string_holding_the_inventory_text(trader, tmp_path):
    # The trader comes first, so its text precedes the real post.
    lines = delta_log(tmp_path, TOY_DELTAS)
    record = json.loads(lines[2])
    rest = {k: v for k, v in record.items() if k != "trader"}
    lines[2] = json.dumps({"trader": trader, **rest})
    lines[-1] = lines[-1].replace('"b":', json.dumps(trader) + ":")
    got = replay_outcome(lines)
    assert got[0] == "accepted" and got[2][1][4] == trader


@pytest.mark.parametrize("last_is_logged", (True, False))
def test_replay_of_duplicate_post_keys_takes_the_last(last_is_logged, tmp_path):
    lines = delta_log(tmp_path, TOY_DELTAS)
    other = f'"post": "{shares_text([1.0, 0.5])}"'
    first, last = (other, TOY_POST) if last_is_logged else (TOY_POST, other)
    lines[2] = lines[2].replace(TOY_POST, first)[:-1] + ", " + last + "}"
    got = replay_outcome(lines)
    assert got[0] == ("accepted" if last_is_logged else "refused")


@pytest.mark.parametrize("trader", ("NaN", "Infinity"))
def test_replay_of_a_line_holding_a_marker_constant(trader, tmp_path):
    # A trader named after one of JSON's non-finite constants.
    lines = delta_log(tmp_path, TOY_DELTAS, traders=("a", trader, "c"))
    assert trader in lines[2]
    got = replay_outcome(lines)
    assert got[0] == "accepted" and got[2][1][4] == trader


def as_post_records(records):
    """``records`` as share-delta trades, which the log records by their
    post-trade inventories instead of their beliefs."""
    return [dataclasses.replace(rec, belief=None) for rec in records]


def test_replay_decodes_s0_then_each_records_post_once(monkeypatch):
    model, _ = SESSION_MODELS[0]
    opening = open_market(NormalBelief(model.c0, model.tau_c), FLAT, n_bins=64)
    records, report = scalar_session(opening, model, *draw_world_floats(model))
    lines = reference_log_lines(opening, as_post_records(records), report)
    decoded, parsed = [], []
    decode_shares, loads = amm._decode_shares, json.loads

    def counting_decode(value, key, n):
        decoded.append(key)
        return decode_shares(value, key, n)

    def counting_loads(text, **kwargs):
        parsed.append(text)
        return loads(text, **kwargs)

    monkeypatch.setattr(amm, "_decode_shares", counting_decode)
    monkeypatch.setattr(json, "loads", counting_loads)
    final, replayed, _ = replay(lines)
    # s0, then each record's post, every one decoded exactly once.
    assert decoded == ["s0", *["post"] * len(records)]
    assert parsed == lines
    assert np.array_equal(final.shares, records[-1].post_shares)
    assert all(r.pre_shares is p.post_shares for p, r in zip(replayed, replayed[1:]))


def test_replay_refuses_undecodable_lines(tmp_path):
    lines = delta_log(tmp_path, TOY_DELTAS)
    bad = lines[2].encode().replace(b'"b"', b'"\xff"')
    with pytest.raises(LogConsistencyError, match="line 3: 'utf-8' codec") as err:
        replay([lines[0], lines[1].encode(), bad])
    assert err.value.index == 1
    with pytest.raises(LogConsistencyError, match="line 2: maximum recursion depth") as err:
        replay([lines[0], "[" * 100000 + "]" * 100000])
    assert err.value.index == 0


@pytest.mark.parametrize("key, text, constant", (
    ("post", "[1.0, 2.5]", "NaN"),
))
def test_replay_refuses_a_marker_constant_in_place_of_an_inventory(key, text, constant, tmp_path):
    # An escaped key ending in the inventory's name comes first and holds
    # the inventory's text, here of ``text``; the real key holds a bare
    # non-finite JSON constant.
    lines = delta_log(tmp_path, TOY_DELTAS)
    field = f'"{key}": "{shares_text(json.loads(text))}"'
    assert field in lines[2]
    line = lines[2].replace(field, f'"{key}": {constant}')
    lines[2] = '{"x\\"' + field[1:] + ", " + line[1:]
    got = replay_outcome(lines)
    assert got[0] == "refused" and got[2] == 1
    assert f"line 3: field '{key}' must be base64 text, not float" in got[1]


# A 64-bin market whose level changes at every counter and jumps at two
# resets. Replay verifies 256 of its rows per block, so 600 delta trades
# fill two blocks and part of a third.
LONG_SCHEDULE = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.999,
                                 resets=((150, 2.0), (400, 0.5)))
LONG_TRADES = 600


@pytest.fixture(scope="module")
def long_log():
    """Lines of a settled 600-trade delta log on LONG_SCHEDULE, and its
    records."""
    rng = np.random.default_rng(31)
    opening = state = open_market(STD, LONG_SCHEDULE, n_bins=64)
    records = []
    for j in range(LONG_TRADES):
        state, rec = trade(state, rng.normal(scale=0.05, size=64), trader=f"t{j % 5}")
        records.append(rec)
    return reference_log_lines(opening, records, settle(state, 0.3, records)), records


def with_cost_moved(lines, index, by=1e-6):
    """``lines`` with record ``index``'s cost moved by ``by``."""
    lines = list(lines)
    record = json.loads(lines[index + 1])
    record["cost"] += by
    lines[index + 1] = json.dumps(record, sort_keys=True)
    return lines


def with_post_not_finite(lines, index):
    """``lines`` with one value of record ``index``'s post set to NaN."""
    lines = list(lines)
    record = json.loads(lines[index + 1])
    post = shares_of(record["post"])
    post[7] = math.nan
    record["post"] = shares_text(post)
    lines[index + 1] = json.dumps(record, sort_keys=True)
    return lines


def test_replay_verifies_a_long_log_in_blocks(long_log, monkeypatch):
    lines, records = long_log
    assert amm._BLOCK_ELEMENTS // 64 == 256
    levels = {schedule_eval(LONG_SCHEDULE, r.t) for r in records}
    assert len(levels) == LONG_TRADES
    priced, states = counting_steps(monkeypatch), []
    post_init = MarketState.__post_init__

    def counting_post_init(state):
        states.append(state.t)
        post_init(state)

    monkeypatch.setattr(MarketState, "__post_init__", counting_post_init)
    final, replayed, report = replay(lines)
    # The header's state and one call per block with a level per row: no
    # MarketState per record, and the final state is not priced again.
    assert priced == [(1, 0), (256, 1), (256, 1), (88, 1)]
    assert states == [0]
    assert [r.cost for r in replayed] == [r.cost for r in records]
    assert final.t == records[-1].t and np.array_equal(final.shares, records[-1].post_shares)
    assert report == settle(final, 0.3, records)


def test_replay_names_a_cost_fault_in_the_third_block(long_log):
    lines, _ = long_log
    index = 2 * 256 + 17
    got = replay_outcome(with_cost_moved(lines, index))
    assert got[0] == "refused" and got[2] == index
    assert f"record {index}: line {index + 2}: logged cost" in got[1]


@pytest.mark.parametrize("post_at", (310, 520), ids=("same_block", "next_block"))
def test_a_later_inventory_fault_does_not_hide_an_earlier_cost_fault(post_at, long_log):
    lines, _ = long_log
    alone = replay_outcome(with_post_not_finite(lines, post_at))
    assert alone[0] == "refused" and alone[2] == post_at
    assert f"line {post_at + 2}: field 'post' holds a non-finite value" in alone[1]
    got = replay_outcome(with_post_not_finite(with_cost_moved(lines, 300), post_at))
    assert got[0] == "refused" and got[2] == 300
    assert "record 300: line 302: logged cost" in got[1]


def short_session():
    """A settled version-3 log of a belief trade and a delta trade on 64
    bins, decaying by 0.9 per counter: its opening, lines, records and
    settlement."""
    state = opening = open_market(STD, SESSION_SCHEDULES[1], n_bins=64)
    records = []
    for target in (NormalBelief(0.3, 2.0), np.full(64, 0.01)):
        state, rec = trade(state, target, trader="m")
        records.append(rec)
    report = settle(state, 0.4, records)
    return opening, reference_log_lines(opening, records, report), records, report


@pytest.mark.parametrize("case", (
    "no_lines", "blank_lines", "header_alone", "record_after_settlement",
    "second_settlement", "tampered_settlement_then_garbage", "cost_fault_then_garbage",
    "cost_fault_then_tampered_settlement",
))
def test_replay_names_the_first_fault_of_the_log(case):
    # Replay parses every line, verifies the records, settles, and only
    # then raises the first line that failed to parse.
    opening, lines, records, report = short_session()
    settlement = json.loads(lines[3])
    settlement["settlement"]["maker_loss"] += 1.0
    tampered = [*lines[:3], json.dumps(settlement, sort_keys=True)]
    empty = (0, "record 0: empty log has no header")
    last_line = (2, "record 2: line 5: the settlement must be the last line")
    cost_fault = (0, f"record 0: line 2: logged cost {records[0].cost + 1e-6!r} differs "
                     f"from recomputed {records[0].cost!r}")
    edited, want = {
        "no_lines": ([], empty),
        "blank_lines": (["", "  ", "\t\n"], empty),
        "header_alone": (lines[:1], None),
        "record_after_settlement": ([*lines, lines[2]], last_line),
        "second_settlement": ([*lines, lines[3]], last_line),
        "tampered_settlement_then_garbage": ([*tampered, "garbage"], (
            2, f"record 2: line 4: settlement maker_loss "
               f"{settlement['settlement']['maker_loss']!r} differs from recomputed "
               f"{report.maker_loss!r}")),
        "cost_fault_then_garbage": ([*with_cost_moved(lines[:3], 0), "garbage"], cost_fault),
        "cost_fault_then_tampered_settlement": (with_cost_moved(tampered, 0), cost_fault),
    }[case]
    got = replay_outcome(edited)
    if want is None:
        assert_same_outcome(got, ("accepted", (opening.t, opening.shares), [], None))
    else:
        assert got == ("refused", want[1], want[0])


@pytest.mark.parametrize("key", ("collected", "maker_loss", "loss_bound", "payouts"))
def test_settlement_amounts_compare_within_the_cost_tolerance(key):
    # A faithful log written on another CPU may differ from the recomputed
    # settlement in an amount's last bits. An amount moved by 1e-9, or
    # logged as a string, is refused with its field named; the report
    # carries the recomputed settlement either way.
    _, lines, _, report = short_session()

    def replay_moved(move):
        obj = json.loads(lines[3])
        amounts, name = ((obj["settlement"]["payouts"], "m") if key == "payouts"
                         else (obj["settlement"], key))
        amounts[name] = move(amounts[name])
        return replay_outcome([*lines[:3], json.dumps(obj, sort_keys=True)])

    accepted = replay_moved(lambda amount: math.nextafter(amount, math.inf))
    assert accepted[0] == "accepted" and accepted[3] == report
    for move in (lambda amount: amount + 1e-9, str):
        refused = replay_moved(move)
        assert refused[0] == "refused" and refused[2] == 2
        assert refused[1].startswith(f"record 2: line 4: settlement {key} ")


def test_settlement_fields_are_the_ones_written_type_and_all(monkeypatch):
    # A field write_log never writes is refused whatever it holds, null
    # included. The exact fields compare by type and repr: an outcome bin
    # of 3.0 is not 3, an out-of-range flag of 0 is not false, and an
    # outcome of -0.0 is not 0.0.
    opening, lines, records, _ = short_session()
    final = replay(lines)[0]
    report = settle(final, 0.0, records)
    at_zero = reference_log_lines(opening, records, report)

    def refused(edit):
        obj = json.loads(at_zero[3])
        edit(obj["settlement"])
        got = replay_outcome([*at_zero[:3], json.dumps(obj, sort_keys=True)])
        assert got[0] == "refused" and got[2] == 2
        return got[1].removeprefix("record 2: line 4: ")

    for value in (None, 1, {}):
        assert refused(lambda logged: logged.update(note=value)) == (
            "field 'settlement' holds an unknown field 'note'")
    bin_ = report.outcome_bin
    assert refused(lambda logged: logged.update(outcome_bin=float(bin_))) == (
        f"settlement outcome_bin {float(bin_)!r} differs from recomputed {bin_!r}")
    assert refused(lambda logged: logged.update(out_of_range=0)) == (
        "settlement out_of_range 0 differs from recomputed False")
    # settle reports the outcome it is given, so a recomputed 0.0 against a
    # logged -0.0 takes a settle that drops the sign.
    settle_at = amm.settle
    monkeypatch.setattr(amm, "settle", lambda state, outcome, records: settle_at(
        state, abs(outcome), records))
    assert replay_outcome(at_zero)[0] == "accepted"
    assert refused(lambda logged: logged.update(outcome=-0.0)) == (
        "settlement outcome -0.0 differs from recomputed 0.0")


def test_replay_refuses_prices_on_zero_width_bins_alone():
    # The grid's edges repeat, so some bins have zero width. A logged
    # inventory whose largest share sits in one of them, with every other
    # exponential underflowing, has a zero normalizer: its prices have no
    # mass, and replay refuses it with the mass message.
    grid = zero_width_grid()
    opening = MarketState(grid=grid, shares=np.zeros(grid.n), t=0, schedule=FLAT,
                          prior=NormalBelief(1.0, 1e34))
    post = np.full(grid.n, -1000.0)
    post[0] = 0.0
    assert grid.widths[0] == 0.0
    record = {"i": 0, "t": 1, "trader": "m", "cost": 0.0, "clipped_bins": 0,
              "post": amm._encode_shares(post)}
    lines = [json.dumps(amm.log_header(opening), sort_keys=True),
             json.dumps(record, sort_keys=True)]
    assert replay_outcome(lines) == (
        "refused", "record 0: line 2: width-weighted prices failed to sum to 1", 0)
    raises_without_warning(NumericError, "sum to 1", cost_function, post, 0, FLAT, grid)


def test_an_infinite_loss_bound_replays():
    # k(0) affine_shift overflows: write_log logs the bound as Infinity,
    # and replay accepts it as the recomputed value, not as an amount off
    # by NaN.
    opening = open_market(STD, DiscountSchedule(kind="constant", k0=10.0), n_bins=64,
                          affine_shift=1e308)
    state, rec = trade(opening, NormalBelief(0.1, 2.0), trader="m")
    report = settle(state, 0.3, [rec])
    assert report.loss_bound == math.inf
    got = replay_outcome(reference_log_lines(opening, [rec], report))
    assert got[0] == "accepted" and got[3] == report


def test_a_level_that_underflows_is_refused_before_pricing():
    # k(7100) = 0.9^7100 rounds to 0: nothing divides by it, and nothing
    # warns. tests/test_cli.py checks that replay refuses it at its line.
    decay = SESSION_SCHEDULES[1]
    message = "^the discount level k\\(t\\) underflows to 0 at counter 7100$"
    opening = open_market(STD, decay, n_bins=64)
    raises_without_warning(NumericError, message, trade, opening, NormalBelief(0.1, 2.0), "m", 7100)
    raises_without_warning(NumericError, message, cost_function, opening.shares, 7100, decay,
                           opening.grid)
    raises_without_warning(NumericError, message, MarketState, opening.grid, opening.shares,
                           7100, decay, STD)


def test_replayed_arrays_are_read_only_float64(tmp_path):
    final, records, _ = replay(delta_log(tmp_path, TOY_DELTAS))
    arrays = [final.shares] + [a for r in records for a in (r.pre_shares, r.post_shares)]
    for array in arrays:
        assert array.dtype == np.float64 and not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


@st.composite
def version_3_sessions(draw):
    """A session as ``write_log`` logs it: belief trades, the sharpest of
    which clip bins, and share-delta trades, at counters that repeat or
    skip, on 2 to 4,096 bins under a piecewise schedule with a reset,
    settled or not. Returns the opening state, the state before each trade,
    the final state, the records and the settlement."""
    n_bins = draw(st.integers(2, 4096))
    prior = NormalBelief(draw(st.floats(-5.0, 5.0)), 10.0 ** draw(st.floats(-1.0, 2.0)))
    reset = (draw(st.integers(1, 12)), draw(st.floats(0.2, 3.0)))
    schedule = DiscountSchedule(kind="piecewise", k0=draw(st.floats(0.5, 2.0)), resets=(reset,))
    opening = state = open_market(prior, schedule, n_bins=n_bins)
    states, records = [], []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.booleans()):
            target = NormalBelief(prior.mean + draw(st.floats(-4.0, 4.0)) * prior.sigma,
                                  prior.precision * 10.0 ** draw(st.floats(0.0, 4.0)))
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            target = rng.normal(scale=draw(st.floats(0.0, 2.0)), size=n_bins)
        states.append(state)
        with warnings.catch_warnings():
            # Sharp beliefs clip far-tail bins, which the records count.
            warnings.simplefilter("ignore", RuntimeWarning)
            state, rec = trade(state, target, trader=draw(st.sampled_from("abc")),
                               t=state.t + draw(st.integers(0, 3)))
        records.append(rec)
    report = None
    if draw(st.booleans()):
        report = settle(state, prior.mean + draw(st.floats(-12.0, 12.0)) * prior.sigma, records)
    return opening, states, state, records, report


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("logs")


@given(session=version_3_sessions(), data=st.data())
def test_version_3_replay_rebuilds_the_written_records_bit_for_bit(session, data, log_dir):
    opening, states, state, records, report = session
    path = log_dir / "session.jsonl"
    write_log(path, opening, records, report)
    lines = path.read_text().splitlines()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        final, replayed, replayed_report = replay(lines)
    assert replayed_report == report
    assert (final.t, final.potential) == (state.t, state.potential)
    assert final.shares.tobytes() == state.shares.tobytes()
    assert len(replayed) == len(records)
    for got, want in zip(replayed, records):
        assert (got.t, got.trader, got.cost, got.clipped_bins, got.belief) == (
            want.t, want.trader, want.cost, want.clipped_bins, want.belief)
        assert got.pre_shares.tobytes() == want.pre_shares.tobytes()
        assert got.post_shares.tobytes() == want.post_shares.tobytes()
        assert not got.post_shares.flags.writeable
    # The same session with every record logged by its post inventory
    # replays to the same outcome.
    assert_same_outcome(
        replay_outcome(reference_log_lines(opening, as_post_records(records), report)),
        replay_outcome(lines))

    index = data.draw(st.integers(0, len(records) - 1), label="index")
    got = replay_outcome(with_cost_moved(lines, index, 1e-9))
    assert got[0] == "refused" and got[2] == index
    assert f"record {index}: line {index + 2}: logged cost" in got[1]

    belief = records[index].belief
    if belief is not None:
        # A mean moved across a grid edge moves the belief's tail mass, and
        # with it the cost, which replay recomputes from the logged mean.
        edge = data.draw(st.sampled_from((opening.grid.lo, opening.grid.hi)), label="edge")
        moved = edge + data.draw(st.floats(-2.0, 2.0), label="sigmas") * belief.sigma
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _, moved_rec = trade(states[index], NormalBelief(moved, belief.precision),
                                 t=records[index].t)
        edited = list(lines)
        obj = json.loads(edited[index + 1])
        obj["belief"]["mean"] = moved
        edited[index + 1] = json.dumps(obj, sort_keys=True)
        if abs(moved_rec.cost - records[index].cost) > amm._COST_TOL:
            got = replay_outcome(edited)
            assert got[0] == "refused" and got[2] == index
            assert f"record {index}: line {index + 2}: " in got[1]


# A belief trade's cost k(t) log M agrees with C(post, t) - C(pre, t_pre)
# within BELIEF_COST_ULPS units of 2**-52 times |C(pre, t_pre)| +
# k(t) max(1, max_j |log d_j|), d the floored binned density: README's
# stated tolerance.
BELIEF_COST_ULPS = 16


@st.composite
def hand_built_markets(draw):
    """A MarketState built by hand: 2 to 1,024 bins on a grid that covers
    its prior or more, an inventory at any scale and offset, at a counter
    of a constant, geometric or reset schedule. None when MarketState
    refuses it."""
    n_bins = draw(st.integers(2, 1024))
    prior = NormalBelief(draw(st.floats(-1e3, 1e3)), 10.0 ** draw(st.floats(-6.0, 6.0)))
    half = 10.0 * prior.sigma
    grid = OutcomeGrid(prior.mean - half * (1.0 + draw(st.floats(0.0, 3.0))),
                       prior.mean + half * (1.0 + draw(st.floats(0.0, 3.0))), n_bins)
    k0 = 10.0 ** draw(st.floats(-300.0, 308.0))
    schedule = draw(st.sampled_from((
        DiscountSchedule(kind="constant", k0=k0),
        DiscountSchedule(kind="geometric_by_count", k0=k0, decay=draw(st.floats(0.5, 1.0))),
        DiscountSchedule(kind="piecewise", k0=k0,
                         resets=((draw(st.integers(1, 6)), 10.0 ** draw(st.floats(-3.0, 3.0))),)),
    )))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shares = (rng.normal(size=n_bins) * 10.0 ** draw(st.floats(-3.0, 300.0))
              + draw(st.floats(-1e300, 1e300)))
    try:
        return MarketState(grid=grid, shares=shares, t=draw(st.integers(0, 8)),
                           schedule=schedule, prior=prior)
    except (ValidationError, NumericError):
        return None


@given(state=hand_built_markets(), data=st.data())
def test_a_belief_trade_costs_what_its_potentials_differ_by(state, data, log_dir):
    # Beliefs inside the grid and out, the sharpest clipping bins. Where
    # trade accepts the move, MarketState accepts its inventory, the cost
    # agrees with the two potentials' difference within the tolerance, and
    # replay of the trade's log rebuilds it bit for bit.
    if state is None:
        return
    grid = state.grid
    belief = NormalBelief(
        data.draw(st.floats(grid.lo - (grid.hi - grid.lo), grid.hi + (grid.hi - grid.lo))),
        state.prior.precision * 10.0 ** data.draw(st.floats(-2.0, 8.0)))
    t = state.t + data.draw(st.integers(0, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            moved, rec = trade(state, belief, trader="p", t=t)
        except (ValidationError, NumericError):
            return
    priced = MarketState(grid=grid, shares=rec.post_shares, t=t, schedule=state.schedule,
                         prior=state.prior)
    k = schedule_eval(state.schedule, t)
    log_dens = np.log(np.maximum(binned_density(belief, grid), 1e-300))
    scale = abs(state.potential) + k * max(1.0, float(np.abs(log_dens).max()))
    assert abs(priced.potential - state.potential - rec.cost) <= BELIEF_COST_ULPS * 2.0**-52 * scale
    assert moved.potential == state.potential + rec.cost

    path = log_dir / "belief_trade.jsonl"
    write_log(path, state, [rec])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        final, (replayed,), _ = replay(path.read_text().splitlines())
    assert (final.t, final.potential, replayed.cost) == (t, moved.potential, rec.cost)
    assert final.shares.tobytes() == rec.post_shares.tobytes()


def counting_steps(monkeypatch):
    """Record (rows, ndim of the level) of every ``amm._step`` call."""
    priced, step = [], amm._step

    def counting(post, k, widths):
        priced.append((len(post), np.ndim(k)))
        return step(post, k, widths)

    monkeypatch.setattr(amm, "_step", counting)
    return priced


def test_verified_states_are_not_priced_again(monkeypatch, tmp_path):
    model, shift = SESSION_MODELS[1]
    opening = open_market(NormalBelief(model.c0, model.tau_c), SESSION_SCHEDULES[2],
                          n_bins=4096, affine_shift=shift)
    priced = counting_steps(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        batch = simulate_sessions(opening, model, draw_worlds(model, 3, 6))
    # Belief trades take their costs in closed form: no block calls the
    # market step, and the last session's states reuse their block's
    # potentials.
    assert priced == []

    path = tmp_path / "session.jsonl"
    write_log(path, opening, batch.records, batch.settlement)
    verify_block = amm._verify_block

    def marking(*args):
        verified = verify_block(*args)
        priced.append("verified")
        return verified

    monkeypatch.setattr(amm, "_verify_block", marking)
    del priced[:]
    final, records, report = replay(path.read_text().splitlines())
    # The header's state alone: the block's three belief records take their
    # costs in closed form, and the final state reuses the last potential.
    assert priced == [(1, 0), "verified"]
    assert report == batch.settlement
    want = opening.potential
    for rec in batch.records:
        want += rec.cost
    assert final.potential == want


def test_replay_rebuilds_beliefs_exactly_when_the_costs_do_not_add_up(monkeypatch, tmp_path):
    # Belief and delta trades in one 64-bin block, each logged cost moved by
    # 1e-13: within the cost tolerance, but no potential summed from the
    # logged costs is right. Replay sums the costs it recomputes.
    state = opening = open_market(STD, SESSION_SCHEDULES[1], n_bins=64)
    records = []
    for target in (NormalBelief(0.3, 2.0), np.ones(64), NormalBelief(-0.2, 5.0),
                   NormalBelief(0.1, 40.0), -np.ones(64), NormalBelief(0.0, 1.5)):
        with warnings.catch_warnings():
            # The sharpest belief clips far-tail bins.
            warnings.simplefilter("ignore", RuntimeWarning)
            state, rec = trade(state, target, trader="m")
        records.append(rec)
    path = tmp_path / "session.jsonl"
    write_log(path, opening, records)
    lines = path.read_text().splitlines()
    for index in range(len(records)):
        lines = with_cost_moved(lines, index, 1e-13)
    priced = counting_steps(monkeypatch)
    final, replayed, _ = replay(lines)
    # The header's state, then the block's two delta records in one call at
    # a level per row; its four belief records take no call.
    assert priced == [(1, 0), (2, 1)]
    assert final.shares.tobytes() == state.shares.tobytes()
    assert [r.post_shares.tobytes() for r in replayed] == [
        r.post_shares.tobytes() for r in records]
    assert [r.cost for r in replayed] == [r.cost + 1e-13 for r in records]

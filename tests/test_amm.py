"""Discounted log market maker: pricing, trades, settlement, replay."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import ndtr

import oracles
from log_versions import as_version_1, shares_of, shares_text, v2_lines, write_v2_log
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
    potential, dens, mass = amm._potentials(shares, 0.7, grid.widths)
    for row, got, got_dens, got_mass in zip(shares, potential, dens, mass):
        z = row / 0.7
        e = np.exp(z - z.max())
        total = float(np.sum(grid.widths * e))
        assert got == 0.7 * (float(z.max()) + math.log(total))
        assert got_dens.tobytes() == (e / total).tobytes()
        assert got_mass == np.sum(e / total * grid.widths)
    assert cost_function(shares[0], 0, HALF, grid) == amm._potentials(
        shares[:1], 0.5, grid.widths)[0][0]
    # One level per row, as replay prices a block of records: each row is
    # the one-row call at its own level.
    levels = rng.uniform(0.05, 4.0, size=len(shares))
    potential, dens, mass = amm._potentials(shares, levels, grid.widths)
    for i, (row, level) in enumerate(zip(shares, levels)):
        want = amm._potentials(row[None, :], float(level), grid.widths)
        assert potential[i] == want[0][0]
        assert dens[i].tobytes() == want[1][0].tobytes()
        assert mass[i] == want[2][0]


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


def test_settle_bins_the_prior_once_per_market(monkeypatch):
    calls = []

    def counting(belief, grid):
        calls.append(grid.n)
        return binned_self_score(belief, grid)

    monkeypatch.setattr(amm, "binned_self_score", counting)
    amm._prior_self_score.cache_clear()
    decay = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.9)
    state = open_market(STD, decay, n_bins=300, affine_shift=0.25)
    moved, rec = trade(state, NormalBelief(0.2, 3.0))
    reports = [settle(moved, x, [rec]) for x in (-1.0, 0.0, 0.5, 2.0)]
    assert calls == [300]
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
def test_a_trade_prices_its_inventory_once(target, monkeypatch):
    state = open_market(STD, HALF)
    priced = counting_potentials(monkeypatch)
    post_init = MarketState.__post_init__
    states = []

    def counting_post_init(built):
        states.append(built.t)
        post_init(built)

    monkeypatch.setattr(MarketState, "__post_init__", counting_post_init)
    moved, rec = trade(state, NormalBelief(0.4, 2.5) if target == "belief"
                       else np.full(state.grid.n, 0.1))
    # One call of the market step on one row, and no MarketState built.
    assert priced == [(1, 0)]
    assert states == []
    assert moved.potential == MarketState(
        grid=moved.grid, shares=moved.shares, t=moved.t, schedule=moved.schedule,
        prior=moved.prior).potential
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

    v2 = v2_lines(state, [r1, r2])
    bad_pre = json.loads(v2[2])
    pre = shares_of(bad_pre["pre"])
    pre[5] += 1e-9
    bad_pre["pre"] = shares_text(pre)
    with pytest.raises(LogConsistencyError):
        replay([v2[0], v2[1], json.dumps(bad_pre, sort_keys=True)])

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
    decoded = amm._decode_shares(text, "s0", values.size, 2)
    assert np.array_equal(decoded.view(np.uint64), values.view(np.uint64))
    assert math.copysign(1.0, decoded[0]) == -1.0
    assert amm._decode_shares(values.tolist(), "s0", values.size, 1).tolist() == values.tolist()


def delta_log(tmp_path, deltas, traders="abc", schedule=FLAT):
    """Lines of a chained delta-trade log on the toy grid, with a settlement,
    as version 2 wrote it: these tests check how replay reads each ``pre``."""
    state = opening = toy_state(schedule=schedule)
    records = []
    for delta, trader in zip(deltas, traders):
        state, rec = trade(state, delta, trader=trader)
        records.append(rec)
    path = tmp_path / "toy.jsonl"
    write_v2_log(path, opening, records, settle(state, 0.5, records))
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
# The version-2 text of record 1's pre, the inventory [1.0, 0.0].
TOY_PRE = f'"pre": "{shares_text([1.0, 0.0])}"'


@pytest.mark.parametrize("spelling", ("[1.00, 0.0]", "[1e0, 0.0]", "[ 1.0 ,  0.0 ]", "[1.0, -0.0]"))
def test_replay_accepts_a_pre_spelled_differently(spelling, tmp_path):
    # Version 1 compares a pre that is not the running text by value.
    lines = as_version_1(delta_log(tmp_path, TOY_DELTAS))
    want = replay_outcome(lines)
    assert '"pre": [1.0, 0.0]' in lines[2]
    lines[2] = lines[2].replace('"pre": [1.0, 0.0]', f'"pre": {spelling}')
    got = replay_outcome(lines)
    assert_same_outcome(got, want)
    assert got[0] == "accepted" and len(got[2]) == 3


@pytest.mark.parametrize("spelling", (
    shares_text([1.0, -0.0]),
    # The unused low bits of the last base64 digit before the padding.
    shares_text([1.0, 0.0])[:-3] + "B==",
), ids=("negative_zero", "unused_padding_bits"))
def test_replay_accepts_a_version_2_pre_spelled_differently(spelling, tmp_path):
    lines = delta_log(tmp_path, TOY_DELTAS)
    want = replay_outcome(lines)
    assert TOY_PRE in lines[2]
    lines[2] = lines[2].replace(TOY_PRE, f'"pre": "{spelling}"')
    got = replay_outcome(lines)
    assert_same_outcome(got, want)
    assert got[0] == "accepted" and len(got[2]) == 3


def test_replay_refuses_a_pre_one_ulp_off(tmp_path):
    lines = delta_log(tmp_path, TOY_DELTAS)
    ulp_off = [float(np.nextafter(1.0, 2.0)), 0.0]
    v1_lines = as_version_1(lines)
    lines[2] = lines[2].replace(TOY_PRE, f'"pre": "{shares_text(ulp_off)}"')
    v1_lines[2] = v1_lines[2].replace('"pre": [1.0, 0.0]', f'"pre": {json.dumps(ulp_off)}')
    for edited in (lines, v1_lines):
        got = replay_outcome(edited)
        assert got[0] == "refused" and got[2] == 1
        assert "line 3: pre-trade inventory does not match" in got[1]


def test_replay_refuses_an_inventory_whose_prices_overflow(tmp_path):
    # Record 1's post, and so record 2's pre, holds a finite share whose
    # s / k overflows at k = 0.5. Its price mass is NaN, which the mass
    # check refuses at its own line, without a warning.
    lines = delta_log(tmp_path, TOY_DELTAS, schedule=HALF)
    logged, huge = shares_text([1.0, 2.5]), shares_text([OVERFLOWING, 0.0])
    for line, key in ((2, "post"), (3, "pre")):
        assert f'"{key}": "{logged}"' in lines[line]
        lines[line] = lines[line].replace(f'"{key}": "{logged}"', f'"{key}": "{huge}"')
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
    for line, key in ((1, "post"), (2, "pre")):
        assert f'"{key}": "{logged}"' in lines[line]
        lines[line] = lines[line].replace(f'"{key}": "{logged}"', f'"{key}": "{huge}"')
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


def test_replay_of_a_zero_delta_trade(tmp_path):
    lines = delta_log(tmp_path, ([1.0, 0.0], [0.0, 0.0], [0.5, 0.5]))
    record = json.loads(lines[2])
    assert record["pre"] == record["post"] == shares_text([1.0, 0.0])
    got = replay_outcome(lines)
    assert got[0] == "accepted" and len(got[2]) == 3
    assert_same_outcome(replay_outcome(as_version_1(lines)), got)


def test_replay_refuses_an_escaped_pre_key_that_repeats_the_inventory(tmp_path):
    # The key x"pre holds the running inventory's text and comes first;
    # the real pre differs by one ulp.
    lines = delta_log(tmp_path, TOY_DELTAS)
    ulp_off = shares_text([1.0, float(np.nextafter(0.0, 1.0))])
    line = lines[2].replace(TOY_PRE, f'"pre": "{ulp_off}"')
    lines[2] = '{"x\\"' + TOY_PRE[1:] + ", " + line[1:]
    assert json.loads(lines[2])['x"pre'] == shares_text([1.0, 0.0])
    got = replay_outcome(lines)
    assert got[0] == "refused" and got[2] == 1


@pytest.mark.parametrize("trader", ('x", "pre": [1.0, 0.0], "y', "[1.0, 0.0]", '"pre": [1.0, 0.0]'))
def test_replay_of_a_trader_string_holding_the_inventory_text(trader, tmp_path):
    # The same trader in both formats, holding each format's text of the
    # running inventory; the trader comes first, so its text precedes the
    # real pre.
    v2_lines = delta_log(tmp_path, TOY_DELTAS)
    v2_trader = trader.replace("[1.0, 0.0]", json.dumps(shares_text([1.0, 0.0])))
    for lines, name in ((as_version_1(v2_lines), trader), (v2_lines, v2_trader)):
        record = json.loads(lines[2])
        rest = {k: v for k, v in record.items() if k != "trader"}
        lines[2] = json.dumps({"trader": name, **rest})
        lines[-1] = lines[-1].replace('"b":', json.dumps(name) + ":")
        got = replay_outcome(lines)
        assert got[0] == "accepted" and got[2][1][4] == name


@pytest.mark.parametrize("last_is_running", (True, False))
def test_replay_of_duplicate_pre_keys_takes_the_last(last_is_running, tmp_path):
    lines = delta_log(tmp_path, TOY_DELTAS)
    other = f'"pre": "{shares_text([1.0, 0.5])}"'
    first, last = (other, TOY_PRE) if last_is_running else (TOY_PRE, other)
    lines[2] = lines[2].replace(TOY_PRE, first)[:-1] + ", " + last + "}"
    got = replay_outcome(lines)
    assert got[0] == ("accepted" if last_is_running else "refused")


@pytest.mark.parametrize("trader", ("NaN", "Infinity"))
def test_replay_of_a_line_holding_a_marker_constant(trader, tmp_path):
    # A trader named after one of JSON's non-finite constants.
    lines = delta_log(tmp_path, TOY_DELTAS, traders=("a", trader, "c"))
    assert trader in lines[2]
    got = replay_outcome(lines)
    assert got[0] == "accepted" and got[2][1][4] == trader


def test_replay_decodes_each_inventory_once(monkeypatch):
    model, _ = SESSION_MODELS[0]
    opening = open_market(NormalBelief(model.c0, model.tau_c), FLAT, n_bins=64)
    records, report = scalar_session(opening, model, *draw_world_floats(model))
    lines = v2_lines(opening, records, report)
    decoded, parsed = [], []
    decode_shares, loads = amm._decode_shares, json.loads

    def counting_decode(value, key, n, version):
        decoded.append(key)
        return decode_shares(value, key, n, version)

    def counting_loads(text, **kwargs):
        parsed.append(text)
        return loads(text, **kwargs)

    monkeypatch.setattr(amm, "_decode_shares", counting_decode)
    monkeypatch.setattr(json, "loads", counting_loads)
    final, replayed, _ = replay(lines)
    # s0, then the post of each record; every pre repeats the text before it.
    assert decoded == ["s0", "post", "post", "post"]
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
    ("pre", "[1.0, 0.0]", "Infinity"),
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
    """Lines of a settled 600-trade version-2 delta log on LONG_SCHEDULE,
    and its records."""
    rng = np.random.default_rng(31)
    opening = state = open_market(STD, LONG_SCHEDULE, n_bins=64)
    records = []
    for j in range(LONG_TRADES):
        state, rec = trade(state, rng.normal(scale=0.05, size=64), trader=f"t{j % 5}")
        records.append(rec)
    return v2_lines(opening, records, settle(state, 0.3, records)), records


def with_cost_moved(lines, index, by=1e-6):
    """``lines`` with record ``index``'s cost moved by ``by``."""
    lines = list(lines)
    record = json.loads(lines[index + 1])
    record["cost"] += by
    lines[index + 1] = json.dumps(record, sort_keys=True)
    return lines


def with_pre_one_ulp_off(lines, index):
    """``lines`` with one value of record ``index``'s pre one ulp off."""
    lines = list(lines)
    record = json.loads(lines[index + 1])
    pre = shares_of(record["pre"])
    pre[7] = np.nextafter(pre[7], math.inf)
    record["pre"] = shares_text(pre)
    lines[index + 1] = json.dumps(record, sort_keys=True)
    return lines


def test_replay_verifies_a_long_log_in_blocks(long_log, monkeypatch):
    lines, records = long_log
    assert amm._BLOCK_ELEMENTS // 64 == 256
    levels = {schedule_eval(LONG_SCHEDULE, r.t) for r in records}
    assert len(levels) == LONG_TRADES
    priced, states = [], []
    potentials, post_init = amm._potentials, MarketState.__post_init__

    def counting_potentials(shares, k, widths):
        priced.append((len(shares), np.ndim(k)))
        return potentials(shares, k, widths)

    def counting_post_init(state):
        states.append(state.t)
        post_init(state)

    monkeypatch.setattr(amm, "_potentials", counting_potentials)
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


@pytest.mark.parametrize("pre_at", (310, 520), ids=("same_block", "next_block"))
def test_a_later_pre_fault_does_not_hide_an_earlier_cost_fault(pre_at, long_log):
    lines, _ = long_log
    alone = replay_outcome(with_pre_one_ulp_off(lines, pre_at))
    assert alone[0] == "refused" and alone[2] == pre_at
    assert f"line {pre_at + 2}: pre-trade inventory does not match" in alone[1]
    got = replay_outcome(with_pre_one_ulp_off(with_cost_moved(lines, 300), pre_at))
    assert got[0] == "refused" and got[2] == 300
    assert "record 300: line 302: logged cost" in got[1]


@pytest.mark.parametrize("version", (1, 2))
def test_replayed_arrays_are_read_only_float64(version, tmp_path):
    lines = delta_log(tmp_path, TOY_DELTAS)
    final, records, _ = replay(as_version_1(lines) if version == 1 else lines)
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
    # The same session as version 2 logged it replays to the same outcome.
    assert_same_outcome(replay_outcome(v2_lines(opening, records, report)),
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


def counting_potentials(monkeypatch):
    """Record (rows, ndim of the level) of every ``amm._potentials`` call."""
    priced, potentials = [], amm._potentials

    def counting(shares, k, widths):
        priced.append((len(shares), np.ndim(k)))
        return potentials(shares, k, widths)

    monkeypatch.setattr(amm, "_potentials", counting)
    return priced


def test_verified_states_are_not_priced_again(monkeypatch, tmp_path):
    model, shift = SESSION_MODELS[1]
    opening = open_market(NormalBelief(model.c0, model.tau_c), SESSION_SCHEDULES[2],
                          n_bins=4096, affine_shift=shift)
    priced = counting_potentials(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        batch = simulate_sessions(opening, model, draw_worlds(model, 3, 6))
    # Three trades per block of four 4,096-bin sessions, and nothing after:
    # the last session's states reuse the potentials of their block.
    assert priced == [(4, 0)] * 3 + [(2, 0)] * 3

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
    # The header's state, then the block's three rebuilt inventories in one
    # call, its guessed potentials all right; the final state reuses the
    # last one's potential.
    assert priced == [(1, 0), (3, 1), "verified"]
    assert report == batch.settlement
    assert final.potential == MarketState(
        grid=final.grid, shares=final.shares, t=final.t, schedule=final.schedule,
        prior=final.prior, affine_shift=final.affine_shift).potential


def test_replay_rebuilds_beliefs_exactly_when_the_costs_do_not_add_up(monkeypatch, tmp_path):
    # Belief and delta trades in one 64-bin block, each logged cost moved by
    # 1e-13: within the cost tolerance, but every potential guessed from the
    # costs is wrong, so each call confirms one more row.
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
    priced = counting_potentials(monkeypatch)
    final, replayed, _ = replay(lines)
    # Rebuilt rows 2, 3 and 5 follow a wrong guess, so the calls start at
    # rows 0, 2, 3 and 5.
    assert priced == [(1, 0), (6, 1), (4, 1), (3, 1), (1, 1)]
    assert final.shares.tobytes() == state.shares.tobytes()
    assert [r.post_shares.tobytes() for r in replayed] == [
        r.post_shares.tobytes() for r in records]
    assert [r.cost for r in replayed] == [r.cost + 1e-13 for r in records]

"""Discounted log market maker: pricing, trades, settlement, replay."""

import json
import math

import numpy as np
import pytest

import oracles
from scoremech import (
    DiscountSchedule,
    LogConsistencyError,
    MarketState,
    NormalBelief,
    OutcomeGrid,
    ValidationError,
    binned_density,
    binned_self_score,
    cost_function,
    open_market,
    price,
    prices,
    replay,
    schedule_eval,
    settle,
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
    with pytest.warns(RuntimeWarning):
        _, rec = trade(state, needle)
    assert rec.clipped_bins > 0


def test_trade_validation():
    state = open_market(STD, FLAT)
    with pytest.raises(ValidationError):
        trade(state, [1.0, 2.0])
    with pytest.raises(ValidationError):
        trade(state, [float("inf")] * state.grid.n)
    moved, _ = trade(state, np.zeros(state.grid.n), t=3)
    with pytest.raises(ValidationError):
        trade(moved, np.zeros(state.grid.n), t=2)


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

    bad_pre = json.loads(lines[2])
    bad_pre["pre"] = list(bad_pre["pre"])
    bad_pre["pre"][5] += 1e-9
    with pytest.raises(LogConsistencyError):
        replay([lines[0], lines[1], json.dumps(bad_pre, sort_keys=True)])

    with pytest.raises(LogConsistencyError):
        replay(["not json"])
    with pytest.raises(LogConsistencyError):
        replay([])

"""Seeded worlds, payoffs and gain curves on them, best responses, and
forum reduction."""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from numpy.random import Philox
from scipy import stats
from scipy.special import ndtri

import oracles
from scoremech import (
    DiscountSchedule,
    ForumSchedule,
    NormalBelief,
    Scenario,
    ScoringRule,
    SignalModel,
    ValidationError,
    analytic_gain,
    best_response,
    classify_log,
    deviation_curve,
    divergence,
    draw_world,
    draw_worlds,
    open_market,
    posterior_pair,
    posterior_single,
    reduce_schedule,
    required_ratio_log,
    run_mechanism,
    run_mechanism_batch,
    schedule_eval,
    score,
    simulate_sessions,
)
from scoremech.game import _BLOCK_ELEMENTS, _normals_from_words

LOG = ScoringRule.LOGARITHMIC
QUAD = ScoringRule.QUADRATIC
FLAT = DiscountSchedule(kind="constant", k0=1.0)

MODEL = SignalModel(tau_a=1.0, tau_b=2.0, tau_c=0.5, rho=-0.6, c0=1.0)
UNTRUTHFUL = SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.01, rho=-0.8)
TRUTHFUL = SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.01, rho=0.2)


def restored_schedule(model, ratio_scale=1.0):
    """Flat-then-dropped schedule whose first/last ratio is ratio_scale * the
    restoration threshold of the model."""
    k_min = required_ratio_log(model) * ratio_scale
    return DiscountSchedule(kind="piecewise", k0=1.0,
                            resets=((2, 1.0 / k_min),))


def test_draw_world_is_deterministic_and_keyed():
    a = draw_world(MODEL, seed=123, index=7)
    b = draw_world(MODEL, seed=123, index=7)
    assert a == b
    assert draw_world(MODEL, seed=123, index=8) != a
    assert draw_world(MODEL, seed=124, index=7) != a
    assert all(isinstance(v, float) for v in a)


def test_draw_worlds_matches_scalar_bit_for_bit():
    lam, a0, b0 = draw_worlds(MODEL, seed=99, n=20, start_index=5)
    for i in range(20):
        want = draw_world(MODEL, seed=99, index=5 + i)
        assert (lam[i], a0[i], b0[i]) == want


def _world_from_block(model, seed, index):
    """World ``index`` rebuilt from its own Philox counter block."""
    counter = np.array([index, 0, 0, 0], dtype=np.uint64)
    words = Philox(key=seed, counter=counter).random_raw(4)
    z0, z1, z2 = (
        float(ndtri(((int(w) >> 12) + 0.5) * 2.0 ** -52)) for w in words[:3])
    lam = model.c0 + z0 / math.sqrt(model.tau_c)
    a0 = lam + z1 / math.sqrt(model.tau_a)
    rho = model.rho
    b0 = lam + (rho * z1 + math.sqrt(1.0 - rho * rho) * z2) / math.sqrt(
        model.tau_b)
    return lam, a0, b0


def test_draw_worlds_rows_are_independent_counter_blocks():
    start = 12
    lam, a0, b0 = draw_worlds(MODEL, seed=77, n=100_000, start_index=start)
    for i in (0, 1, 5, 99_999):
        want = _world_from_block(MODEL, 77, start + i)
        assert (lam[i], a0[i], b0[i]) == want
    # The last indices of the stream, where the counter's top bit is set.
    top = 2 ** 64 - 2
    lam, a0, b0 = draw_worlds(MODEL, seed=77, n=2, start_index=top)
    for i in (0, 1):
        assert (lam[i], a0[i], b0[i]) == _world_from_block(MODEL, 77, top + i)


# SHA-256 of np.stack(draw_worlds(WORLD_BITS_MODEL, 2**63 + 11, n, start))
# as the sampler wrote it before it made worlds in batches: three batches
# and part of a fourth, 2^20 worlds from index 0, and the stream's last five.
WORLD_BITS_MODEL = SignalModel(tau_a=2.0, tau_b=0.5, tau_c=0.25, rho=-0.6, c0=1.5)
WORLD_BITS = {
    (3 * 2**14 + 7, 2**40): "7fc7a6e05e165e1d0bd9ac1881b7549a8e2f526d087644f06b7ea24eaab31e6a",
    (2**20, 0): "a865794bddc7095a942b59fa6741e854f78990fa02bd58f4ffa4a85e60704030",
    (5, 2**64 - 5): "9e4bbfdd4d685f993635cb9982affb8e14c95bd569d4b2949883410cd4c18d63",
}


@pytest.mark.parametrize("n, start", sorted(WORLD_BITS))
def test_batched_worlds_keep_their_bits(n, start):
    worlds = draw_worlds(WORLD_BITS_MODEL, 2**63 + 11, n, start)
    digest = hashlib.sha256(np.stack(worlds).tobytes()).hexdigest()
    assert digest == WORLD_BITS[n, start]


def test_draw_worlds_peak_memory_is_its_result_and_one_batch():
    # The worlds are made _WORLD_BATCH at a time into one (3, n) result, so
    # the peak is its 3 n floats and one batch's temporaries: 3.2 n floats
    # at n = 2^20. Drawn all at once, the normals' temporaries made it 10.
    n = 2**20
    draw_worlds(MODEL, seed=3, n=2)  # imports outside the trace
    tracemalloc.start()
    try:
        draw_worlds(MODEL, seed=3, n=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.9 * n * 8, peak / (n * 8)


def test_extreme_words_give_finite_symmetric_normals():
    z = _normals_from_words(np.array([0, 2 ** 64 - 1], dtype=np.uint64))
    assert np.all(np.isfinite(z))
    assert z[0] == -z[1]
    assert z[1] == pytest.approx(8.2095, abs=1e-4)


def test_sampled_normals_pass_ks_and_moment_checks():
    n = 100_000
    unit = SignalModel(tau_a=1.0, tau_b=1.0, tau_c=1.0, rho=0.0)
    lam, _, _ = draw_worlds(unit, seed=2024, n=n)
    # With c0 = 0 and tau_c = 1 the outcome column is the first normal.
    assert stats.kstest(lam, "norm").pvalue > 1e-3
    # 4-sigma gates on mean, variance, skewness and excess kurtosis.
    assert abs(np.mean(lam)) <= 4.0 * math.sqrt(1.0 / n)
    assert abs(np.var(lam) - 1.0) <= 4.0 * math.sqrt(2.0 / n)
    assert abs(stats.skew(lam)) <= 4.0 * math.sqrt(6.0 / n)
    assert abs(stats.kurtosis(lam)) <= 4.0 * math.sqrt(24.0 / n)


def test_world_moments_match_model():
    n = 200_000
    lam, a0, b0 = draw_worlds(MODEL, seed=1, n=n)
    ea, eb = a0 - lam, b0 - lam
    # 4-sigma tolerances at n = 2e5.
    assert np.mean(lam) == pytest.approx(MODEL.c0, abs=4 * math.sqrt(2.0 / n))
    assert np.var(lam) == pytest.approx(1.0 / MODEL.tau_c, rel=0.02)
    assert np.var(ea) == pytest.approx(1.0 / MODEL.tau_a, rel=0.02)
    assert np.var(eb) == pytest.approx(1.0 / MODEL.tau_b, rel=0.02)
    assert np.corrcoef(ea, eb)[0, 1] == pytest.approx(MODEL.rho, abs=0.01)
    assert np.corrcoef(lam, ea)[0, 1] == pytest.approx(0.0, abs=0.01)


def test_uninformative_prior_cannot_be_sampled():
    flat_prior = SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.0)
    with pytest.raises(ValidationError):
        draw_world(flat_prior, seed=1)
    with pytest.raises(ValidationError):
        run_mechanism("discounted_msr",
                      Scenario(model=flat_prior, rule=LOG, schedule=FLAT), seed=1)


def test_seed_validation():
    with pytest.raises(ValidationError):
        draw_world(MODEL, seed=-1)
    with pytest.raises(ValidationError):
        draw_world(MODEL, seed=2 ** 64)
    with pytest.raises(ValidationError):
        draw_world(MODEL, seed=1, index=-1)
    with pytest.raises(ValidationError):
        draw_world(MODEL, seed=1, index=2 ** 64)
    with pytest.raises(ValidationError):
        draw_worlds(MODEL, seed=1, n=2, start_index=2 ** 64 - 1)


def test_substitution_ladder_keeps_verdicts():
    # Classifier verdicts for tau_c = 0 models are stable under the small
    # positive priors used to make them sampleable.
    for ta, tb, rho in [(1.0, 1.0, -0.7), (1.0, 1.0, 0.2), (2.0, 1.0, -0.4)]:
        want = classify_log(
            SignalModel(tau_a=ta, tau_b=tb, tau_c=0.0, rho=rho)).globally_truthful
        for tc in (1e-2, 1e-3, 1e-4):
            got = classify_log(
                SignalModel(tau_a=ta, tau_b=tb, tau_c=tc, rho=rho))
            assert got.globally_truthful == want


def test_rollout_zero_sum_residual():
    # pi_a + pi_b telescopes to S(final, x) - S(prior, x) under a flat
    # schedule, whatever Alice's shift.
    rng = np.random.default_rng(3)
    prior = NormalBelief(MODEL.c0, MODEL.tau_c)
    for i in range(300):
        c = float(rng.uniform(-5, 5))
        rule = LOG if i % 2 else QUAD
        scenario = Scenario(model=MODEL, rule=rule, schedule=FLAT, deviation_c=c)
        pay = run_mechanism("discounted_msr", scenario, seed=17, index=i)
        lam, a0, b0 = draw_world(MODEL, seed=17, index=i)
        final = posterior_pair(MODEL, a0, b0)
        want = score(rule, final, lam) - score(rule, prior, lam)
        assert abs(pay["alice"] + pay["bob"] - want) <= 1e-10


def test_deviation_gain_exact_zero_at_truth():
    worlds = draw_worlds(MODEL, seed=1, n=100)
    assert deviation_curve(MODEL, LOG, FLAT, (0.0,), worlds) == [(0.0, 0.0)]


def test_deviation_curve_points_equal_deviation_gain():
    # Each point of a curve is the one-point curve at its shift.
    sched = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.8)
    grid = (-4.0, -0.5, 0.0, 1.0, 3.0)
    worlds = draw_worlds(MODEL, seed=9, n=5_000)
    for rule in (LOG, QUAD):
        curve = deviation_curve(MODEL, rule, sched, grid, worlds)
        assert len(curve) == len(grid)
        for c, point in zip(grid, curve):
            assert [point] == deviation_curve(MODEL, rule, sched, (c,), worlds)


def test_curve_blocks_cannot_change_a_point():
    # The arms [0, *grid] of 5,000 worlds span at least three blocks; each
    # point equals its one-point curve, and the difference of two 1-D
    # mechanism payoffs reduced as one array, whichever block it sat in.
    grid = [-5.0 + 0.25 * i for i in range(40)]
    n = 5_000
    assert len(grid) + 1 > 2 * (_BLOCK_ELEMENTS // n)
    worlds = draw_worlds(MODEL, seed=13, n=n)
    geometric = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.8)
    for rule in (LOG, QUAD):
        for sched in (FLAT, geometric):
            curve = deviation_curve(MODEL, rule, sched, grid, worlds)
            assert curve[grid.index(0.0)] == (0.0, 0.0)
            truthful = Scenario(model=MODEL, rule=rule, schedule=sched)
            base = run_mechanism_batch("discounted_msr", truthful, worlds)["alice"]
            for c, point in zip(grid, curve):
                assert [point] == deviation_curve(MODEL, rule, sched, (c,), worlds)
                shifted = Scenario(model=MODEL, rule=rule, schedule=sched, deviation_c=c)
                diff = run_mechanism_batch("discounted_msr", shifted, worlds)["alice"] - base
                assert point == (diff.mean(), diff.std(ddof=1) / math.sqrt(n))


@pytest.mark.parametrize("rule", (LOG, QUAD))
def test_curve_memory_stays_per_block(rule):
    # Past _BLOCK_ELEMENTS worlds each block holds one arm, so the peak is
    # a fixed number of n-float arrays whatever the grid's length; scoring
    # the 64 arms at once would hold 64 of each.
    n = 2**17
    worlds = draw_worlds(MODEL, seed=3, n=n)
    for grid in ([1.0], [-4.0 + 0.125 * i for i in range(64)]):
        tracemalloc.start()
        try:
            deviation_curve(MODEL, rule, FLAT, grid, worlds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * 8, (len(grid), peak / (n * 8))


def test_deviation_gain_sign_matches_classifier():
    for model, should_gain in ((UNTRUTHFUL, True), (TRUTHFUL, False)):
        worlds = draw_worlds(model, seed=2, n=30_000)
        [(mean, se)] = deviation_curve(model, LOG, FLAT, (3.0,), worlds)
        assert se > 0.0
        assert abs(mean) > 3.0 * se
        assert (mean > 0.0) == should_gain


def test_deviation_gain_is_unbiased_for_analytic_gain():
    worlds = draw_worlds(UNTRUTHFUL, seed=4, n=100_000)
    for rule in (LOG, QUAD):
        for c in (0.5, 2.0):
            want = analytic_gain(UNTRUTHFUL, rule, FLAT, c)
            [(mean, se)] = deviation_curve(UNTRUTHFUL, rule, FLAT, (c,), worlds)
            assert mean == pytest.approx(want, abs=4.0 * se)


def _bad_worlds():
    lam, a0, b0 = draw_worlds(MODEL, seed=6, n=3)
    return {
        "empty": (lam[:0], a0[:0], b0[:0]),
        "unequal": (lam, a0, np.append(b0, 0.0)),
        "two_dimensional": (lam[:, None], a0[:, None], b0[:, None]),
        "two_arrays": (lam, a0),
        "ragged": (lam, a0, [b0, b0[:1]]),
        "not_iterable": 3.0,
    }


@pytest.mark.parametrize("case", sorted(_bad_worlds()))
def test_batch_paths_share_one_worlds_check(case):
    worlds = _bad_worlds()[case]
    scenario = Scenario(model=MODEL, rule=LOG, schedule=FLAT)
    opening = open_market(NormalBelief(MODEL.c0, MODEL.tau_c), FLAT, n_bins=16)
    calls = (
        lambda: deviation_curve(MODEL, LOG, FLAT, (1.0,), worlds),
        lambda: run_mechanism_batch("group", scenario, worlds),
        lambda: simulate_sessions(opening, MODEL, worlds),
    )
    for call in calls:
        with pytest.raises(ValidationError, match="worlds must be three equal-length"):
            call()


def test_deviation_curve_needs_two_worlds():
    worlds = draw_worlds(MODEL, seed=6, n=1)
    with pytest.raises(ValidationError, match="at least 2 worlds"):
        deviation_curve(MODEL, LOG, FLAT, (1.0,), worlds)


def test_analytic_gain_is_a_divergence_difference():
    # gain(c) = k1 D(single shifted || single) - k2 D(pair shifted || pair):
    # the first-slot self-harm against the unwind paid at Bob's slot.
    sched = DiscountSchedule(kind="geometric_by_count", k0=2.0, decay=0.7)
    for rule in (LOG, QUAD):
        for c in (-1.5, 0.3, 4.0):
            alpha_g, alpha_h = MODEL.alpha_g, MODEL.alpha_h
            single = posterior_single(MODEL, 0.0)
            pair = posterior_pair(MODEL, 0.0, 0.0)
            d_single = divergence(
                rule, NormalBelief(single.mean + c * alpha_g, single.precision),
                single)
            d_pair = divergence(
                rule, NormalBelief(pair.mean + c * alpha_h, pair.precision),
                pair)
            k1, k2 = 2.0 * 0.7, 2.0 * 0.7 ** 2
            want = k1 * d_single - k2 * d_pair
            assert analytic_gain(MODEL, rule, sched, c) == pytest.approx(
                want, rel=1e-12, abs=1e-12)


def test_best_response_truthful_model():
    out = best_response(TRUTHFUL, LOG, FLAT)
    assert out == (0.0, 0.0, False)


def test_best_response_untruthful_log_hits_bound():
    out = best_response(UNTRUTHFUL, LOG, FLAT, c_bound=100.0)
    assert out.bound_hit
    assert out.c_star == pytest.approx(100.0)
    assert out.gain == pytest.approx(
        analytic_gain(UNTRUTHFUL, LOG, FLAT, out.c_star), rel=1e-9)


def test_best_response_vanishes_at_restoring_ratio():
    model = SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.0, rho=-0.8)
    out = best_response(model, LOG, restored_schedule(model))
    assert abs(out.c_star) <= 1e-3
    assert out.gain <= 1e-12
    under = best_response(model, LOG, restored_schedule(model, 0.9))
    assert under.gain > 0.0


def test_best_response_quadratic_interior_optimum():
    model = SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.0, rho=-0.8)
    out = best_response(model, QUAD, FLAT)
    assert not out.bound_hit
    assert out.gain > 0.0
    # First-order stationarity and local maximality of the closed-form point.
    h = 1e-5 * max(1.0, abs(out.c_star))
    up = analytic_gain(model, QUAD, FLAT, out.c_star + h)
    down = analytic_gain(model, QUAD, FLAT, out.c_star - h)
    assert abs(up - down) / (2 * h) <= 1e-6 * max(1.0, out.gain)
    assert out.gain >= up and out.gain >= down


def test_best_response_quadratic_plateau_reports_the_bound():
    # The gain rises toward its tail and saturates in float well before
    # c_bound; the maximizer of the gain as a function is then c_bound.
    model = SignalModel(tau_a=0.25, tau_b=1.0, tau_c=0.0, rho=-0.6)
    out = best_response(model, QUAD, FLAT)
    assert out.c_star == 1000.0
    assert out.bound_hit
    assert out.gain == analytic_gain(model, QUAD, FLAT, 1000.0) > 0.0


def test_forum_schedule_validation():
    with pytest.raises(ValidationError):
        ForumSchedule(slots=(), horizon=3)
    with pytest.raises(ValidationError):
        ForumSchedule(slots=((2, "a"), (1, "b")), horizon=5)
    with pytest.raises(ValidationError):
        ForumSchedule(slots=((1, "a"), (1, "b")), horizon=5)
    with pytest.raises(ValidationError):
        ForumSchedule(slots=((1, "a"), (9, "b")), horizon=5)


def test_reduce_schedule_fixtures():
    lone = ForumSchedule(slots=((1, "a"),), horizon=2)
    assert reduce_schedule(lone) == ()
    aba = ForumSchedule(slots=((1, "a"), (2, "b"), (3, "a")), horizon=4)
    (sub,) = reduce_schedule(aba)
    assert (sub.expert, sub.first_slot, sub.second_slot) == ("a", 1, 3)
    assert sub.bob_set == frozenset({"b"})
    five = ForumSchedule(
        slots=((1, "a"), (2, "b"), (3, "c"), (4, "a"), (5, "b")), horizon=6)
    subs = reduce_schedule(five)
    assert [(s.expert, s.first_slot, s.second_slot, set(s.bob_set))
            for s in subs] == [
        ("a", 1, 4, {"b", "c"}),
        ("b", 2, 5, {"c", "a"}),
    ]


def test_reduce_schedule_against_enumeration_oracle():
    rng = np.random.default_rng(8)
    experts = ["a", "b", "c", "d", "e"]
    for _ in range(200):
        n = int(rng.integers(1, 12))
        names = rng.choice(experts, size=n)
        slots = tuple((t + 1, str(names[t])) for t in range(n))
        forum = ForumSchedule(slots=slots, horizon=n + 1)
        got = sorted((s.expert, s.first_slot, s.second_slot, s.bob_set)
                     for s in reduce_schedule(forum))
        assert got == oracles.enumerate_adjacent_pairs(slots)


def test_group_mechanism_pays_everyone_alike():
    scenario = Scenario(model=MODEL, rule=LOG, schedule=FLAT, freeloader=True)
    payoffs = run_mechanism("group", scenario, seed=31)
    assert set(payoffs) == {"alice", "bob", "freeloader"}
    assert len(set(payoffs.values())) == 1


def test_single_mechanism_pays_minimum_increment():
    scenario = Scenario(model=MODEL, rule=LOG, schedule=FLAT, deviation_c=0.4)
    payoffs = run_mechanism("single", scenario, seed=32, index=3)
    lam, a0, b0 = draw_world(MODEL, seed=32, index=3)
    prior = NormalBelief(MODEL.c0, MODEL.tau_c)
    first = posterior_single(MODEL, a0 + 0.4)
    pooled = posterior_pair(MODEL, a0 + 0.4, b0)
    final = posterior_pair(MODEL, a0, b0)
    alice_incr = [
        score(LOG, first, lam) - score(LOG, prior, lam),
        score(LOG, final, lam) - score(LOG, pooled, lam),
    ]
    assert payoffs["alice"] == pytest.approx(min(alice_incr), rel=1e-12)
    assert payoffs["bob"] == pytest.approx(
        score(LOG, pooled, lam) - score(LOG, first, lam), rel=1e-12)


def test_msr_mechanism_matches_rollout_rewards():
    # Each prediction at counter t earns k(t) S(p_t, x) - k(t') S(p_t', x).
    sched = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.8)
    k = [schedule_eval(sched, t) for t in range(4)]
    lam, a0, b0 = draw_world(MODEL, seed=33, index=2)
    for rule in (LOG, QUAD):
        scenario = Scenario(model=MODEL, rule=rule, schedule=sched,
                            deviation_c=-1.2)
        payoffs = run_mechanism("discounted_msr", scenario, seed=33, index=2)
        s = [score(rule, belief, lam) for belief in (
            NormalBelief(MODEL.c0, MODEL.tau_c),
            posterior_single(MODEL, a0 - 1.2),
            posterior_pair(MODEL, a0 - 1.2, b0),
            posterior_pair(MODEL, a0, b0),
        )]
        alice = k[1] * s[1] - k[0] * s[0] + k[3] * s[3] - k[2] * s[2]
        bob = k[2] * s[2] - k[1] * s[1]
        assert payoffs["alice"] == pytest.approx(alice, rel=1e-12, abs=1e-12)
        assert payoffs["bob"] == pytest.approx(bob, rel=1e-12, abs=1e-12)


def test_mechanism_batch_rows_equal_scalar_plays():
    sched = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.8)
    n, start = 12, 3
    for mech in ("group", "single", "discounted_msr"):
        for rule in (LOG, QUAD):
            for freeloader in (False, True):
                for correct in (False, True):
                    scenario = Scenario(
                        model=MODEL, rule=rule, schedule=sched,
                        deviation_c=0.9, correct_at_end=correct,
                        freeloader=freeloader)
                    batch = run_mechanism_batch(
                        mech, scenario, draw_worlds(MODEL, 34, n, start))
                    for i in range(n):
                        one = run_mechanism(mech, scenario, seed=34,
                                            index=start + i)
                        assert one == {e: v[i] for e, v in batch.items()}


def test_unknown_mechanism_rejected():
    scenario = Scenario(model=MODEL, rule=LOG, schedule=FLAT)
    with pytest.raises(ValidationError):
        run_mechanism("lottery", scenario, seed=1)


def test_group_payoff_immune_to_deviation_when_corrected():
    # With a truthful correction the final prediction is deviation-free, so
    # the group payoff matches world by world.
    for i in range(50):
        base = run_mechanism(
            "group", Scenario(model=MODEL, rule=LOG, schedule=FLAT), 44, index=i)
        bent = run_mechanism(
            "group",
            Scenario(model=MODEL, rule=LOG, schedule=FLAT, deviation_c=2.0),
            44, index=i)
        assert bent["alice"] == base["alice"]


def test_group_payoff_suffers_without_correction():
    # Without the correction the lie contaminates the scored prediction and
    # the average group payoff drops.
    n = 20_000
    worlds = draw_worlds(MODEL, seed=45, n=n)
    truthful = run_mechanism_batch(
        "group",
        Scenario(model=MODEL, rule=LOG, schedule=FLAT, correct_at_end=False),
        worlds)["alice"]
    bent = run_mechanism_batch(
        "group",
        Scenario(model=MODEL, rule=LOG, schedule=FLAT, deviation_c=1.5,
                 correct_at_end=False),
        worlds)["alice"]
    diff = bent - truthful
    se = float(np.std(diff, ddof=1) / math.sqrt(n))
    assert float(np.mean(diff)) < -3.0 * se
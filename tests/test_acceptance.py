"""End-to-end acceptance suite.

One check per shipped guarantee, each run at its pinned tolerance and
reported as a single ``[acceptance N] PASS/FAIL`` line (re-printed in the
terminal summary). Checks 5 and 7 test the quadratic-rule contract as the
code documents it, degenerate loci included, and assert what the program
does at each one rather than leaving them out:

* off the zero-response locus rho = sqrt(tau_A/tau_B) and the neutral
  boundary rho = sqrt(tau_B/tau_A), a large enough shift strictly profits
  and the deviation criterion reaches its documented limit; the shift is
  scaled to the model, since a pinned c = 1e3 sits below the sign crossover
  next to the locus under a strong prior (Monte-Carlo confirms both signs);
* on the zero-response locus every shift strictly loses and the discount
  ratio K is exactly 0, because the pooled posterior ignores the first
  report; on the neutral boundary the criterion is identically zero;
* local truthfulness is the sign of the game's own gain at a small shift:
  the finite-difference probe, the curvature margin and the verdict agree
  with it.

The criterion and the ratio are the divergences the game pays from
(``scoring``), so the expected values here are written in those terms.

The failure messages carry the numeric counterexamples. See the README.
"""

import math
import time

import numpy as np
import pytest

import oracles
from conftest import (
    BENCHMARK_TRUTHFUL,
    BENCHMARK_UNTRUTHFUL,
    RATIO_GRID,
    canonical_models,
    record_acceptance,
    saturating_shift,
)
from scoremech import (
    ABASubgame,
    DiscountIneffectiveError,
    DiscountSchedule,
    ForumSchedule,
    NormalBelief,
    Scenario,
    ScoringRule,
    SignalModel,
    analytic_gain,
    best_response,
    binned_density,
    classify_log,
    classify_quadratic,
    deviation_criterion,
    deviation_curve,
    divergence,
    draw_world,
    draw_worlds,
    loss_bound,
    open_market,
    posterior_pair,
    posterior_single,
    reduce_schedule,
    required_ratio_log,
    required_ratio_numeric,
    run_mechanism_batch,
    schedule_eval,
    settle,
    simulate_sessions,
    trade,
)

LOG = ScoringRule.LOGARITHMIC
QUAD = ScoringRule.QUADRATIC
FLAT = DiscountSchedule(kind="constant", k0=1.0)
STD = NormalBelief(mean=0.0, precision=1.0)


def test_criterion_01_divergence_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        tau = float(rng.uniform(0.1, 100.0))
        # |gap| <= 20 with a floor above the quadrature resolution.
        gap = float(rng.uniform(0.05, 20.0)) * (1.0 if rng.random() < 0.5 else -1.0)
        mean = float(rng.uniform(-5.0, 5.0))
        p = NormalBelief(mean=mean, precision=tau)
        q = NormalBelief(mean=mean + gap, precision=tau)
        got_log = divergence(LOG, p, q)
        got_quad = divergence(QUAD, p, q)
        assert got_log == pytest.approx(-tau / 2.0 * gap * gap, rel=1e-12)
        assert got_quad == pytest.approx(
            math.sqrt(tau / math.pi) * math.expm1(-tau * gap * gap / 4.0),
            rel=1e-12)
        for got, rule in ((got_log, "logarithmic"), (got_quad, "quadratic")):
            ref = oracles.quad_divergence(rule, mean, tau, mean + gap, tau)
            worst = max(worst, abs(got - ref) / abs(ref))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 30.0
    record_acceptance(
        f"[acceptance  1] PASS — 1000 equal-precision pairs, both rules, "
        f"worst rel err {worst:.2e} (tol 1e-8), {elapsed:.1f}s")


def test_criterion_02_aggregation_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(1000):
        model = SignalModel(
            tau_a=float(rng.uniform(0.1, 50.0)),
            tau_b=float(rng.uniform(0.1, 50.0)),
            tau_c=float(rng.uniform(0.05, 50.0)),
            rho=float(rng.uniform(-0.99, 0.99)),
            c0=float(rng.uniform(-3.0, 3.0)),
        )
        a0 = float(rng.uniform(-5.0, 5.0))
        b0 = float(rng.uniform(-5.0, 5.0))
        got = posterior_pair(model, a0, b0)
        want_mean, want_prec = oracles.conditioned_posterior(
            model.tau_a, model.tau_b, model.tau_c, model.rho, model.c0, a0, b0)
        worst = max(
            worst,
            abs(got.mean - want_mean) / max(1.0, abs(want_mean)),
            abs(got.precision - want_prec) / want_prec,
        )
    assert worst <= 1e-9
    # Independent signals collapse to precision weighting bit for bit.
    for _ in range(200):
        ta, tb, tc = (float(rng.uniform(0.1, 50.0)) for _ in range(3))
        c0 = float(rng.uniform(-3.0, 3.0))
        a0, b0 = float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-5.0, 5.0))
        post = posterior_pair(SignalModel(ta, tb, tc, 0.0, c0), a0, b0)
        denom = ta + tb + tc
        assert post.precision == denom
        assert post.mean == (ta * a0 + tb * b0 + tc * c0) / denom
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    record_acceptance(
        f"[acceptance  2] PASS — pooled posterior vs covariance conditioning, "
        f"1000 models, worst rel err {worst:.2e} (tol 1e-9); rho=0 exact on "
        f"200 models; {elapsed:.1f}s")


def test_criterion_03_classifier_boundary():
    boundary = SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.0, rho=-0.5)
    assert classify_log(boundary).globally_truthful
    just_past = SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.0, rho=-0.5 - 1e-9)
    assert not classify_log(just_past).globally_truthful

    rng = np.random.default_rng(1003)
    disagreements = 0
    for _ in range(10_000):
        tau = float(rng.uniform(0.1, 100.0))
        rho = float(rng.uniform(-1.0 + 1e-6, 1.0 - 1e-6))
        verdict = classify_log(SignalModel(tau_a=tau, tau_b=tau, tau_c=0.0,
                                           rho=rho))
        interval_says = rho >= -0.5
        if verdict.globally_truthful != interval_says:
            disagreements += 1
    assert disagreements == 0
    record_acceptance(
        "[acceptance  3] PASS — truthful at rho=-0.5, untruthful at "
        "-0.5-1e-9; interval (rho >= -1/2) vs margin inequality: 0 "
        "disagreements in 10000 equal-precision draws")


def test_criterion_04_monte_carlo_matches_classifier():
    t0 = time.perf_counter()
    weakest = math.inf
    for models, want_truthful in ((BENCHMARK_TRUTHFUL, True),
                                  (BENCHMARK_UNTRUTHFUL, False)):
        for i, model in enumerate(models):
            assert classify_log(model).globally_truthful is want_truthful
            # Most-detectable deviation: the larger analytic |gain| endpoint.
            from scoremech import analytic_gain
            c_eval = max((-5.0, 5.0),
                         key=lambda c: abs(analytic_gain(model, LOG, FLAT, c)))
            [(mean, se)] = deviation_curve(
                model, LOG, FLAT, (c_eval,), draw_worlds(model, 40 + i, 100_000))
            z = mean / se
            if want_truthful:
                assert z < -3.0, (model, c_eval, mean, se)
            else:
                assert z > 3.0, (model, c_eval, mean, se)
            weakest = min(weakest, abs(z))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    record_acceptance(
        f"[acceptance  4] PASS — 12 benchmark models, n=1e5: deviation-gain "
        f"sign matches the classifier, weakest |z|={weakest:.0f} (gate 3); "
        f"{elapsed:.1f}s")


# Shifts at which the two degenerate loci are probed: from well inside the
# exponential knee to far past it.
_LOCUS_SHIFTS = (1e-2, 1.0, 1e3, 1e5)

# The two grid neighbours of the zero-response locus under the strongest
# prior. Their pooled shift coefficient is ~3e-4, so the criterion only
# turns negative near c ~ 1.4e3: a fixed c = 1e3 is not yet a large shift
# there.
_SLOW_CROSSOVER = (
    SignalModel(tau_a=0.25, tau_b=1.0, tau_c=100.0, rho=0.45),
    SignalModel(tau_a=0.25, tau_b=1.0, tau_c=100.0, rho=0.55),
)


def _on_zero_response_locus(model):
    """rho = sqrt(tau_A/tau_B): the pooled posterior ignores the first report."""
    return math.isclose(model.rho, math.sqrt(model.tau_a / model.tau_b))


def _on_neutral_boundary(model):
    """rho = sqrt(tau_B/tau_A) = sigma_A/sigma_B: tau_pool equals tau_single."""
    return math.isclose(model.rho, math.sqrt(model.tau_b / model.tau_a))


def test_criterion_05_quadratic_never_truthful():
    # Large shifts: off both loci a big enough lie strictly profits, and
    # delta reaches its documented limit
    # -(sqrt(tau_pool) - sqrt(tau_single))/sqrt(pi). On the zero-response
    # locus every lie strictly loses; on the neutral boundary delta is
    # identically zero.
    off_locus, locus, neutral = [], [], []
    sign_violations = []
    for model in canonical_models():
        tau_single = posterior_single(model, 0.0).precision
        if _on_zero_response_locus(model):
            locus.append(model)
            for c in _LOCUS_SHIFTS:
                d = deviation_criterion(QUAD, model, c)
                if not d > 0.0:
                    sign_violations.append(("zero-response locus", model, c, d,
                                            "delta > 0"))
        elif _on_neutral_boundary(model):
            neutral.append(model)
            for c in _LOCUS_SHIFTS:
                d = deviation_criterion(QUAD, model, c)
                if not abs(d) <= 1e-12 * tau_single:
                    sign_violations.append(("neutral boundary", model, c, d,
                                            "|delta| <= 1e-12 tau_single"))
        else:
            off_locus.append(model)
            tau_pool = posterior_pair(model, 0.0, 0.0).precision
            limit = -(math.sqrt(tau_pool) - math.sqrt(tau_single)) / math.sqrt(math.pi)
            c = saturating_shift(model)
            d = deviation_criterion(QUAD, model, c)
            if not (d < 0.0 and abs(d - limit) <= 1e-9 * abs(limit)):
                sign_violations.append(("off-locus", model, c, d,
                                        f"delta < 0 and = {limit:+.6e}"))

    # Independent Monte-Carlo check where a pinned c = 1e3 misleads: the
    # paired gain shows a loss at 1e3 and a profit at the saturating shift,
    # matching the analytic sign at both.
    crossover_misses = []
    crossover_z = []
    for i, model in enumerate(_SLOW_CROSSOVER):
        for c, want_profit in ((1e3, False), (saturating_shift(model), True)):
            d = deviation_criterion(QUAD, model, c)
            [(mean, se)] = deviation_curve(
                model, QUAD, FLAT, (c,), draw_worlds(model, 50 + i, 20_000))
            z = mean / se
            crossover_z.append(z)
            mc_ok = z > 3.0 if want_profit else z < -3.0
            if not (mc_ok and (d < 0.0) == want_profit):
                crossover_misses.append((model, c, d, z, want_profit))

    # Local truthfulness: the finite-difference probe against the sign of
    # the game's gain at a small shift, the curvature margin and the
    # classifier's verdict. On the neutral boundary the criterion is
    # identically zero and the probe cannot call a side, so it is left out.
    game_mismatches = []
    margin_mismatches = []
    verdict_mismatches = []
    compared = 0
    for model in canonical_models():
        if _on_neutral_boundary(model):
            continue
        fd = oracles.local_truthfulness_fd(QUAD, model)
        game_says = analytic_gain(model, QUAD, FLAT, 1e-3) < 0.0
        verdict = classify_quadratic(model)
        compared += 1
        if fd != game_says:
            game_mismatches.append((model, game_says, fd))
        if fd != (verdict.margin > 0.0):
            margin_mismatches.append((model, verdict.margin, fd))
        if fd != verdict.locally_truthful:
            verdict_mismatches.append((model, verdict, fd))

    if not (sign_violations or crossover_misses or game_mismatches
            or margin_mismatches or verdict_mismatches):
        record_acceptance(
            f"[acceptance  5] PASS — {len(off_locus)} off-locus grid models: "
            f"delta<0 at the saturating shift and equal to its limit to "
            f"1e-9; {len(locus)} on the zero-response locus: delta>0 and "
            f"{len(neutral)} on the neutral boundary: delta=0, at c in "
            f"{{1e-2, 1, 1e3, 1e5}}; MC at the 2 slow-crossover models: loss "
            f"at c=1e3 and profit at the saturating shift, weakest "
            f"|z|={min(abs(z) for z in crossover_z):.1f} (gate 3); finite "
            f"differences match the game's gain sign at c=1e-3, the margin "
            f"and the verdict at {compared} points")
        return

    head = (
        f"[acceptance  5] FAIL — large-shift sign: {len(sign_violations)} "
        f"violations ({len(off_locus)} off-locus, {len(locus)} zero-response "
        f"locus, {len(neutral)} neutral-boundary models); slow-crossover MC: "
        f"{len(crossover_misses)} misses; finite differences vs the game's "
        f"gain sign: {len(game_mismatches)} mismatches, vs the margin: "
        f"{len(margin_mismatches)}, vs the verdict: "
        f"{len(verdict_mismatches)} (of {compared})")
    record_acceptance(head)
    detail = ["Large-shift sign violations (class, model, c, delta, want):"]
    for kind, model, c, d, want in sign_violations:
        detail.append(f"   {kind}: rho={model.rho}, tau_A={model.tau_a}, "
                      f"tau_C={model.tau_c}, c={c:.4g}: delta={d:+.6e}, "
                      f"want {want}")
    detail.append("Slow-crossover Monte-Carlo misses (n=2e4, gate 3 sigma):")
    for model, c, d, z, want_profit in crossover_misses:
        detail.append(f"   rho={model.rho}, tau_C={model.tau_c}, c={c:.4g}: "
                      f"delta={d:+.4f}, z={z:+.1f}, want "
                      f"{'profit' if want_profit else 'loss'}")
    detail.append("Finite-difference mismatches (model, criterion, probe):")
    for label, rows in (("game", game_mismatches),
                        ("margin", margin_mismatches),
                        ("verdict", verdict_mismatches)):
        for model, said, fd in rows:
            detail.append(f"   {label}: rho={model.rho}, tau_A={model.tau_a}, "
                          f"tau_C={model.tau_c}: {said} vs probe {fd}")
    pytest.fail("\n".join([head, ""] + detail), pytrace=False)


def _sampled_untruthful(model):
    """Swap tau_C=0 for the weakest positive prior preserving the verdict."""
    if model.tau_c > 0.0:
        return model
    for tau_c in (1e-2, 1e-3, 1e-4):
        sub = SignalModel(tau_a=model.tau_a, tau_b=model.tau_b, tau_c=tau_c,
                          rho=model.rho)
        if not classify_log(sub).globally_truthful:
            return sub
    pytest.fail(f"no positive-prior substitute keeps {model} untruthful")


def _restored(ratio_value):
    return DiscountSchedule(kind="piecewise", k0=1.0,
                            resets=((2, 1.0 / ratio_value),))


def test_criterion_06_discount_restores_log_truthfulness():
    t0 = time.perf_counter()
    spot = SignalModel(tau_a=1.0, tau_b=1.0, tau_c=0.0, rho=-0.8)
    assert required_ratio_log(spot) == pytest.approx(2.5, rel=1e-12)
    assert required_ratio_numeric(LOG, spot) == pytest.approx(2.5, abs=1e-6)

    untruthful = [m for m in canonical_models()
                  if not classify_log(m).globally_truthful]
    assert untruthful
    checked = 0
    worst_rest_z = -math.inf
    weakest_det_z = math.inf
    for i, model in enumerate(untruthful):
        k_min = required_ratio_log(model)
        best = best_response(model, LOG, _restored(k_min))
        assert abs(best.c_star) <= 1e-3, (model, best)

        sub = _sampled_untruthful(model)
        k_sub = required_ratio_log(sub)
        # At exact restoration the gain is identically zero in c, so probe a
        # real deviation; the 4-sigma gate keeps 169 simultaneous checks of
        # a zero-mean statistic from flaking family-wise.
        [(mean, se)] = deviation_curve(
            sub, LOG, _restored(k_sub), (2.0,), draw_worlds(sub, 60 + i, 10_000))
        z = mean / se if se > 0.0 else 0.0
        assert z <= 4.0, (model, mean, se)
        worst_rest_z = max(worst_rest_z, z)

        slack = _restored(0.9 * k_sub)
        worlds = draw_worlds(sub, 90 + i, 10_000)
        for c in (5.0, 20.0, 80.0):
            [(mean, se)] = deviation_curve(sub, LOG, slack, (c,), worlds)
            if mean > 3.0 * se:
                weakest_det_z = min(weakest_det_z, mean / se)
                break
        else:
            pytest.fail(f"no 3-sigma profitable deviation under 0.9*K_min "
                        f"for {model}")
        checked += 1
    elapsed = time.perf_counter() - t0
    record_acceptance(
        f"[acceptance  6] PASS — {checked} untruthful log-rule grid models: "
        f"at K_min |c*|<=1e-3 and MC gain at c=2 within noise "
        f"(worst z={worst_rest_z:.2f}, gate 4); at 0.9*K_min deviation "
        f"detected at 3 sigma (weakest z={weakest_det_z:.1f}); "
        f"spot K_min=2.5 confirmed numerically; {elapsed:.1f}s")


def test_criterion_07_quadratic_discount_existence():
    tail_matches, locus_zero = 0, 0
    tail_mismatches, locus_misses = [], []
    for model in canonical_models():
        k = required_ratio_numeric(QUAD, model)
        assert math.isfinite(k), model

        pair = posterior_pair(model, 0.0, 0.0)
        single = posterior_single(model, 0.0)
        if _on_zero_response_locus(model):
            # The shifted report never moves the pooled posterior, so the
            # ratio's numerator is identically zero and no discount is
            # needed: K = 0 exactly.
            nums = [
                abs(divergence(QUAD, posterior_pair(model, c, 0.0), pair))
                for c in _LOCUS_SHIFTS
            ]
            if k == 0.0 and all(num == 0.0 for num in nums):
                locus_zero += 1
            else:
                locus_misses.append((model, k, max(nums)))
            continue

        alpha_g, alpha_h = model.alpha_g, model.alpha_h
        tau_single, tau_pool = single.precision, pair.precision
        want = math.sqrt(tau_pool / tau_single)
        big_c = saturating_shift(model)
        num = abs(divergence(
            QUAD, NormalBelief(pair.mean + big_c * alpha_h, tau_pool), pair))
        den = abs(divergence(
            QUAD, NormalBelief(single.mean + big_c * alpha_g, tau_single),
            single))
        tail = num / den
        if abs(tail - want) > 1e-6 * want:
            tail_mismatches.append((model, tail, want))
        else:
            tail_matches += 1

    for rho in (1.0, -1.0):
        for ratio in RATIO_GRID:
            with pytest.raises(DiscountIneffectiveError):
                required_ratio_numeric(
                    QUAD, SignalModel(tau_a=ratio, tau_b=1.0, tau_c=1.0,
                                      rho=rho))

    if not tail_mismatches and not locus_misses:
        record_acceptance(
            f"[acceptance  7] PASS — finite K on all 351 grid models; "
            f"large-shift ratio tail matches the square root of the "
            f"posterior-precision ratio to 1e-6 on {tail_matches} off-locus models; K=0 with a zero "
            f"ratio numerator on {locus_zero} zero-response locus models; "
            f"|rho|=1 raises")
        return

    head = (
        f"[acceptance  7] FAIL — finite K on all 351 grid models and |rho|=1 "
        f"raises, but the large-shift ratio tail misses the square root of "
        f"the posterior-precision ratio at {len(tail_mismatches)} off-locus "
        f"points and K=0 fails at {len(locus_misses)} zero-response locus "
        f"points")
    record_acceptance(head)
    detail = ["Tail mismatches (want sqrt(tau_pool/tau_single) to 1e-6):"]
    for model, tail, want in tail_mismatches:
        detail.append(
            f"   rho={model.rho}, tau_A={model.tau_a}, tau_C={model.tau_c}: "
            f"tail={tail:.9f}, sqrt of the precision ratio={want:.9f}")
    detail.append(
        "Zero-response locus rho = sqrt(tau_A/tau_B), where the pooled "
        "posterior ignores the first report (want K=0 and a zero numerator):")
    for model, k, num in locus_misses:
        detail.append(
            f"   rho={model.rho}, tau_A={model.tau_a}, tau_C={model.tau_c}: "
            f"K={k!r}, largest numerator={num!r}")
    pytest.fail("\n".join([head, ""] + detail), pytrace=False)


def test_criterion_08_zero_sum_identity():
    t0 = time.perf_counter()
    configs = [
        (SignalModel(1.0, 2.0, 0.5, -0.6, c0=1.0), LOG, 0.0),
        (SignalModel(1.0, 2.0, 0.5, -0.6, c0=1.0), QUAD, 1.5),
        (SignalModel(1.0, 1.0, 1.0, 0.3), LOG, -3.0),
        (SignalModel(1.0, 1.0, 1.0, 0.3), QUAD, 0.0),
        (SignalModel(0.25, 1.0, 100.0, 0.9), LOG, 2.0),
        (SignalModel(0.25, 1.0, 100.0, 0.9), QUAD, -1.0),
        (SignalModel(4.0, 1.0, 0.01, -0.95), LOG, 0.7),
        (SignalModel(4.0, 1.0, 0.01, -0.95), QUAD, 0.7),
        (SignalModel(1.0, 4.0, 2.0, 0.7), LOG, -0.4),
        (SignalModel(1.0, 4.0, 2.0, 0.7), QUAD, 5.0),
    ]
    n_each = 100_000
    worst = 0.0
    for i, (model, rule, c) in enumerate(configs):
        lam, a0, b0 = worlds = draw_worlds(model, 800 + i, n_each)
        scenario = Scenario(model=model, rule=rule, schedule=FLAT, deviation_c=c)
        pay = run_mechanism_batch("discounted_msr", scenario, worlds)
        args = (model.tau_a, model.tau_b, model.tau_c, model.rho, model.c0)
        final_mean, final_precision = oracles.gls_pair_means(*args, a0, b0)
        s_final = oracles.score_array(rule.value, final_mean, final_precision, lam)
        s_prior = oracles.score_array(rule.value, model.c0, model.tau_c, lam)
        residual = np.abs(pay["alice"] + pay["bob"] - (s_final - s_prior))
        worst = max(worst, float(residual.max()))
    assert worst <= 1e-10
    elapsed = time.perf_counter() - t0
    record_acceptance(
        f"[acceptance  8] PASS — 1e6 rollouts (10 model/rule/shift configs): "
        f"max |pi_A + pi_B - (S(final) - S(prior))| = {worst:.2e} "
        f"(tol 1e-10); {elapsed:.1f}s")


def test_criterion_09_market_maker():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1009)

    # Path independence at a fixed counter.
    decay = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.9)
    state = open_market(STD, decay)
    worst_path = 0.0
    for _ in range(100):
        delta = rng.normal(scale=2.0, size=state.grid.n)
        split = rng.uniform(0.0, 1.0, size=state.grid.n)
        _, whole = trade(state, delta, t=2)
        mid, first = trade(state, delta * split, t=2)
        _, second = trade(mid, delta * (1.0 - split), t=2)
        worst_path = max(worst_path,
                         abs(whole.cost - (first.cost + second.cost)))
    assert worst_path <= 1e-10

    # Delay monotonicity: same delta executed later costs more on a market
    # whose grid span keeps every price density's entropy negative.
    tight = open_market(NormalBelief(mean=0.0, precision=625.0), decay)
    violations = 0
    for _ in range(1000):
        delta = rng.normal(scale=1.5, size=tight.grid.n)
        t_early = int(rng.integers(1, 5))
        t_late = t_early + int(rng.integers(1, 4))
        _, early = trade(tight, delta, t=t_early)
        _, late = trade(tight, delta, t=t_late)
        if not late.cost > early.cost:
            violations += 1
    assert violations == 0

    # Realized trader profit is the discounted binned-score increment.
    model = SignalModel(tau_a=1.0, tau_b=1.0, tau_c=1.0, rho=0.0)
    msr = DiscountSchedule(kind="geometric_by_count", k0=1.0, decay=0.85)
    base = open_market(STD, msr)
    worst_msr = 0.0
    for i in range(50):
        lam, a0, b0 = draw_world(model, seed=900, index=i)
        g = posterior_single(model, a0)
        h = posterior_pair(model, a0, b0)
        s1, r1 = trade(base, g, trader="alice", t=1)
        s2, r2 = trade(s1, h, trader="bob", t=2)
        s3, r3 = trade(s2, h, trader="alice", t=3)
        report = settle(s3, lam, [r1, r2, r3])
        idx, _ = base.grid.locate(lam)

        def binned(belief, counter):
            return (schedule_eval(msr, counter)
                    * math.log(binned_density(belief, base.grid)[idx]))

        want_alice = (binned(g, 1) - binned(STD, 0)
                      + binned(h, 3) - binned(h, 2))
        want_bob = binned(h, 2) - binned(g, 1)
        got_alice = report.payouts["alice"] - (r1.cost + r3.cost)
        got_bob = report.payouts["bob"] - r2.cost
        worst_msr = max(worst_msr, abs(got_alice - want_alice),
                        abs(got_bob - want_bob))
    assert worst_msr <= 1e-4

    # Mean maker loss over 1e4 truthful sessions stays under -k(0) S(pi,pi).
    bound = loss_bound(FLAT, STD, LOG)
    assert bound == pytest.approx(1.4189385332046727, rel=1e-12)
    quad_bound = -oracles.quad_expected_score("logarithmic", 0.0, 1.0, 0.0, 1.0)
    assert abs(quad_bound - bound) <= 1e-6

    # Worlds 0..9999 of seed 901, each a truthful Alice-Bob-Alice session;
    # simulate_sessions equals the trade/settle chain above row by row.
    flat_market = open_market(STD, FLAT)
    worlds = draw_worlds(model, seed=901, n=10_000)
    mean_loss = float(simulate_sessions(flat_market, model, worlds).maker_loss.mean())
    assert mean_loss <= bound
    elapsed = time.perf_counter() - t0
    record_acceptance(
        f"[acceptance  9] PASS — path independence {worst_path:.1e} "
        f"(tol 1e-10); 1000 delay pairs, 0 violations; trader profit = "
        f"discounted binned score increment to {worst_msr:.1e} (tol 1e-4); "
        f"mean maker loss {mean_loss:.4f} <= bound {bound:.10f} "
        f"(quadrature agrees to 1e-6); {elapsed:.1f}s")


def test_criterion_10_schedule_reduction():
    forum = ForumSchedule(
        slots=((1, "A"), (2, "B"), (3, "C"), (4, "A"), (5, "B")), horizon=6)
    assert reduce_schedule(forum) == (
        ABASubgame(expert="A", first_slot=1, second_slot=4,
                   bob_set=frozenset({"B", "C"})),
        ABASubgame(expert="B", first_slot=2, second_slot=5,
                   bob_set=frozenset({"C", "A"})),
    )

    rng = np.random.default_rng(1010)
    experts = ["a", "b", "c", "d", "e"]
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        names = rng.choice(experts, size=n)
        slots = tuple((t + 1, str(names[t])) for t in range(n))
        subs = reduce_schedule(ForumSchedule(slots=slots, horizon=n + 1))
        keys = [(s.expert, s.first_slot, s.second_slot) for s in subs]
        assert len(set(keys)) == len(keys)
        got = sorted((s.expert, s.first_slot, s.second_slot, s.bob_set)
                     for s in subs)
        assert got == oracles.enumerate_adjacent_pairs(slots)
    record_acceptance(
        "[acceptance 10] PASS — five-slot fixture exact; 1000 random "
        "5-expert schedules: every repeated-speaker adjacency covered "
        "exactly once")

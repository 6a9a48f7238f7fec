"""Alice-Bob-Alice game engine.

The scored timeline is: the market opens at the prior (counter 0), Alice
predicts (counter 1), Bob predicts (counter 2), Alice corrects (counter 3),
the outcome x = lambda is revealed. Each prediction at counter t is paid
the discounted increment k(t) S(p_t, x) - k(t') S(p_t', x) against the
standing prediction from counter t'. Alice's only deviation lever is a
scalar shift c added to the signal she pretends to have received; Bob
always updates truthfully on her announcement, and by default Alice's
correction pools her true signal with the one Bob's report reveals.

Monte-Carlo worlds come from one counter-based Philox4x64-10 block per
world index (Salmon et al., SC'11), keyed by the seed: a world depends
only on (seed, index), so the first m worlds of a draw of n are the draw
of m. ``draw_worlds`` is the only sampler; the batch paths take its
(lam, a0, b0) arrays, and each seeded scalar function is the n = 1 row of
its batch counterpart, so the two agree bit for bit. Paired designs reuse
the same worlds across arms.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .beliefs import SignalModel
from .discounting import DiscountSchedule, schedule_eval
from .errors import ValidationError
from .scoring import ScoringRule, _score
from .truthfulness import _curvatures, _divergences

__all__ = [
    "ForumSchedule",
    "ABASubgame",
    "Scenario",
    "BestResponse",
    "draw_world",
    "draw_worlds",
    "analytic_gain",
    "compare_mechanisms",
    "deviation_curve",
    "best_response",
    "reduce_schedule",
    "run_mechanism",
    "run_mechanism_batch",
]

_SEED_LIMIT = 1 << 64
_U52 = 2.0**-52

# Slot counters of Alice's first report and Bob's pooled one.
_T_FIRST, _T_POOL = 1, 2

_MECHANISMS = ("discounted_msr", "group", "single")

# The experts of every play; a scenario's freeloader is paid after them.
_EXPERTS = ("alice", "bob")

# Worlds the simulate report's mechanism comparison averages over.
_MECHANISM_WORLDS = 2000


@dataclass(frozen=True)
class ForumSchedule:
    """Fixed speaking order of a public forecasting forum on [0, horizon]."""

    slots: tuple[tuple[int, str], ...]
    horizon: int

    def __post_init__(self) -> None:
        slots = tuple((int(t), str(e)) for t, e in self.slots)
        object.__setattr__(self, "slots", slots)
        if not slots:
            raise ValidationError("a forum schedule needs at least one slot")
        times = [t for t, _ in slots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValidationError("slot times must be strictly increasing")
        if times[0] < 0 or times[-1] > self.horizon:
            raise ValidationError("slot times must lie in [0, horizon]")


@dataclass(frozen=True)
class ABASubgame:
    """A repeated speaker's adjacent slot pair, with the interim speakers
    rolled into a single composite opponent."""

    expert: str
    first_slot: int
    second_slot: int
    bob_set: frozenset[str]


class BestResponse(NamedTuple):
    """The maximizing shift c_star >= 0, its analytic gain, and whether
    c_star is c_bound (also when the gain saturates in float before it)."""

    c_star: float
    gain: float
    bound_hit: bool


@dataclass(frozen=True)
class Scenario:
    """Model, payment schedule, and strategy profile for ``run_mechanism``.

    deviation_c shifts Alice's pretended first-slot signal. With
    ``correct_at_end`` she pools her true signal at the correction slot;
    otherwise she stands by the pretended one. ``freeloader`` appends an
    expert who repeats the standing prediction after the correction.
    """

    model: SignalModel
    rule: ScoringRule
    schedule: DiscountSchedule
    deviation_c: float = 0.0
    correct_at_end: bool = True
    freeloader: bool = False

    def __post_init__(self) -> None:
        if not math.isfinite(self.deviation_c):
            raise ValidationError("deviation_c must be finite")


def _normalize_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValidationError("seed must be an integer")
    if not (0 <= seed < _SEED_LIMIT):
        raise ValidationError("seed must lie in [0, 2^64)")
    return seed


def _require_sampleable(model: SignalModel) -> None:
    if model.tau_c <= 0.0:
        raise ValidationError(
            "tau_c must be positive to sample the latent outcome; use a "
            "small positive tau_c to approximate an uninformative prior"
        )


def _world_indices(seed: int, n: int, start_index: int) -> tuple[int, int, int]:
    """(seed, n, start_index) as ints, checked as the sampler needs them."""
    seed = _normalize_seed(seed)
    if not isinstance(n, (int, np.integer)) or n <= 0:
        raise ValidationError("n must be a positive integer")
    if not isinstance(start_index, (int, np.integer)) or start_index < 0:
        raise ValidationError("index must be a non-negative integer")
    n, start_index = int(n), int(start_index)
    if start_index + n > _SEED_LIMIT:
        raise ValidationError("world indices must lie in [0, 2^64)")
    return seed, n, start_index


def _block_normals(seed: int, n: int, start_index: int) -> np.ndarray:
    """Standard normals of shape (n, 3), row i from counter block start_index + i,
    for indices that ``_world_indices`` has checked."""
    # Imported here so that the analytic commands never load numpy.random.
    from numpy.random import Philox

    # An int counter is the 256-bit value [start_index, 0, 0, 0] without the
    # float cast numpy applies to list entries of 2^63 and above.
    raw = Philox(_seed_key_type()(seed), counter=start_index).random_raw(4 * n)
    return _normals_from_words(raw.reshape(-1, 4)[:, :3])


@functools.cache
def _seed_key_type() -> type:
    """numpy's ``ISeedSequence`` whose state is a seed's Philox key.

    Philox keys itself from ``generate_state(2, np.uint64)``, which returns
    [seed, 0], the key words of ``Philox(key=seed)``. That form first builds
    ``SeedSequence(None)`` from 128 bits of OS entropy and discards it.
    """
    # Imported here so that the analytic commands never load numpy.random.
    from numpy.random.bit_generator import ISeedSequence

    class SeedKey(ISeedSequence):
        def __init__(self, seed: int) -> None:
            self.words = np.array([seed, 0], dtype=np.uint64)

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedKey


def _normals_from_words(words: np.ndarray) -> np.ndarray:
    """Standard normals from raw 64-bit words by inversion.

    The top 52 bits k give u = (k + 1/2) 2^-52, which float64 holds
    exactly; u is never 0 or 1 and u(~w) = 1 - u(w), so the normals are
    finite, symmetric and capped at |z| <= 8.2095.
    """
    # Imported here so that the analytic commands never load scipy.special.
    from scipy.special import ndtri

    u = (words >> np.uint64(12)).astype(np.float64)
    u += 0.5
    u *= _U52
    return ndtri(u, out=u)


def _world_from_noise(model: SignalModel, z0, z1, z2):
    lam = model.c0 + z0 / math.sqrt(model.tau_c)
    a0 = lam + z1 / math.sqrt(model.tau_a)
    rho = model.rho
    b0 = lam + (rho * z1 + math.sqrt(1.0 - rho * rho) * z2) / math.sqrt(model.tau_b)
    return lam, a0, b0


# draw_worlds makes this many worlds at a time, so that its peak memory is
# its result, 24 B per world, plus one batch's temporaries (about 1.5 MiB).
_WORLD_BATCH = 2**14


def draw_worlds(
    model: SignalModel, seed: int, n: int, start_index: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Worlds (lambda, a0, b0) for indices start_index .. start_index + n - 1.

    World i comes from the counter block that
    ``Philox(key=seed, counter=i).random_raw(4)`` returns, i.e. the 256-bit
    counter [i, 0, 0, 0]: words 0-2 become the three standard normals,
    word 3 is unused. Every block makes exactly one world, so a world
    depends only on (seed, index), and the worlds are made ``_WORLD_BATCH``
    at a time into the three rows of one (3, n) array.
    """
    _require_sampleable(model)
    seed, n, start_index = _world_indices(seed, n, start_index)
    lam, a0, b0 = np.empty((3, n))
    for lo in range(0, n, _WORLD_BATCH):
        z = _block_normals(seed, min(_WORLD_BATCH, n - lo), start_index + lo)
        hi = lo + len(z)
        lam[lo:hi], a0[lo:hi], b0[lo:hi] = _world_from_noise(model, z[:, 0], z[:, 1], z[:, 2])
    return lam, a0, b0


def draw_world(model: SignalModel, seed: int, index: int = 0) -> tuple[float, float, float]:
    """Row 0 of ``draw_worlds(model, seed, 1, index)``, as floats."""
    lam, a0, b0 = draw_worlds(model, seed, 1, index)
    return float(lam[0]), float(a0[0]), float(b0[0])


def _as_worlds(worlds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``worlds`` as three float arrays, checked as every batch path needs them."""
    message = "worlds must be three equal-length, non-empty 1-D arrays"
    try:
        lam, a0, b0 = (np.asarray(w, dtype=float) for w in worlds)
    except (TypeError, ValueError) as exc:
        raise ValidationError(message) from exc
    if not (lam.ndim == 1 and lam.size and lam.shape == a0.shape == b0.shape):
        raise ValidationError(message)
    return lam, a0, b0


def _fixed_scores(model, rule, lam, a0, b0, correct_at_end=True):
    """Scores of the prior and of Alice's correction, which no shift c
    moves; the correction is None when she stands by her pretended signal."""
    s_prior = _score(rule, model.c0, model.tau_c, lam)
    if not correct_at_end:
        return s_prior, None
    return s_prior, _score(rule, model.pair_mean(a0, b0), model.tau_pool, lam)


def _slot_scores(model, rule, c, lam, a0, b0, fixed):
    """The scores (prior, first, pool, final) of the predictions at counters
    0 to 3: the prior, Alice's first report, Bob's pooled one and the final
    prediction, which is Alice's correction or, without it, Bob's report.
    The deviation enters only through Alice's pretended signal a0 + c.
    ``fixed`` is ``_fixed_scores`` of the same worlds. A column c of shape
    (arms, 1) scores the first and pooled reports of every arm as (arms, n)
    rows, which the c-free scores broadcast against."""
    s_prior, s_correct = fixed
    a_hat = a0 + c
    s_first = _score(rule, model.single_mean(a_hat), model.tau_single, lam)
    s_pool = _score(rule, model.pair_mean(a_hat, b0), model.tau_pool, lam)
    return s_prior, s_first, s_pool, s_pool if s_correct is None else s_correct


def _payoff(mechanism: str, expert: str, k, scores) -> np.ndarray:
    """``expert``'s payoff array under ``mechanism`` (see ``run_mechanism``)
    from the ``_slot_scores`` of her slots: Alice speaks at counters 1 and
    3, Bob at 2, and the freeloader repeats the final prediction at 4.
    ``k`` holds k(0), k(1), ... and only discounted_msr reads it."""
    prior, first, pool, final = scores
    if mechanism == "group":
        return final
    if mechanism == "single":
        if expert == "alice":
            return np.minimum(first - prior, final - pool)
        return pool - first if expert == "bob" else final - final
    if expert == "alice":
        return (k[1] * first - k[0] * prior) + (k[3] * final - k[2] * pool)
    return k[2] * pool - k[1] * first if expert == "bob" else k[4] * final - k[3] * final


def analytic_gain(
    model: SignalModel, rule: ScoringRule, schedule: DiscountSchedule, c: float
) -> float:
    """Exact expected gain from shifting the first-slot signal by c.

    E[pi_a(c) - pi_a(0)] = k1 D(first) - k2 D(pooled), where D are the
    rule's divergences of the shifted posteriors from the truthful ones:
    the shift moves the first-slot mean by c a_g (forfeiting accuracy
    weighted k1) and the pooled mean by c a_h (degrading Bob's scored
    report, weighted k2). Positive values mean the lie profits.
    """
    k1 = schedule_eval(schedule, _T_FIRST)
    k2 = schedule_eval(schedule, _T_POOL)
    div_first, div_pool = _divergences(rule, model, c)
    return k1 * div_first - k2 * div_pool


# deviation_curve scores its arms, and amm's simulate_sessions and replay
# their sessions and records, as (block, n) arrays of at most this many
# elements (128 KiB of float64 each), whatever the grid's or the batch's length.
_BLOCK_ELEMENTS = 2**14


def deviation_curve(
    model: SignalModel,
    rule: ScoringRule,
    schedule: DiscountSchedule,
    c_grid: Iterable[float],
    worlds,
) -> list[tuple[float, float]]:
    """Paired Monte-Carlo estimates of E[pi_a(c) - pi_a(0)] for each c in c_grid.

    ``worlds`` is (lam, a0, b0), such as ``draw_worlds`` returns, with at
    least two rows. Every arm, c = 0 included, replays them, so at c = 0
    the estimate is exactly (0, 0) and elsewhere the common noise cancels.
    Returns one (mean, standard error) per c: d.mean() and d.std(ddof=1) /
    sqrt(n) of d, Alice's ``run_mechanism_batch`` discounted payoff at c
    less hers at c = 0, bit for bit.

    The prior and Alice's final report, which no shift moves, are scored
    once, and the arms [0, *c_grid] together, as (arms, n) blocks of at
    most ``_BLOCK_ELEMENTS`` elements (one arm per block once n exceeds
    it), so memory does not grow with the grid. Only Alice's payoff is paid
    per arm, and every point equals its one-point curve exactly.
    """
    return _curve_and_mechanisms(model, rule, schedule, c_grid, worlds)[0]


# Relative excess of w over 1 below which the log rule's gain counts as
# flat (boundary settings where float residue could fake a sign).
_CURV_RTOL = 1e-12


def best_response(
    model: SignalModel,
    rule: ScoringRule,
    schedule: DiscountSchedule,
    c_bound: float = 1e3,
) -> BestResponse:
    """Maximize the analytic deviation gain over shifts |c| <= c_bound, exactly.

    The gain is even in c, so c_star is reported non-negative. In x = c^2,
    with ``scoring``'s weights W and rates q, a = q(tau_single) a_g^2 and
    b = q(tau_pool) a_h^2, it is k1 W(tau_single) phi(a x) - k2 W(tau_pool)
    phi(b x), and both rules read w = (k2/k1) R, with R, a and b from
    ``truthfulness._curvatures``. The log gain is k1 a (w - 1) x: the
    optimum is c_bound when w - 1 > 1e-12 (w + 1), a floor against float
    residue at boundary settings, and 0 otherwise. The quadratic gain's
    derivative vanishes only at x* = -ln(w) / (a - b) when a != b, and the
    gain is monotone when a = b, so the maximizer is c_bound or sqrt(x*)
    when 0 < x* < c_bound^2, whichever gains more; a tie goes to c_bound. A
    gain <= 0 returns (0, 0, False). ``bound_hit`` is ``c_star == c_bound``,
    which also covers a gain that saturates in float before c_bound.
    """
    if not (math.isfinite(c_bound) and c_bound > 0):
        raise ValidationError("c_bound must be a positive finite real")
    k1 = schedule_eval(schedule, _T_FIRST)
    k2 = schedule_eval(schedule, _T_POOL)
    ratio, _, a, b = _curvatures(rule, model)
    w = k2 / k1 * ratio
    if rule is ScoringRule.LOGARITHMIC and not w - 1.0 > _CURV_RTOL * (w + 1.0):
        return BestResponse(c_star=0.0, gain=0.0, bound_hit=False)
    candidates = [c_bound]
    if rule is ScoringRule.QUADRATIC and a != b and w > 0.0:
        x_star = -math.log(w) / (a - b)
        if 0.0 < x_star < c_bound * c_bound:
            candidates.append(math.sqrt(x_star))
    # Pairs compare by gain first, so an equal gain goes to c_bound.
    best_gain, c_star = max(
        (analytic_gain(model, rule, schedule, c), c) for c in candidates
    )
    if best_gain <= 0.0:
        return BestResponse(c_star=0.0, gain=0.0, bound_hit=False)
    return BestResponse(
        c_star=float(c_star), gain=float(best_gain), bound_hit=c_star == c_bound
    )


def reduce_schedule(schedule: ForumSchedule) -> tuple[ABASubgame, ...]:
    """Decompose a forum into its repeated-speaker subgames.

    For each expert, every adjacent pair of her speaking slots yields one
    descriptor whose composite opponent is the set of experts speaking
    strictly between them. The forum is prompt-truthful iff every
    descriptor's three-slot subgame is.
    """
    by_expert: dict[str, list[int]] = {}
    for t, expert in schedule.slots:
        by_expert.setdefault(expert, []).append(t)
    out = []
    for expert, times in by_expert.items():
        for t1, t2 in zip(times, times[1:]):
            between = frozenset(
                e for t, e in schedule.slots if t1 < t < t2 and e != expert
            )
            out.append(
                ABASubgame(expert=expert, first_slot=t1, second_slot=t2, bob_set=between)
            )
    out.sort(key=lambda d: (d.first_slot, d.second_slot))
    return tuple(out)


def _scenario_payoffs(mechanisms, scenario: Scenario, worlds):
    """{mechanism: {expert: payoff array}} of ``scenario`` on ``worlds``,
    which are scored once for all ``mechanisms``."""
    lam, a0, b0 = _as_worlds(worlds)
    model, rule = scenario.model, scenario.rule
    fixed = _fixed_scores(model, rule, lam, a0, b0, scenario.correct_at_end)
    scores = _slot_scores(model, rule, scenario.deviation_c, lam, a0, b0, fixed)
    experts = (*_EXPERTS, "freeloader") if scenario.freeloader else _EXPERTS
    counters = range(5 if scenario.freeloader else 4)
    paid = {}
    for mech in mechanisms:
        # The other rules pay plain scores, also where the level underflows.
        k = None
        if mech == "discounted_msr":
            k = [schedule_eval(scenario.schedule, t) for t in counters]
        paid[mech] = {e: _payoff(mech, e, k, scores) for e in experts}
    return paid


def run_mechanism_batch(
    mechanism: str, scenario: Scenario, worlds
) -> dict[str, np.ndarray]:
    """Per-expert payoff arrays, one row per world of ``worlds`` = (lam,
    a0, b0), such as ``draw_worlds`` returns; see ``run_mechanism``.

    Under ``discounted_msr`` the payoffs of Alice and Bob telescope to
    k(3) S(p_3, x) - k(0) S(prior, x); with her correction, the counter-3
    prediction p_3 is free of her pretended signal.
    """
    if mechanism not in _MECHANISMS:
        raise ValidationError(f"unknown mechanism {mechanism!r}")
    return _scenario_payoffs((mechanism,), scenario, worlds)[mechanism]


def compare_mechanisms(scenario: Scenario, worlds) -> dict[str, dict[str, np.ndarray]]:
    """``run_mechanism_batch`` of every mechanism, keyed by its name, paid
    from one scoring of ``worlds``.

    The simulate report's mechanism comparison is these payoffs of the
    truthful scenario (no shift, with the correction, no freeloader) on the
    first min(samples, ``_MECHANISM_WORLDS``) worlds, averaged, which
    ``_curve_and_mechanisms`` pays from its c = 0 arm's scores.
    """
    return _scenario_payoffs(_MECHANISMS, scenario, worlds)


def _curve_and_mechanisms(model, rule, schedule, c_grid, worlds):
    """``deviation_curve``'s estimates, and each expert's mean payoff under
    each mechanism as {mechanism: {expert: mean}}: ``compare_mechanisms``
    of the truthful scenario on the first ``_MECHANISM_WORLDS`` worlds,
    averaged. Each arm block pays Alice's discounted payoff alone, and its
    c = 0 row also pays the mechanisms, so that the worlds are scored once
    for both and no block's scores outlive it.
    """
    lam, a0, b0 = _as_worlds(worlds)
    n = lam.size
    if n < 2:
        raise ValidationError("a deviation curve needs at least 2 worlds")
    fixed = _fixed_scores(model, rule, lam, a0, b0)
    k = [schedule_eval(schedule, t) for t in range(4)]
    arms = np.array([0.0, *c_grid], dtype=float)[:, None]
    block = max(1, _BLOCK_ELEMENTS // n)
    means, errors = [], []
    for start in range(0, len(arms), block):
        scores = _slot_scores(model, rule, arms[start : start + block], lam, a0, b0, fixed)
        diff = _payoff("discounted_msr", "alice", k, scores)
        if start == 0:
            # Row 0 is the c = 0 arm that every other arm is paired with.
            mechanisms = _truthful_means(k, scores)
            base, diff = diff[0], diff[1:]
        del scores  # so that the next block is scored without this one alive
        diff -= base
        # numpy's mean and std(ddof=1) of each row, from one row sum.
        mean = diff.sum(axis=1, keepdims=True) / n
        diff -= mean
        np.square(diff, out=diff)
        means.extend(mean[:, 0].tolist())
        errors.extend((np.sqrt(diff.sum(axis=1) / (n - 1)) / math.sqrt(n)).tolist())
    return list(zip(means, errors)), mechanisms


def _truthful_means(k, scores):
    """Each expert's mean payoff under each mechanism on the first
    ``_MECHANISM_WORLDS`` worlds of the c = 0 row of an arm block's
    ``scores``; ``k`` holds k(0) to k(3)."""
    truthful = [np.atleast_2d(s)[0, :_MECHANISM_WORLDS] for s in scores]
    rows = np.array([_payoff(m, e, k, truthful) for m in _MECHANISMS for e in _EXPERTS])
    # One row sum over the stacked rows gives each row's own mean exactly.
    pairs = (rows.sum(axis=1) / rows.shape[1]).reshape(len(_MECHANISMS), 2).tolist()
    return {mech: dict(zip(_EXPERTS, pair)) for mech, pair in zip(_MECHANISMS, pairs)}


def run_mechanism(
    mechanism: str, scenario: Scenario, seed: int, index: int = 0
) -> dict[str, float]:
    """Realized per-expert payoffs for one seeded play.

    group:          everyone is paid the final prediction's plain score.
    single:         each expert is paid the minimum of her incremental
                    scores S(p_t, x) - S(p_prev, x).
    discounted_msr: each prediction pays its discounted increment
                    k(t) S(p_t, x) - k(t') S(p_t', x).

    This is row 0 of ``run_mechanism_batch(mechanism, scenario,
    draw_worlds(scenario.model, seed, 1, index))``; ``index`` selects the
    world within the seed's stream, as in ``draw_world``.
    """
    worlds = draw_worlds(scenario.model, seed, 1, index)
    payoffs = run_mechanism_batch(mechanism, scenario, worlds)
    return {e: float(v[0]) for e, v in payoffs.items()}

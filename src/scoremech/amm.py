"""Discounted logarithmic market scoring rule as an automated market maker.

The continuous outcome is discretized into contiguous bins. The maker
quotes a price *density* m_j = exp(s_j/k(t)) / sum_i w_i exp(s_i/k(t)) per
bin; width-weighted prices (masses) sum to one. Trades are priced by the
potential

    C(s, t) = k(t) * log( sum_j w_j exp(s_j / k(t)) ),

a trade from inventory s (set at counter t_pre) to s' at counter t' costing
C(s', t') - C(s, t_pre). One share of bin j pays $1 if the outcome lands in
bin j; shares are claims on the bin, with the width accounted in the
density convention, so a trader moving the market between belief states
realizes exactly the discounted incremental binned log score
k(t) log p(x) - k(t') log p'(x) after settlement.

A delayed trade (same delta, later counter, smaller k) costs more exactly
when the post-trade price density has negative differential entropy; grids
whose total span is below one outcome unit guarantee that for every
reachable state.

Markets open at the prior: the initial inventory is k(0) log(binned prior
density), which makes the opening potential zero and the maker's total
outlay telescope to the discounted final-vs-prior score difference.

A trade to a belief moves the market to that belief, as in Hanson's market
scoring rule: the post-trade inventory is k(t) log d + C, with d the belief's
binned density floored at 1e-300 and C the potential before the trade. Its
potential is C + k(t) log M, M = sum_j w_j d_j, so the trade costs exactly
k(t) log M; ``trade``, ``simulate_sessions`` and ``replay`` take that closed
form and check the inventory at its largest and smallest log density.

The market step prices and checks every other inventory (a share-delta
trade's, ``cost_function``'s, a ``MarketState``'s) on (rows, bins) arrays:
finite shares, and a unit width-weighted price mass. The prices are the
exponentials over their width-weighted sum, the normalizer, so the mass is
1 by construction; the step checks that the normalizer and its reciprocal
are finite, which a NaN or an overflow fails.

``replay`` verifies a trade log (see "Trade log serialization and replay"
below) in blocks: a block's beliefs are binned in one call and its ``post``
records priced in one step, one level k(t) per row, and one running sum of
the costs gives each potential. It names the first faulty line.
"""

from __future__ import annotations

import base64
import binascii
import functools
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .beliefs import SignalModel
from .discounting import DiscountSchedule, schedule_eval
from .errors import LogConsistencyError, NumericError, ValidationError
from .errors import _field, _json_int, _object, _real, _text
from .game import _BLOCK_ELEMENTS, _as_worlds
from .scoring import NormalBelief

__all__ = [
    "OutcomeGrid",
    "MarketState",
    "TradeRecord",
    "SettlementReport",
    "SessionBatch",
    "binned_density",
    "binned_self_score",
    "open_market",
    "price",
    "prices",
    "cost_function",
    "trade",
    "settle",
    "simulate_sessions",
    "replay",
    "log_header",
    "record_to_json",
    "settlement_to_json",
    "write_log",
]

_LOG_FORMAT = "scoremech-market-log"
_LOG_VERSION = 3

# Belief densities are clipped here before taking logs; zero density would
# demand an infinite short position in the bin.
_DENSITY_FLOOR = 1e-300

_COST_TOL = 1e-10

# Grid coverage demanded of every market state, in prior standard deviations.
_COVER_SIGMAS = 10.0


@dataclass(frozen=True)
class OutcomeGrid:
    """Uniform contiguous bins covering [lo, hi)."""

    lo: float
    hi: float
    n: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValidationError("grid needs finite lo < hi")
        if self.n < 2:
            raise ValidationError("grid needs at least 2 bins")

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.n

    @functools.cached_property
    def edges(self) -> np.ndarray:
        """The n + 1 bin edges (read-only)."""
        return _read_only(np.linspace(self.lo, self.hi, self.n + 1))

    @functools.cached_property
    def widths(self) -> np.ndarray:
        """The n bin widths (read-only)."""
        e = self.edges
        return _read_only(e[1:] - e[:-1])

    def locate(self, x: float) -> tuple[int, bool]:
        """Bin index of x, clamped to the nearest edge bin when outside.

        Returns (index, out_of_range flag): the one-outcome case of
        ``locate_all``.
        """
        index, outside = self.locate_all(np.array([x], dtype=float))
        return int(index[0]), bool(outside[0])

    def locate_all(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bin indices and out-of-range flags of a 1-D array of outcomes."""
        if not np.isfinite(x).all():
            raise ValidationError("outcome must be finite")
        below, above = x < self.lo, x >= self.hi
        inside = np.where(below | above, self.lo, x)
        index = ((inside - self.lo) / (self.hi - self.lo) * self.n).astype(np.intp)
        return np.where(above, self.n - 1, np.minimum(index, self.n - 1)), below | above

    @classmethod
    def from_prior(cls, prior: NormalBelief, n: int = 512) -> "OutcomeGrid":
        """n bins spanning the prior mean +/- 10 prior standard deviations,
        the coverage every MarketState demands."""
        half = _COVER_SIGMAS * prior.sigma
        return cls(lo=prior.mean - half, hi=prior.mean + half, n=n)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MarketState:
    """Immutable snapshot of the maker's inventory at counter t.

    ``shares`` is stored as a read-only float64 copy of what was passed.
    ``affine_shift`` is the constant subtracted from scores in loss
    reports so the effective rule is non-positive; it is part of the
    market configuration, not of pricing. ``potential`` is C(shares, t),
    priced with the price-mass check or, after a belief trade, the one
    before plus its cost. A trade to ``next`` costs next.potential - potential.
    """

    grid: OutcomeGrid
    shares: np.ndarray
    t: int
    schedule: DiscountSchedule
    prior: NormalBelief
    affine_shift: float = 0.0
    potential: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        shares = _read_only(np.array(self.shares, dtype=float))
        object.__setattr__(self, "shares", shares)
        if shares.shape != (self.grid.n,):
            raise ValidationError("share vector length must match the grid")
        if self.t < 0:
            raise ValidationError("counter must be non-negative")
        if not math.isfinite(self.affine_shift):
            raise ValidationError("affine_shift must be finite")
        half = _COVER_SIGMAS * self.prior.sigma
        tol = 1e-9 * max(1.0, half)
        if self.grid.lo > self.prior.mean - half + tol or self.grid.hi < self.prior.mean + half - tol:
            raise ValidationError(
                f"grid must span the prior mean +/- {_COVER_SIGMAS:g} standard deviations"
            )
        k = schedule_eval(self.schedule, self.t)
        potential = _checked(*_step(shares[None, :], k, self.grid.widths))
        object.__setattr__(self, "potential", float(potential[0]))


def _priced(state: MarketState, shares: np.ndarray, t: int, potential: float) -> MarketState:
    """``state`` moved to the read-only float64 inventory ``shares`` at
    counter t, whose potential C(shares, t) the caller has computed and
    checked, with ``_step`` or in closed form, so it is not priced again."""
    moved = object.__new__(MarketState)
    moved.__dict__.update(vars(state), shares=shares, t=t, potential=potential)
    return moved


@dataclass(frozen=True, eq=False)
class TradeRecord:
    """One executed trade. ``cost`` is cost_function(post, t) -
    cost_function(pre, t_pre), t_pre the counter of the preceding record
    (the opening counter for the first); a belief trade's is k(t) log M,
    equal to that to rounding (see the module docstring). The share
    vectors are the read-only arrays of the two states. ``belief`` is the
    belief a belief trade moved the market to, and None for a share-delta
    trade."""

    t: int
    pre_shares: np.ndarray
    post_shares: np.ndarray
    cost: float
    trader: str
    clipped_bins: int = 0
    belief: NormalBelief | None = None


@dataclass(frozen=True)
class SettlementReport:
    outcome: float
    outcome_bin: int
    out_of_range: bool
    payouts: dict[str, float] = field(default_factory=dict)
    collected: float = 0.0
    maker_loss: float = 0.0
    loss_bound: float = 0.0


def _binned_densities(means: np.ndarray, precision, grid: OutcomeGrid) -> np.ndarray:
    """Per-bin densities (bin mass / bin width), shape (rows, n), of the
    normal beliefs N(means[r], 1/precision), with ``precision`` one value
    for all rows or a (rows,) array of one value per row.

    A bin in the upper half of a belief (z_j + z_{j+1} > 0, z the
    standardized edges) takes its mass ndtr(-z_j) - ndtr(-z_{j+1}) from the
    reflected lower tail, where the normal CDF keeps full (denormal)
    precision instead of saturating at 1; masses stay positive out to ~38
    belief sigmas. z_j + z_{j+1} grows with j, so each row splits at one
    bin c: edges up to c get ndtr(z), the others ndtr(-z), and only edge c
    is evaluated both ways.
    """
    # Imported here so that the analytic commands never load scipy.special.
    from scipy.special import ndtr

    # A correctly rounded square root, per row or once: the same bits.
    z = (grid.edges - means[:, None]) * np.sqrt(np.reshape(precision, (-1, 1)))
    split = np.count_nonzero(z[:, :-1] + z[:, 1:] <= 0.0, axis=1)
    rows = np.flatnonzero(split < grid.n)
    at = split[rows]
    at_split = ndtr(-z[rows, at])
    upper = np.arange(grid.n + 1) > split[:, None]
    cdf = ndtr(np.negative(z, out=z, where=upper), out=z)
    mass = cdf[:, 1:] - cdf[:, :-1]
    np.subtract(cdf[:, :-1], cdf[:, 1:], out=mass, where=upper[:, 1:])
    mass[rows, at] = at_split - cdf[rows, at + 1]
    mass /= grid.widths
    return mass


def _belief_densities(means: np.ndarray, precision, grid: OutcomeGrid):
    """Beliefs binned for ``trade``, ``simulate_sessions`` and ``replay``:
    densities d floored at ``_DENSITY_FLOOR``, each row's count of floored
    bins, and its masses: ``_log_and_unit_mass`` of M = sum_j w_j d_j (the
    row sum of ``_normalizer``; k(t) log M is the row's cost), and the logs
    of its largest and smallest d, for ``_belief_flags``."""
    dens = _binned_densities(means, precision, grid)
    clipped = np.count_nonzero(dens < _DENSITY_FLOOR, axis=1)
    np.maximum(dens, _DENSITY_FLOOR, out=dens)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        extremes = np.log(np.stack((dens.max(axis=1), dens.min(axis=1)), axis=1))
        return dens, clipped, (*_log_and_unit_mass(np.sum(grid.widths * dens, axis=1)), extremes)


def binned_density(belief: NormalBelief, grid: OutcomeGrid) -> np.ndarray:
    """Per-bin density (bin mass / bin width) of a normal belief, positive
    out to ~38 belief sigmas: the one-row case of ``_binned_densities``."""
    return _binned_densities(np.array([belief.mean]), belief.precision, grid)[0]


def _log_density_and_self_score(belief: NormalBelief, grid: OutcomeGrid):
    """log of the belief's binned density floored at ``_DENSITY_FLOOR``, and
    its binned self score sum_j (density_j w_j) log density_j, from one
    binning."""
    dens = np.maximum(binned_density(belief, grid), _DENSITY_FLOOR)
    log_dens = np.log(dens)
    return log_dens, float(np.sum(dens * grid.widths * log_dens))


def binned_self_score(belief: NormalBelief, grid: OutcomeGrid) -> float:
    """Expected binned log score sum_j mass_j log density_j of the belief
    against itself; the binned analogue of the negative entropy."""
    return _log_density_and_self_score(belief, grid)[1]


# binned_self_score of market priors, keyed by (prior, lo, hi, n) so that no
# grid arrays are kept: ``open_market`` stores the score of the prior it has
# just binned, and ``settle`` computes any other, as for a replayed log, once.
# A full store starts again empty. A score depends on its key alone, so an
# entry lost to a race between threads costs only its recomputation.
_PRIOR_SCORES: dict[tuple, float] = {}
_PRIOR_SCORES_KEPT = 64


def _store_prior_score(prior: NormalBelief, grid: OutcomeGrid, score: float) -> float:
    if len(_PRIOR_SCORES) >= _PRIOR_SCORES_KEPT:
        _PRIOR_SCORES.clear()
    _PRIOR_SCORES[prior, grid.lo, grid.hi, grid.n] = score
    return score


def _prior_self_score(prior: NormalBelief, grid: OutcomeGrid) -> float:
    """``binned_self_score(prior, grid)``, binned at most once per market
    configuration: read from the store that ``open_market`` fills."""
    score = _PRIOR_SCORES.get((prior, grid.lo, grid.hi, grid.n))
    if score is None:
        score = _store_prior_score(prior, grid, binned_self_score(prior, grid))
    return score


def _normalizer(shares: np.ndarray, k, widths: np.ndarray):
    """For each row s of ``shares`` (rows, n) at level k = k(t), one scalar
    for all rows or a (rows,) array of one level per row: the largest
    s_j / k, top, the exponentials e_j = exp(s_j / k - top), and the
    normalizer total = sum_j w_j e_j. The price densities are e / total, so
    their width-weighted mass is 1 by construction."""
    z = shares / (k[:, None] if isinstance(k, np.ndarray) else k)
    top = z.max(axis=1)
    z -= top[:, None]
    e = np.exp(z, out=z)
    return top, e, np.sum(widths * e, axis=1)


def _log_and_unit_mass(total: np.ndarray):
    """``math.log`` of each normalizer of ``total`` (0 gives -inf; np.log can
    differ in the last bit), and the unit-mass flag: prices over ``total``
    have mass 1 by construction when it and 1 / total are finite."""
    log_total = np.array([math.log(v) if v else -math.inf for v in total.tolist()])
    return log_total, np.isfinite(total) & np.isfinite(1.0 / total)


def _step(post: np.ndarray, k, widths: np.ndarray):
    """The market step: C(post, t) = k (top + log total) of each row of
    ``post`` (rows, n) at level k = k(t), one scalar or one per row,
    evaluated stably, and a MarketState's checks as two flags per row:
    finite shares, and ``_log_and_unit_mass``'s unit price mass, which a NaN
    or an overflow, as from an s / k that overflows, fails. Nothing warns.
    (Only terms w_j e_j that round to subnormals move the computed mass
    sum_j (e_j / total) w_j by more than a few ulps, and by more than 1e-10
    only when the normalizer is below n * 2.5e-314.)"""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        top, _, total = _normalizer(post, k, widths)
        # A grid whose zero-width bins hold every price that does not
        # underflow has a zero normalizer.
        log_total, unit_mass = _log_and_unit_mass(total)
        return k * (top + log_total), np.isfinite(post).all(axis=1), unit_mass


def _checked(potential, finite, unit_mass) -> np.ndarray:
    """``potential`` with the flags of ``_step`` or ``_belief_flags``,
    raising ValidationError when a row's shares are not finite and
    NumericError when its prices have no unit mass or its potential
    overflows."""
    if not finite.all():
        raise ValidationError("shares must be finite")
    if not unit_mass.all():
        raise NumericError("width-weighted prices failed to sum to 1")
    if not np.isfinite(potential).all():
        raise NumericError("the potential C(post, t) overflows")
    return potential


def _belief_inventories(k, log_dens: np.ndarray, before) -> np.ndarray:
    """Hanson's rule: k(t) log(binned density) + C before the trade moves
    the prices to the belief of each row of ``log_dens`` at the pure
    re-pricing cost. An overflow is left for ``_belief_flags`` to flag."""
    with np.errstate(over="ignore"):
        return k * log_dens + before


def _belief_flags(masses, k, before):
    """``_step``'s two flags of the inventories k log d + C, C = ``before``,
    of the beliefs of ``masses`` at level k = k(t), not built; k, C and the
    masses share leading axes. Rounding is monotone, so k log d + C and its
    quotient by k are finite over a row exactly when they are at its
    extremes; prices d / M then have unit mass if M's do."""
    _, unit_mass, extremes = masses
    k, before = np.expand_dims(k, -1), np.expand_dims(before, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        post = _belief_inventories(k, extremes, before)
        return np.isfinite(post).all(axis=-1), unit_mass & np.isfinite(post / k).all(axis=-1)


def cost_function(
    shares: Sequence[float], t: int, schedule: DiscountSchedule, grid: OutcomeGrid
) -> float:
    """C(s, t) = k(t) log sum_j w_j exp(s_j / k(t)), evaluated stably."""
    s = np.asarray(shares, dtype=float)
    if s.shape != (grid.n,):
        raise ValidationError("share vector length must match the grid")
    return float(_checked(*_step(s[None, :], schedule_eval(schedule, t), grid.widths))[0])


def prices(state: MarketState) -> np.ndarray:
    """Instantaneous price density of every bin."""
    k = schedule_eval(state.schedule, state.t)
    _, e, total = _normalizer(state.shares[None, :], k, state.grid.widths)
    return e[0] / total[0]


def price(state: MarketState, bin_index: int) -> float:
    """Instantaneous price density of one bin."""
    if not 0 <= bin_index < state.grid.n:
        raise ValidationError("bin index out of range")
    return float(prices(state)[bin_index])


def open_market(
    prior: NormalBelief,
    schedule: DiscountSchedule,
    n_bins: int = 512,
    affine_shift: float = 0.0,
) -> MarketState:
    """Fresh market at counter 0 whose opening prices equal the binned prior
    density, on ``OutcomeGrid.from_prior(prior, n_bins)``.

    The opening inventory k(0) log(prior density) gives C(s0, 0) = 0, so
    collected costs telescope against the prior from the first trade on.
    The returned state is immutable: any number of sessions may trade from
    it, and ``potential`` is computed once for all of them. The prior is
    binned once, for the inventory and for the prior's binned self score,
    which is stored for ``settle``.
    """
    grid = OutcomeGrid.from_prior(prior, n=n_bins)
    log_dens, score = _log_density_and_self_score(prior, grid)
    _store_prior_score(prior, grid, score)
    return MarketState(
        grid=grid,
        shares=_belief_inventories(schedule_eval(schedule, 0), log_dens, 0.0),
        t=0,
        schedule=schedule,
        prior=prior,
        affine_shift=affine_shift,
    )


def trade(
    state: MarketState,
    target: NormalBelief | Sequence[float],
    trader: str = "anon",
    t: int | None = None,
) -> tuple[MarketState, TradeRecord]:
    """Execute one atomic trade, returning the new state and its record.

    ``target`` is either a share-delta vector added to the inventory or a
    NormalBelief the market is moved to. The trade executes at counter
    ``t`` (default: the next counter); the counter never regresses. It costs
    C(post, t) - C(pre, t_pre), t_pre = state.t: for a belief, k(t) log M.
    """
    t_new = state.t + 1 if t is None else t
    if not isinstance(t_new, int) or isinstance(t_new, bool):
        raise ValidationError("counter must be an integer")
    if t_new < state.t:
        raise ValidationError(f"counter may not regress ({t_new} < {state.t})")

    k_new = schedule_eval(state.schedule, t_new)
    clipped, belief = 0, None
    if isinstance(target, NormalBelief):
        dens, clips, masses = _belief_densities(np.array([target.mean]), target.precision,
                                                state.grid)
        clipped = int(clips[0])
        if clipped:
            warnings.warn(f"belief density clipped to {_DENSITY_FLOOR:g} on {clipped} bins",
                          RuntimeWarning, stacklevel=2)
        cost = k_new * masses[0].item()  # Python floats overflow without a warning.
        potential = state.potential + cost
        _checked(np.array(potential), *_belief_flags(masses, k_new, state.potential))
        post = _belief_inventories(k_new, np.log(dens[0]), state.potential)
        belief = target
    else:
        delta = np.asarray(target, dtype=float)
        if delta.shape != (state.grid.n,):
            raise ValidationError("share delta length must match the grid")
        if not np.all(np.isfinite(delta)):
            raise ValidationError("share delta must be finite")
        post = state.shares + delta
        potential = _checked(*_step(post[None, :], k_new, state.grid.widths)).item()
        cost = potential - state.potential

    new_state = _priced(state, _read_only(post), t_new, potential)
    record = TradeRecord(
        t=t_new,
        pre_shares=state.shares,
        post_shares=new_state.shares,
        cost=cost,
        trader=str(trader),
        clipped_bins=clipped,
        belief=belief,
    )
    return new_state, record


def settle(
    state: MarketState, outcome: float, records: Sequence[TradeRecord] = ()
) -> SettlementReport:
    """Resolve the market at the outcome and account the maker's loss.

    Each trader is paid their net acquired shares in the outcome's bin.
    Outcomes outside the grid settle to the nearest edge bin and are
    flagged. For belief trades the maker's loss telescopes to
    k(T) log m_T[x] - k(0) log m_0[x] (m_T the last belief's binned
    density, m_0 the prior's, T = ``state.t``), so when every traded
    belief's binned log density is at most ``affine_shift`` the expected
    loss under the prior is at most the reported bound
    k(T) affine_shift - k(0) binned_self_score(prior, grid). The self score
    of a market from ``open_market`` is the one it stored when it binned the
    prior; any other (prior, grid), as a replayed log's, is binned here once
    and stored.
    """
    idx, out_of_range = state.grid.locate(outcome)
    payouts, collected, maker_loss = _account(
        [rec.trader for rec in records],
        [rec.post_shares.item(idx) - rec.pre_shares.item(idx) for rec in records],
        [rec.cost for rec in records],
    )
    k0 = schedule_eval(state.schedule, 0)
    k_final = schedule_eval(state.schedule, state.t)
    shift = state.affine_shift
    # Grouped so that k(T) = k(0) rounds exactly like -k(0) (S - shift).
    bound = -k0 * (_prior_self_score(state.prior, state.grid) - shift)
    bound += (k_final - k0) * shift
    return SettlementReport(
        outcome=float(outcome),
        outcome_bin=idx,
        out_of_range=out_of_range,
        payouts=payouts,
        collected=collected,
        maker_loss=maker_loss,
        loss_bound=bound,
    )


def _account(traders, nets, costs):
    """(payouts, collected, maker_loss) of trades by ``traders`` that
    acquired ``nets`` shares in the outcome's bin at ``costs``: each
    trader's nets summed in trade order, the costs summed in trade order,
    and the maker's loss, the payouts' sum less the collected costs. The
    nets and costs are floats, or arrays with one entry per session.
    """
    payouts = {}
    collected = 0.0
    for trader, net, cost in zip(traders, nets, costs):
        payouts[trader] = payouts.get(trader, 0.0) + net
        collected = collected + cost
    return payouts, collected, sum(payouts.values()) - collected


@dataclass(frozen=True, eq=False)
class SessionBatch:
    """Sessions run by ``simulate_sessions``. Row i of each array is session
    i; ``costs`` and ``clipped_bins`` have one column per trade. ``records``
    and ``settlement`` are the last session's, settled through ``settle``."""

    maker_loss: np.ndarray
    costs: np.ndarray
    clipped_bins: np.ndarray
    records: tuple[TradeRecord, ...]
    settlement: SettlementReport


# The traders of a simulated session's three trades, in trade order.
_TRADERS = ("alice", "bob", "alice")


def simulate_sessions(opening: MarketState, model: SignalModel, worlds) -> SessionBatch:
    """Run one truthful Alice-Bob-Alice session per world from ``opening``.

    ``worlds`` is (outcomes, a0, b0), three equal-length 1-D arrays such as
    ``game.draw_worlds`` returns. Session i, with t = ``opening.t``, is

        s1, r1 = trade(opening, posterior_single(model, a0[i]), "alice", t + 1)
        s2, r2 = trade(s1, posterior_pair(model, a0[i], b0[i]), "bob", t + 2)
        s3, r3 = trade(s2, posterior_pair(model, a0[i], b0[i]), "alice", t + 3)
        settle(s3, outcomes[i], [r1, r2, r3])

    evaluated on (block, n) arrays of at most ``_BLOCK_ELEMENTS`` elements,
    whatever the number of sessions, with the same floating-point
    operations in the same order, so each row equals its chain exactly.
    Every row passes ``trade``'s checks. A block's single and pooled
    beliefs are binned in one ``_belief_densities`` call, one precision per
    row, and the pooled belief once for both of its trades. Each trade's
    cost is k(t) log M, and of a session's inventories only the outcome bin
    is built, but for the last session's records. Clipped belief bins are
    counted per trade, and one RuntimeWarning reports their total.
    """
    outcomes, a0, b0 = _as_worlds(worlds)
    # The check below refuses the means that overflow here.
    with np.errstate(over="ignore", invalid="ignore"):
        single, pooled = model.single_mean(a0), model.pair_mean(a0, b0)
    for means, precision in ((single, model.tau_single), (pooled, model.tau_pool)):
        if not (np.isfinite(means).all() and 0.0 < precision < math.inf):
            raise ValidationError("posterior beliefs need finite means and precisions")
    grid, count = opening.grid, outcomes.size
    index, _ = grid.locate_all(outcomes)
    counters = tuple(opening.t + j for j in (1, 2, 3))
    levels = np.array([schedule_eval(opening.schedule, t) for t in counters])

    maker_loss = np.empty(count)
    costs = np.empty((count, 3))
    clipped = np.empty((count, 3), dtype=np.intp)
    # The last session's beliefs, states and records, built in its block.
    pooled_belief = NormalBelief(float(pooled[-1]), model.tau_pool)
    beliefs = (NormalBelief(float(single[-1]), model.tau_single), pooled_belief, pooled_belief)
    state, records = opening, []
    block = max(1, _BLOCK_ELEMENTS // grid.n)
    for start in range(0, count, block):
        rows = slice(start, start + block)
        at = index[rows]
        # The block's single beliefs, then its pooled ones, and the row of
        # each session's three trades.
        dens, clips, masses = _belief_densities(
            np.concatenate((single[rows], pooled[rows])),
            np.repeat([model.tau_single, model.tau_pool], at.size), grid)
        trades = np.arange(at.size)[:, None] + [0, at.size, at.size]
        clipped[rows] = clips[trades]
        with np.errstate(over="ignore", invalid="ignore"):
            costs[rows] = levels * masses[0][trades]
            # The potential before each trade and after the last, in trade order.
            chain = np.cumsum(np.column_stack((np.full(at.size, opening.potential), costs[rows])),
                              axis=1)
        _checked(chain[:, 1:], *_belief_flags([m[trades] for m in masses], levels, chain[:, :-1]))
        held = _belief_inventories(levels, np.log(dens[trades, at[:, None]]), chain[:, :-1])
        nets = np.diff(held, axis=1, prepend=opening.shares[at][:, None])
        if start + block >= count:
            for j, (t, row, belief) in enumerate(zip(counters, trades[-1], beliefs)):
                post = _belief_inventories(levels[j], np.log(dens[row]), chain[-1, j])
                moved = _priced(state, _read_only(post), t, chain[-1, j + 1].item())
                records.append(TradeRecord(
                    t=t, pre_shares=state.shares, post_shares=moved.shares,
                    cost=costs[-1, j].item(), trader=_TRADERS[j],
                    clipped_bins=int(clipped[-1, j]), belief=belief))
                state = moved
        maker_loss[rows] = _account(_TRADERS, nets.T, costs[rows].T)[2]

    total = int(clipped.sum())
    if total:
        warnings.warn(
            f"belief density clipped to {_DENSITY_FLOOR:g} on {total} bins in "
            f"{np.count_nonzero(clipped.any(axis=1))} of {count} sessions",
            RuntimeWarning,
            stacklevel=2,
        )
    for array in (maker_loss, costs, clipped):
        _read_only(array)
    return SessionBatch(
        maker_loss=maker_loss,
        costs=costs,
        clipped_bins=clipped,
        records=tuple(records),
        settlement=settle(state, float(outcomes[-1]), records),
    )


# ---------------------------------------------------------------------------
# Trade log serialization and replay.
#
# Line-delimited JSON: one header object, one object per trade, optionally
# one settlement object as the last line. Format version 3 logs a belief
# trade by its belief, from which replay rebuilds the post-trade inventory
# exactly as ``trade`` built it, and any other trade by its post-trade
# inventory. No record logs its pre-trade inventory: that is the inventory
# the record before it left. Inventories (the header's ``s0`` and a record's
# ``post``) are base64 text of their little-endian float64 bytes: the exact
# bit pattern. Every other float is a JSON number, which Python writes by
# repr and reads back exactly, so replaying a file on the writer's numpy
# code path reproduces every cost check and report byte for byte. Replay
# reads this format only: a header of any other version is refused.


def _encode_shares(shares: np.ndarray) -> str:
    """Base64 text of an inventory's little-endian float64 bytes."""
    return base64.b64encode(shares.astype("<f8", copy=False).tobytes()).decode("ascii")


def _decode_shares(value, key: str, n: int) -> np.ndarray:
    """Logged inventory ``value`` of field ``key``, base64 float64 text, as
    a read-only array of n finite floats."""
    if not isinstance(value, str):
        raise TypeError(f"field {key!r} must be base64 text, not {type(value).__name__}")
    try:
        raw = base64.b64decode(value, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"field {key!r} is not valid base64: {exc}") from None
    if len(raw) != 8 * n:
        raise ValueError(f"field {key!r} holds {len(raw)} bytes, not 8 * {n}")
    shares = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(shares).all():
        raise ValueError(f"field {key!r} holds a non-finite value")
    return shares


def log_header(state: MarketState) -> dict:
    """Header describing the market configuration and opening inventory."""
    return {
        "format": _LOG_FORMAT,
        "version": _LOG_VERSION,
        "grid": {"lo": state.grid.lo, "hi": state.grid.hi, "n": state.grid.n},
        "schedule": state.schedule.to_config(),
        "prior": {"mean": state.prior.mean, "precision": state.prior.precision},
        "affine_shift": state.affine_shift,
        "t0": state.t,
        "s0": _encode_shares(state.shares),
    }


def record_to_json(index: int, rec: TradeRecord) -> dict:
    """Record number ``index``: a belief trade with its ``belief``, any
    other trade with its ``post`` inventory."""
    obj = {
        "i": index,
        "t": rec.t,
        "trader": rec.trader,
        "cost": rec.cost,
        "clipped_bins": rec.clipped_bins,
    }
    if rec.belief is None:
        obj["post"] = _encode_shares(rec.post_shares)
    else:
        obj["belief"] = {"mean": float(rec.belief.mean), "precision": float(rec.belief.precision)}
    return obj


def settlement_to_json(report: SettlementReport) -> dict:
    return {
        "settlement": {
            "outcome": report.outcome,
            "outcome_bin": report.outcome_bin,
            "out_of_range": report.out_of_range,
            "payouts": dict(sorted(report.payouts.items())),
            "collected": report.collected,
            "maker_loss": report.maker_loss,
            "loss_bound": report.loss_bound,
        }
    }


def write_log(
    path,
    opening: MarketState,
    records: Sequence[TradeRecord],
    report: SettlementReport | None = None,
) -> None:
    """Write a version-3 log: the header, one line per record and the
    settlement, if any. Each line is ``json.dumps`` of ``log_header``,
    ``record_to_json`` or ``settlement_to_json`` with sorted keys. The
    inventory text (the header's ``s0`` and a record's ``post``) is not
    re-encoded: see ``_log_line``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_log_line(log_header(opening), "s0"))
        for i, rec in enumerate(records):
            fh.write(_log_line(record_to_json(i, rec), "post"))
        if report is not None:
            fh.write(json.dumps(settlement_to_json(report), sort_keys=True) + "\n")


def _log_line(obj: dict, inventory: str) -> str:
    """``json.dumps(obj, sort_keys=True)`` and a newline, where field
    ``inventory`` of ``obj``, if present, is base64 text. JSON writes base64
    text as it is, so the text is spliced into the line instead of passing
    through the string encoder. The fields that sort before it in a header
    or a record are numbers and fixed text, so the first ``"<inventory>": ""``
    of the line dumped with an empty inventory is that field."""
    text = obj.get(inventory)
    if text is None:
        return json.dumps(obj, sort_keys=True) + "\n"
    empty = f'"{inventory}": ""'
    head, tail = json.dumps({**obj, inventory: ""}, sort_keys=True).split(empty, 1)
    return f'{head}"{inventory}": "{text}"{tail}\n'


_RECORD_FIELDS = frozenset(("i", "t", "trader", "cost", "clipped_bins", "belief", "post"))


def _known(obj: dict, fields, where: str) -> dict:
    """``obj``, refusing a field ``write_log`` never writes: any not in ``fields``."""
    if not obj.keys() <= fields:
        raise ValueError(f"{where} holds an unknown field {min(obj.keys() - fields)!r}")
    return obj


def _opening_state(header: dict) -> MarketState:
    """The opening state of a version-3 header."""
    if header.get("format") != _LOG_FORMAT:
        raise ValueError(f"missing market header: field 'format' must be {_LOG_FORMAT!r}")
    version = _field(header, "version", "", _json_int)
    if version != _LOG_VERSION:
        raise ValueError(f"unsupported log version {version!r}: replay reads version "
                         f"{_LOG_VERSION} only")
    _known(header, {"format", "version", "grid", "schedule", "prior", "affine_shift", "t0", "s0"},
           "the header")
    grid_rec = _known(_field(header, "grid", "", _object), {"lo", "hi", "n"}, "field 'grid'")
    grid = OutcomeGrid(_field(grid_rec, "lo", "", _real), _field(grid_rec, "hi", "", _real),
                       _field(grid_rec, "n", "", _json_int))
    return MarketState(
        grid=grid,
        shares=_decode_shares(header["s0"], "s0", grid.n),
        t=_field(header, "t0", "", _json_int),
        schedule=DiscountSchedule.from_config(_known(_field(header, "schedule", "", _object), {
            "kind", "k0", "decay", "resets"}, "field 'schedule'"), ""),
        prior=_logged_belief(_field(header, "prior", "", _object), "prior"),
        affine_shift=float(_field(header, "affine_shift", "", _real)),
    )


class _Logged(NamedTuple):
    """A trade as read from line ``lineno``, before it is verified. ``k`` is
    the level k(t) at its counter. ``post`` is its logged post-trade
    inventory, or None for a belief trade, whose inventory replay rebuilds
    from ``belief``."""

    lineno: int
    t: int
    k: float
    cost: float
    trader: str
    clipped_bins: int
    belief: NormalBelief | None
    post: np.ndarray | None


def _logged_belief(value: dict, key: str) -> NormalBelief:
    """The logged belief object ``value`` of field ``key``: a finite mean and
    a positive, finite precision, as JSON numbers, and no other field."""
    _known(value, {"mean", "precision"}, f"field {key!r}")
    mean = float(_field(value, "mean", "", _real))
    precision = float(_field(value, "precision", "", _real))
    if precision <= 0.0:
        raise ValueError(f"field 'precision' must be positive, not {precision!r}")
    return NormalBelief(mean, precision)


def _logged_trade(
    obj: dict, lineno: int, opening: MarketState, before: Sequence[_Logged]
) -> _Logged:
    """The logged trade read from line ``lineno`` of a log opening at
    ``opening``, after the trades ``before``, checked field by field. Its
    cost, and a belief trade's clipped bins, are left to ``_verify_block``."""
    t_pre = before[-1].t if before else opening.t
    number = _field(obj, "i", "", _json_int)
    if number != len(before):
        raise ValueError(f"record number {number} is out of sequence")
    t_new = _field(obj, "t", "", _json_int)
    if t_new < t_pre:
        raise ValueError("counter regressed")
    k = schedule_eval(opening.schedule, t_new)
    belief, post = None, None
    if "belief" not in obj:
        post = _decode_shares(obj["post"], "post", opening.grid.n)
    elif "post" in obj:
        raise ValueError("field 'post' must be absent from a belief trade")
    else:
        belief = _logged_belief(_field(obj, "belief", "", _object), "belief")
    cost = float(_field(obj, "cost", "", _real))
    trader = _field(obj, "trader", "", _text)
    clipped = _field(obj, "clipped_bins", "", _json_int, 0)
    if clipped < 0:
        raise ValueError(f"field 'clipped_bins' must be non-negative, not {clipped}")
    _known(obj, _RECORD_FIELDS, "the record")
    return _Logged(lineno, t_new, k, cost, trader, clipped, belief, post)


def _verify_block(
    block: Sequence[_Logged], start: int, state: MarketState
) -> tuple[list[TradeRecord], MarketState]:
    """Verify the logged trades ``block``, record numbers ``start`` on, which
    trade from ``state``. Returns their TradeRecords and the state the last
    of them leaves, priced with the potential computed here.

    Beliefs cost k(t) log M, as in ``trade``; ``post`` inventories are
    priced in one ``_step`` call. A running sum of the costs, restarted at
    each ``post``, gives each row's potential before it, and so each belief
    inventory, built after ``_checked``'s checks, the costs within 1e-10 and
    the clipped bins. Raises LogConsistencyError naming the first faulty
    record, without warning."""
    grid, rows = state.grid, len(block)
    levels = np.array([entry.k for entry in block])
    logged_costs = [entry.cost for entry in block]
    logged_clips = [entry.clipped_bins for entry in block]
    posts = [entry.post for entry in block]
    rebuilt = [row for row, post in enumerate(posts) if post is None]
    priced = [row for row, post in enumerate(posts) if post is not None]
    finite, unit_mass = np.ones((2, rows), dtype=bool)
    clips, costs, stepped = np.array(logged_clips), np.empty(rows), np.empty(rows)
    with np.errstate(over="ignore", invalid="ignore"):
        if rebuilt:
            dens, clips[rebuilt], masses = _belief_densities(
                np.array([block[row].belief.mean for row in rebuilt]),
                np.array([block[row].belief.precision for row in rebuilt]), grid)
            costs[rebuilt] = levels[rebuilt] * masses[0]
        if priced:
            stepped[priced], finite[priced], unit_mass[priced] = _step(
                np.array([posts[row] for row in priced]), levels[priced], grid.widths)
        # The potential after each row, and so before the next.
        after, potential = [], state.potential
        for post, cost, at_post in zip(posts, costs.tolist(), stepped.tolist()):
            potential = potential + cost if post is None else at_post
            after.append(potential)
        before, after = np.array([state.potential, *after[:-1]]), np.array(after)
        costs[priced] = after[priced] - before[priced]
        bad_cost = ~(np.abs(costs - logged_costs) <= _COST_TOL)
        if rebuilt:
            finite[rebuilt], unit_mass[rebuilt] = _belief_flags(
                masses, levels[rebuilt], before[rebuilt])
    misclipped = clips != logged_clips
    overflows = ~np.isfinite(after)
    faulty = misclipped | ~finite | ~unit_mass | overflows | bad_cost
    if faulty.any():
        row = int(faulty.argmax())
        if misclipped[row]:
            message = (f"field 'clipped_bins' is {logged_clips[row]}, but the belief clips "
                       f"{clips[row]} bins")
        elif not finite[row]:
            message = "field 'belief' rebuilds an inventory that is not finite"
        elif not unit_mass[row]:
            message = "width-weighted prices failed to sum to 1"
        elif overflows[row]:
            message = "the potential C(post, t) overflows"
        else:
            cost = float(costs[row])
            message = f"logged cost {block[row].cost!r} differs from recomputed {cost!r}"
        raise LogConsistencyError(f"line {block[row].lineno}: {message}", start + row)
    if rebuilt:
        built = _read_only(_belief_inventories(
            levels[rebuilt, None], np.log(dens, out=dens), before[rebuilt, None]))
        for row, post in zip(rebuilt, built):
            posts[row] = post
    # TradeRecord runs no checks, so its fields are set directly, as
    # ``_priced`` sets a state's, without the frozen dataclass's __init__.
    records = []
    for entry, pre, post in zip(block, [state.shares, *posts[:-1]], posts):
        record = object.__new__(TradeRecord)
        record.__dict__.update(t=entry.t, pre_shares=pre, post_shares=post, cost=entry.cost,
                               trader=entry.trader, clipped_bins=entry.clipped_bins,
                               belief=entry.belief)
        records.append(record)
    return records, _priced(state, posts[-1], block[-1].t, float(after[-1]))


def _replay_settlement(
    state: MarketState, records: Sequence[TradeRecord], logged: dict
) -> SettlementReport:
    """Settle at the logged outcome. Each logged amount (``collected``,
    ``maker_loss``, ``loss_bound`` and every payout) must be a JSON float
    within ``_COST_TOL`` of the recomputed one, as costs are; every other
    field, the payouts' traders included, must equal the recomputed one
    exactly, in type and repr, as ``write_log`` serializes it; and a field
    ``write_log`` never writes is refused, whatever it holds."""
    report = settle(state, float(_field(logged, "outcome", "", _real)), records)
    want = settlement_to_json(report)["settlement"]
    for key in sorted(_known(logged, want.keys(), "field 'settlement'").keys() | want.keys()):
        got, expected = logged.get(key), want[key]
        if key == "payouts":
            same = (isinstance(got, dict) and got.keys() == expected.keys()
                    and all(_near(got[trader], expected[trader]) for trader in expected))
        elif key in ("collected", "maker_loss", "loss_bound"):
            same = _near(got, expected)
        else:
            # The exact fields are a float, an int and a bool: JSON writes
            # them as their repr, and the type tells 3 from 3.0 and 0 from false.
            same = type(got) is type(expected) and repr(got) == repr(expected)
        if not same:
            raise ValueError(f"settlement {key} {got!r} differs from recomputed {expected!r}")
    return report


def _near(got, expected: float) -> bool:
    """A logged amount: a JSON float equal to ``expected`` (an infinite
    bound included) or within ``_COST_TOL`` of it."""
    return type(got) is float and (got == expected or abs(got - expected) <= _COST_TOL)


# What reading or settling one line of a log may raise: replay names the line.
_LINE_FAULTS = (KeyError, TypeError, ValueError, ArithmeticError, RecursionError)


def replay(
    lines: Iterable[str | bytes],
) -> tuple[MarketState, list[TradeRecord], SettlementReport | None]:
    """Re-execute a trade log, verifying it is self-consistent.

    Reads log format version 3, the one ``write_log`` writes, parsing each
    line by one ``json.loads``, and refuses a header of any other
    ``version`` and any field ``write_log`` never writes. Checks per record
    that its number ``i`` is its position, the counter does not regress, a
    belief trade's clipped-bin count equals the one its belief gives, and
    the logged cost matches the recomputed one (k(t) log M for a belief
    trade, C(post, t) - C(pre, t_pre) for any other) within 1e-10; and that
    a settlement, if any, is the last non-blank line and agrees with the
    one recomputed at its outcome: each amount within 1e-10, every other
    field exactly. A belief trade's inventory is rebuilt from its belief
    with ``trade``'s arithmetic, bit for bit on the writer's numpy path.
    Counters, record numbers and clipped-bin counts (at least 0) must be
    JSON integers, traders strings, and every other number (a positive
    precision) a JSON number that a finite float holds: no boolean or
    string passes for a number. A record holds a ``belief`` object or a
    ``post`` inventory, not both. Every inventory (``s0`` and each ``post``)
    must be padded base64 of ``n`` finite float64s. Any inconsistent or
    malformed line (text that is not UTF-8 or is nested too deeply
    included) raises LogConsistencyError naming the line, the number of
    records verified before it and any missing or mistyped field (read by
    ``errors._field``). Returns the final state, the verified records, and
    the recomputed settlement if logged.

    Replay proves that a log agrees with itself, not that it is the one
    traded: nothing ties ``s0`` to the prior and schedule, and a belief
    inside the grid costs k(t) log M, about 0, whatever k is, so an edited
    schedule or belief shows only at a settlement line, if any.

    It parses every line up to the first faulty one, evaluating each
    record's level k(t), which must not round to 0; verifies the records in
    blocks of at most ``_BLOCK_ELEMENTS`` inventory elements (see
    ``_verify_block``); and settles. Only then does it raise the fault of
    the line that failed to parse, so an earlier fault is the one named.
    """
    opening, entries, settlement, fault = None, [], None, None
    for lineno, line in enumerate(lines, 1):
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            if not line or line.isspace():
                continue
            obj = _object(json.loads(line))
            if opening is None:
                opening = _opening_state(obj)
            elif settlement is not None:
                raise ValueError("the settlement must be the last line")
            elif "settlement" in obj:
                settlement = lineno, _field(obj, "settlement", "", _object)
            else:
                entries.append(_logged_trade(obj, lineno, opening, entries))
        except _LINE_FAULTS as exc:
            fault = lineno, exc
            break
    if opening is None and fault is None:
        raise LogConsistencyError("empty log has no header", index=0)
    state, records, report = opening, [], None
    if entries:
        block = max(1, _BLOCK_ELEMENTS // opening.grid.n)
        for start in range(0, len(entries), block):
            verified, state = _verify_block(entries[start : start + block], start, state)
            records += verified
    if settlement is not None:
        try:
            report = _replay_settlement(state, records, settlement[1])
        except _LINE_FAULTS as exc:
            fault = settlement[0], exc
    if fault is not None:
        lineno, exc = fault
        message = f"field {exc} is missing" if isinstance(exc, KeyError) else exc
        raise LogConsistencyError(f"line {lineno}: {message}", len(records)) from exc
    return state, records, report

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

One market step prices and checks every inventory on (rows, bins) arrays:
finite shares, and a width-weighted price mass of 1 within 1e-10, which a
NaN mass fails. ``simulate_sessions`` runs it on blocks of sessions and
``replay`` on blocks of records; ``trade``, ``cost_function`` and
``MarketState`` are its one-row case.

A trade to a belief moves the market to that belief, as in Hanson's market
scoring rule: the post-trade inventory is k(t) log(binned density) plus the
potential before the trade. So the trade log (format version 3) records a
belief trade by its belief (mean, precision) and only any other trade by its
post-trade inventory. ``replay`` reads a log one line at a time but verifies
it in blocks: it bins the beliefs of many records in one density call,
rebuilds their inventories with ``trade``'s arithmetic bit for bit, and
prices a block's inventories in one step, with one level k(t) per
row and the potential before each rebuilt inventory guessed from the logged
costs. It still names the first faulty line. Every number it reads must be
a JSON number; it takes no boolean or string for one.
"""

from __future__ import annotations

import base64
import binascii
import bisect
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
from .errors import _field, _is_real, _json_int, _object, _real, _text
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
_MASS_TOL = 1e-10

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
    computed with the price-mass check; a trade to ``next`` costs
    next.potential - potential.
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
        potential = _checked_step(shares[None, :], k, self.grid.widths)
        object.__setattr__(self, "potential", float(potential[0]))


def _priced(state: MarketState, shares: np.ndarray, t: int, potential: float) -> MarketState:
    """``state`` moved to the read-only float64 inventory ``shares`` at
    counter t, whose potential C(shares, t) the caller has computed and
    checked with ``_step``, so it is not priced a second time."""
    moved = object.__new__(MarketState)
    moved.__dict__.update(vars(state), shares=shares, t=t, potential=potential)
    return moved


@dataclass(frozen=True, eq=False)
class TradeRecord:
    """One executed trade. ``cost`` always equals
    cost_function(post, t) - cost_function(pre, t_pre) with t_pre the
    counter of the preceding record (the opening counter for the first).
    The share vectors are the read-only arrays of the two states.
    ``belief`` is the belief a belief trade moved the market to, and None
    for a share-delta trade."""

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


def _log_densities(
    means: np.ndarray, precision, grid: OutcomeGrid
) -> tuple[np.ndarray, np.ndarray]:
    """log of the binned densities floored at ``_DENSITY_FLOOR``, and the
    number of floored bins of each row; ``precision`` as for
    ``_binned_densities``. ``trade``, ``open_market``,
    ``simulate_sessions`` and ``replay`` all bin beliefs here."""
    dens = _binned_densities(means, precision, grid)
    clipped = np.count_nonzero(dens < _DENSITY_FLOOR, axis=1)
    return np.log(np.maximum(dens, _DENSITY_FLOOR, out=dens), out=dens), clipped


def binned_density(belief: NormalBelief, grid: OutcomeGrid) -> np.ndarray:
    """Per-bin density (bin mass / bin width) of a normal belief, positive
    out to ~38 belief sigmas: the one-row case of ``_binned_densities``."""
    return _binned_densities(np.array([belief.mean]), belief.precision, grid)[0]


def binned_self_score(belief: NormalBelief, grid: OutcomeGrid) -> float:
    """Expected binned log score sum_j mass_j log density_j of the belief
    against itself; the binned analogue of the negative entropy."""
    dens = np.maximum(binned_density(belief, grid), _DENSITY_FLOOR)
    mass = dens * grid.widths
    return float(np.sum(mass * np.log(dens)))


@functools.lru_cache(maxsize=64)
def _prior_self_score(prior: NormalBelief, lo: float, hi: float, n: int) -> float:
    """``binned_self_score`` of a market's prior, computed once per market
    configuration; keyed by the grid's fields so no grid arrays are kept."""
    return binned_self_score(prior, OutcomeGrid(lo, hi, n))


def _potentials(shares: np.ndarray, k, widths: np.ndarray):
    """For each row s of ``shares`` (rows, n) at level k = k(t), one scalar
    for all rows or a (rows,) array of one level per row: the potential
    C(s, t) = k log sum_j w_j exp(s_j / k), evaluated stably, the price
    densities, and the width-weighted price mass (1 up to rounding)."""
    z = shares / (k[:, None] if isinstance(k, np.ndarray) else k)
    top = z.max(axis=1)
    z -= top[:, None]
    e = np.exp(z, out=z)
    total = np.sum(widths * e, axis=1)
    dens = np.divide(e, total[:, None], out=e)
    # math.log, not np.log: the two can differ in the last bit.
    log_total = np.array([math.log(v) for v in total.tolist()])
    return k * (top + log_total), dens, np.sum(dens * widths, axis=1)


def _step(post: np.ndarray, k, widths: np.ndarray):
    """The market step: C(post, t) of each row of ``post`` (rows, n) at
    level k = k(t), one scalar or one per row, and a MarketState's checks as
    two flags per row: finite shares, and price mass within 1e-10 of 1 (a
    NaN mass, as from an s / k that overflows, fails), without warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        potential, _, mass = _potentials(post, k, widths)
        return potential, np.isfinite(post).all(axis=1), np.abs(mass - 1.0) <= _MASS_TOL


def _checked_step(post: np.ndarray, k, widths: np.ndarray) -> np.ndarray:
    """``_step``'s potentials, raising ValidationError when a row's shares
    are not finite and NumericError when its price mass is not 1 or its
    potential overflows."""
    potential, finite, unit_mass = _step(post, k, widths)
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
    re-pricing cost. An overflow is left for ``_step`` to flag."""
    with np.errstate(over="ignore"):
        return k * log_dens + before


def cost_function(
    shares: Sequence[float], t: int, schedule: DiscountSchedule, grid: OutcomeGrid
) -> float:
    """C(s, t) = k(t) log sum_j w_j exp(s_j / k(t)), evaluated stably."""
    s = np.asarray(shares, dtype=float)
    if s.shape != (grid.n,):
        raise ValidationError("share vector length must match the grid")
    return float(_checked_step(s[None, :], schedule_eval(schedule, t), grid.widths)[0])


def prices(state: MarketState) -> np.ndarray:
    """Instantaneous price density of every bin."""
    k = schedule_eval(state.schedule, state.t)
    return _potentials(state.shares[None, :], k, state.grid.widths)[1][0]


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
    it, and ``potential`` is computed once for all of them.
    """
    grid = OutcomeGrid.from_prior(prior, n=n_bins)
    log_dens, _ = _log_densities(np.array([prior.mean]), prior.precision, grid)
    return MarketState(
        grid=grid,
        shares=_belief_inventories(schedule_eval(schedule, 0), log_dens[0], 0.0),
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
    ``t`` (default: the next counter); the counter never regresses. The
    cost charged is C(post, t) - C(pre, t_pre) with t_pre = state.t.
    """
    t_new = state.t + 1 if t is None else t
    if not isinstance(t_new, int) or isinstance(t_new, bool):
        raise ValidationError("counter must be an integer")
    if t_new < state.t:
        raise ValidationError(f"counter may not regress ({t_new} < {state.t})")

    k_new = schedule_eval(state.schedule, t_new)
    clipped, belief = 0, None
    if isinstance(target, NormalBelief):
        log_dens, clips = _log_densities(np.array([target.mean]), target.precision, state.grid)
        clipped = int(clips[0])
        if clipped:
            warnings.warn(f"belief density clipped to {_DENSITY_FLOOR:g} on {clipped} bins",
                          RuntimeWarning, stacklevel=2)
        post = _belief_inventories(k_new, log_dens[0], state.potential)
        belief = target
    else:
        delta = np.asarray(target, dtype=float)
        if delta.shape != (state.grid.n,):
            raise ValidationError("share delta length must match the grid")
        if not np.all(np.isfinite(delta)):
            raise ValidationError("share delta must be finite")
        post = state.shares + delta

    potential = float(_checked_step(post[None, :], k_new, state.grid.widths)[0])
    new_state = _priced(state, _read_only(post), t_new, potential)
    record = TradeRecord(
        t=t_new,
        pre_shares=state.shares,
        post_shares=new_state.shares,
        cost=float(potential - state.potential),
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
    k(T) affine_shift - k(0) binned_self_score(prior, grid); the self score
    is computed once per (prior, grid).
    """
    idx, out_of_range = state.grid.locate(outcome)
    payouts: dict[str, float] = {}
    collected = 0.0
    for rec in records:
        net = float(rec.post_shares[idx] - rec.pre_shares[idx])
        payouts[rec.trader] = payouts.get(rec.trader, 0.0) + net
        collected += rec.cost
    maker_loss = sum(payouts.values()) - collected
    k0 = schedule_eval(state.schedule, 0)
    k_final = schedule_eval(state.schedule, state.t)
    shift = state.affine_shift
    grid = state.grid
    # Grouped so that k(T) = k(0) rounds exactly like -k(0) (S - shift).
    bound = -k0 * (_prior_self_score(state.prior, grid.lo, grid.hi, grid.n) - shift)
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
    Every row passes the market step's checks (finite shares, unit price
    mass). The pooled belief is binned once for both of its trades.
    Clipped belief bins are counted per trade, and one RuntimeWarning
    reports their total.
    """
    outcomes, a0, b0 = _as_worlds(worlds)
    single, pooled = model.single_mean(a0), model.pair_mean(a0, b0)
    for means, precision in ((single, model.tau_single), (pooled, model.tau_pool)):
        if not (np.isfinite(means).all() and 0.0 < precision < math.inf):
            raise ValidationError("posterior beliefs need finite means and precisions")
    grid, count = opening.grid, outcomes.size
    index, _ = grid.locate_all(outcomes)
    counters = tuple(opening.t + j for j in (1, 2, 3))
    levels = [schedule_eval(opening.schedule, t) for t in counters]

    maker_loss = np.empty(count)
    costs = np.empty((count, 3))
    clipped = np.empty((count, 3), dtype=np.intp)
    block = max(1, _BLOCK_ELEMENTS // grid.n)
    for start in range(0, count, block):
        rows = slice(start, start + block)
        log_single, clip_single = _log_densities(single[rows], model.tau_single, grid)
        log_pooled, clip_pooled = _log_densities(pooled[rows], model.tau_pool, grid)
        clipped[rows] = np.stack([clip_single, clip_pooled, clip_pooled], axis=1)
        at = index[rows]
        held = opening.shares[at]
        potential = np.full(at.size, opening.potential)
        nets, finals = [], []
        for j, (k, log_dens) in enumerate(zip(levels, (log_single, log_pooled, log_pooled))):
            post = _belief_inventories(k, log_dens, potential[:, None])
            post_potential = _checked_step(post, k, grid.widths)
            costs[rows, j] = post_potential - potential
            post_held = post[np.arange(at.size), at]
            nets.append(post_held - held)
            finals.append((_read_only(post[-1].copy()), float(post_potential[-1])))
            held, potential = post_held, post_potential
        # settle's accounting, in its order: payouts per trader in record
        # order, their sum, and the collected costs.
        alice, bob = 0.0 + nets[0] + nets[2], 0.0 + nets[1]
        collected = 0.0 + costs[rows, 0] + costs[rows, 1] + costs[rows, 2]
        maker_loss[rows] = (0.0 + alice + bob) - collected

    total = int(clipped.sum())
    if total:
        warnings.warn(
            f"belief density clipped to {_DENSITY_FLOOR:g} on {total} bins in "
            f"{np.count_nonzero(clipped.any(axis=1))} of {count} sessions",
            RuntimeWarning,
            stacklevel=2,
        )
    # The last session's states, priced and checked in its block.
    single_belief = NormalBelief(float(single[-1]), model.tau_single)
    pooled_belief = NormalBelief(float(pooled[-1]), model.tau_pool)
    state, records = opening, []
    for j, (t, trader, belief, (shares, potential)) in enumerate(zip(
        counters, ("alice", "bob", "alice"), (single_belief, pooled_belief, pooled_belief), finals
    )):
        post = _priced(state, shares, t, potential)
        records.append(
            TradeRecord(
                t=t,
                pre_shares=state.shares,
                post_shares=post.shares,
                cost=float(costs[-1, j]),
                trader=trader,
                clipped_bins=int(clipped[-1, j]),
                belief=belief,
            )
        )
        state = post
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
# repr and reads back exactly, so replaying a file reproduces every cost
# check and report byte for byte. Versions 1 and 2, which logged each
# record's ``pre`` and ``post`` inventories (version 1 as JSON lists of
# numbers, version 2 as base64 text), are still replayed.


def _encode_shares(shares: np.ndarray) -> str:
    """Base64 text of an inventory's little-endian float64 bytes."""
    return base64.b64encode(shares.astype("<f8", copy=False).tobytes()).decode("ascii")


def _decode_shares(value, key: str, n: int, version: int) -> np.ndarray:
    """Logged inventory ``value`` of field ``key`` as a read-only array of n
    finite floats: a JSON list of numbers in version 1, base64 float64 text
    in versions 2 and 3."""
    if version == 1:
        if not (isinstance(value, list) and all(map(_is_real, value))):
            raise TypeError(f"field {key!r} must be a list of finite JSON numbers")
        shares = _read_only(np.array(value, dtype=float))
        if shares.shape != (n,):
            raise ValueError(f"field {key!r} must hold {n} values")
    elif not isinstance(value, str):
        raise TypeError(f"field {key!r} must be base64 text, not {type(value).__name__}")
    else:
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
    ``record_to_json`` or ``settlement_to_json`` with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(log_header(opening), sort_keys=True) + "\n")
        for i, rec in enumerate(records):
            fh.write(json.dumps(record_to_json(i, rec), sort_keys=True) + "\n")
        if report is not None:
            fh.write(json.dumps(settlement_to_json(report), sort_keys=True) + "\n")


def _opening_state(header: dict) -> tuple[MarketState, int]:
    """The header's opening state and the log's format version."""
    if header.get("format") != _LOG_FORMAT:
        raise ValueError(f"missing market header: field 'format' must be {_LOG_FORMAT!r}")
    version = _field(header, "version", "", _json_int)
    if not 1 <= version <= _LOG_VERSION:
        raise ValueError(f"unsupported log version {version!r}")
    grid_rec, prior_rec = _field(header, "grid", "", _object), _field(header, "prior", "", _object)
    unknown = sorted(set(grid_rec) - {"lo", "hi", "n"})
    if unknown:
        raise ValueError(f"field 'grid' holds an unknown field {unknown[0]!r}")
    grid = OutcomeGrid(_field(grid_rec, "lo", "", _real), _field(grid_rec, "hi", "", _real),
                       _field(grid_rec, "n", "", _json_int))
    state = MarketState(
        grid=grid,
        shares=_decode_shares(header["s0"], "s0", grid.n, version),
        t=_field(header, "t0", "", _json_int),
        schedule=DiscountSchedule.from_config(_field(header, "schedule", "", _object), ""),
        prior=NormalBelief(_field(prior_rec, "mean", "", _real),
                           _field(prior_rec, "precision", "", _real)),
        affine_shift=float(_field(header, "affine_shift", "", _real)),
    )
    return state, version


class _Logged(NamedTuple):
    """A trade as read from line ``lineno``, before it is verified. ``post``
    is its logged post-trade inventory, or None for a version-3 belief
    trade, whose inventory replay rebuilds from ``belief``."""

    lineno: int
    t: int
    cost: float
    trader: str
    clipped_bins: int
    belief: NormalBelief | None
    post: np.ndarray | None


def _logged_belief(value: dict) -> NormalBelief:
    """The logged belief object ``value``: a finite mean and a positive,
    finite precision, as JSON numbers."""
    mean = float(_field(value, "mean", "", _real))
    precision = float(_field(value, "precision", "", _real))
    if precision <= 0.0:
        raise ValueError(f"field 'precision' must be positive, not {precision!r}")
    return NormalBelief(mean, precision)


def _logged_trade(
    obj: dict, lineno: int, index: int, n: int, shares, t_pre: int, running, version: int
) -> _Logged:
    """Logged trade number ``index`` on an n-bin grid, read from line
    ``lineno`` and checked field by field, after the trade that left
    inventory ``shares`` at counter ``t_pre``. Its cost, and a belief
    trade's clipped bins, are left to ``_verify_block``.

    In versions 1 and 2 the running inventory is logged as the JSON value
    ``running``: an inventory whose value equals ``running`` is that
    inventory and is not decoded, and any other ``pre`` is decoded and
    compared with it by value."""
    number = _field(obj, "i", "", _json_int)
    if number != index:
        raise ValueError(f"record number {number} is out of sequence")
    t_new = _field(obj, "t", "", _json_int)
    belief = None
    if version < 3:
        pre, post = obj["pre"], obj["post"]
        if pre != running and not np.array_equal(_decode_shares(pre, "pre", n, version), shares):
            raise ValueError("pre-trade inventory does not match the running state")
        if t_new < t_pre:
            raise ValueError("counter regressed")
        post = shares if post == running else _decode_shares(post, "post", n, version)
    elif t_new < t_pre:
        raise ValueError("counter regressed")
    elif "belief" not in obj:
        post = _decode_shares(obj["post"], "post", n, version)
    elif "post" in obj:
        raise ValueError("field 'post' must be absent from a belief trade")
    else:
        belief, post = _logged_belief(_field(obj, "belief", "", _object)), None
    cost = float(_field(obj, "cost", "", _real))
    trader = _field(obj, "trader", "", _text)
    clipped = _field(obj, "clipped_bins", "", _json_int, 0)
    if clipped < 0:
        raise ValueError(f"field 'clipped_bins' must be non-negative, not {clipped}")
    return _Logged(lineno, t_new, cost, trader, clipped, belief, post)


def _verify_block(
    opening: MarketState, block: Sequence[_Logged], start: int, shares: np.ndarray,
    potential: float,
) -> tuple[list[TradeRecord], float]:
    """Verify the logged trades ``block``, record numbers ``start`` on, which
    trade from inventory ``shares`` of potential C = ``potential``. Returns
    their TradeRecords and C of the last post-trade inventory.

    The beliefs are binned in one ``_log_densities`` call. A belief
    trade's inventory is rebuilt as ``trade`` builds it, k(t) log(density)
    plus C of the inventory before it, so it needs the potential of the row
    before. Those Cs are guessed as the C before the block plus the logged
    costs since, and the rows are priced in one ``_step`` call at one
    level k(t) per row. The rows before the first rebuilt row whose guess
    differs from the computed C in any bit are exact; from that row on they
    are rebuilt and priced again. ``trade``'s costs nearly always add up
    bit for bit, so a block takes one call; costs that never do take one
    call per row.

    Each row gets ``_checked_step``'s checks (finite shares, price mass 1
    within 1e-10, a finite potential) with its messages, its cost
    C(post, t) - C(pre, t_pre) is compared with the logged one within
    1e-10, and a belief trade's clipped bins must equal the logged count. Raises LogConsistencyError naming the first faulty
    record. A non-finite intermediate value fails a check instead of
    warning."""
    grid, rows = opening.grid, len(block)
    levels = np.array([schedule_eval(opening.schedule, entry.t) for entry in block])
    logged_costs = [entry.cost for entry in block]
    logged_clips = [entry.clipped_bins for entry in block]
    posts = [entry.post for entry in block]
    rebuilt = [row for row, post in enumerate(posts) if post is None]
    potentials = np.empty(rows)
    finite, unit_mass = np.ones(rows, dtype=bool), np.ones(rows, dtype=bool)
    clips = np.array(logged_clips)
    with np.errstate(over="ignore", invalid="ignore"):
        if rebuilt:
            log_dens, clips[rebuilt] = _log_densities(
                np.array([block[row].belief.mean for row in rebuilt]),
                np.array([block[row].belief.precision for row in rebuilt]),
                grid,
            )
        first, before, end = 0, potential, 0
        # Rows before ``end`` are final; a non-finite one ends the block.
        while end < rows and finite[:end].all():
            # C before each row from ``first`` on, guessed from the logged costs.
            guess = np.cumsum([before, *logged_costs[first:-1]])
            j = bisect.bisect_left(rebuilt, first)
            todo = rebuilt[j:]
            if todo:
                built = _read_only(_belief_inventories(
                    levels[todo, None], log_dens[j:], guess[np.subtract(todo, first), None]))
                for row, post in zip(todo, built):
                    posts[row] = post
            stacked = built if len(todo) == rows - first else np.array(posts[first:])
            potentials[first:], finite[first:], unit_mass[first:] = _step(
                stacked, levels[first:], grid.widths)
            end = next((row for row in todo if row > first
                        and guess[row - first].tobytes() != potentials[row - 1].tobytes()), rows)
            first, before = end, potentials[end - 1]
        costs = potentials - np.concatenate(([potential], potentials[:-1]))
        bad_cost = ~(np.abs(costs - logged_costs) <= _COST_TOL)
    misclipped = clips != logged_clips
    overflows = ~np.isfinite(potentials)
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
    records = [
        TradeRecord(t=entry.t, pre_shares=pre, post_shares=post, cost=entry.cost,
                    trader=entry.trader, clipped_bins=entry.clipped_bins, belief=entry.belief)
        for entry, pre, post in zip(block, [shares, *posts[:-1]], posts)
    ]
    return records, float(potentials[-1])


def _replay_settlement(
    state: MarketState, records: Sequence[TradeRecord], logged: dict
) -> SettlementReport:
    """Settle at the logged outcome; every logged field must equal the
    recomputed one exactly, as ``write_log`` serializes it."""
    report = settle(state, float(_field(logged, "outcome", "", _real)), records)
    want = settlement_to_json(report)["settlement"]
    for key in sorted(set(logged) | set(want)):
        got, expected = logged.get(key), want.get(key)
        if json.dumps(got, sort_keys=True) != json.dumps(expected, sort_keys=True):
            raise ValueError(f"settlement {key} {got!r} differs from recomputed {expected!r}")
    return report


def replay(
    lines: Iterable[str | bytes],
) -> tuple[MarketState, list[TradeRecord], SettlementReport | None]:
    """Re-execute a trade log, verifying it is self-consistent.

    Reads log format versions 1, 2 and 3, as the header's ``version`` says;
    each line is parsed by one ``json.loads``. Checks per record that its
    number ``i`` is its position, the counter does not regress, in versions
    1 and 2 the pre-inventory equals the running inventory exactly, in
    version 3 a belief trade's clipped-bin count equals the one its belief
    gives, and the logged cost matches the recomputed C(post, t) -
    C(pre, t_pre) within 1e-10; and that a settlement, if any, is the last
    non-blank line and equals the settlement recomputed at its outcome in
    every field exactly. A version-3 belief trade's post-trade inventory is
    rebuilt from its belief with ``trade``'s arithmetic, bit for bit.
    Counters, record numbers and clipped-bin counts must be JSON integers
    (not booleans; clipped bins at least 0) and traders strings. Costs, the
    grid's ``lo`` and ``hi``, the prior's fields, ``affine_shift``, a
    belief's ``mean`` and ``precision`` (which must be positive), the
    settlement's outcome and the entries of version-1 inventories must be
    JSON numbers that a finite float holds, not booleans or strings. A
    version-3 record holds a ``belief`` object or a ``post`` inventory, not
    both. Every inventory must hold ``n`` finite values; in versions 2 and 3
    it must be valid, padded base64 of 8 * ``n`` bytes. Any inconsistent or
    malformed line (a fractional counter, text nested too deeply to parse or
    a bytes line that is not UTF-8 included) raises LogConsistencyError
    naming the line, the number of records verified before it and any
    missing or mistyped field (read by ``errors._field``). Returns the final
    state, the verified records, and the recomputed settlement if logged.

    Each line's fields are checked as it is read. Records are verified in
    blocks of at most ``_BLOCK_ELEMENTS`` inventory elements (see
    ``_verify_block``), with the floating-point operations of one
    MarketState per record. Every record read before line L is verified
    before an error from line L is raised, so the first faulty line is the
    one named, with the same record index. In versions 1 and 2 an inventory
    is decoded only when its logged value differs from the running
    inventory's: a ``pre`` that repeats it is that inventory, and any other
    ``pre`` is compared by value. The final state reuses the potential
    verified in the last block.
    """
    opening, report, records = None, None, []
    # The header's format version; the logged value of the running inventory
    # (versions 1 and 2 repeat it as the next ``pre``); the inventory and
    # counter the last record read left, the inventory None when a version-3
    # belief trade left it; C of the last verified inventory; and the
    # records read but not verified yet.
    version, running, shares, t, potential, pending = None, None, None, None, None, []

    def verify() -> None:
        nonlocal potential
        if pending:
            entries = pending.copy()
            pending.clear()
            before = records[-1].post_shares if records else opening.shares
            verified, potential = _verify_block(opening, entries, len(records), before, potential)
            records.extend(verified)

    def final_state() -> MarketState:
        if not records:
            return opening
        return _priced(opening, records[-1].post_shares, records[-1].t, potential)

    for lineno, line in enumerate(lines, 1):
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            if not line or line.isspace():
                continue
            obj = _object(json.loads(line))
            if opening is None:
                opening, version = _opening_state(obj)
                running, potential = obj["s0"], opening.potential
                shares, t = opening.shares, opening.t
                block = max(1, _BLOCK_ELEMENTS // opening.grid.n)
            elif report is not None:
                raise ValueError("the settlement must be the last line")
            elif "settlement" in obj:
                verify()
                logged = _field(obj, "settlement", "", _object)
                report = _replay_settlement(final_state(), records, logged)
            else:
                index = len(records) + len(pending)
                entry = _logged_trade(
                    obj, lineno, index, opening.grid.n, shares, t, running, version
                )
                pending.append(entry)
                running, shares, t = obj.get("post"), entry.post, entry.t
                if len(pending) == block:
                    verify()
        except KeyError as exc:
            verify()
            message = f"line {lineno}: field {exc} is missing"
            raise LogConsistencyError(message, len(records)) from exc
        except (TypeError, ValueError, ArithmeticError, RecursionError) as exc:
            verify()
            raise LogConsistencyError(f"line {lineno}: {exc}", len(records)) from exc
    if opening is None:
        raise LogConsistencyError("empty log has no header", index=0)
    verify()
    return final_state(), records, report

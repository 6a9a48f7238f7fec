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

``simulate_sessions`` runs many truthful sessions from one opening state on
(sessions, bins) arrays. It shares the density and potential helpers with
``trade`` and ``MarketState``, which call them on one row.
"""

from __future__ import annotations

import base64
import binascii
import functools
import json
import math
import operator
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

from .beliefs import SignalModel
from .discounting import DiscountSchedule, schedule_eval
from .errors import LogConsistencyError, NumericError, ValidationError
from .game import _as_worlds
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
_LOG_VERSION = 2

# Belief densities are clipped here before taking logs; zero density would
# demand an infinite short position in the bin.
_DENSITY_FLOOR = 1e-300

_COST_TOL = 1e-10
_MASS_TOL = 1e-10

# Grid coverage demanded of every market state, in prior standard deviations.
_COVER_SIGMAS = 10.0

# simulate_sessions works on (block, n) arrays of at most this many
# elements (128 KiB of float64 each), whatever the session count.
_BLOCK_ELEMENTS = 2**14


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
        if not np.isfinite(shares).all():
            raise ValidationError("shares must be finite")
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
        potential, _, mass = _potentials(shares[None, :], k, self.grid.widths)
        _check_mass(mass)
        object.__setattr__(self, "potential", float(potential[0]))


def _check_mass(mass: np.ndarray) -> None:
    if np.any(np.abs(mass - 1.0) > _MASS_TOL):
        raise NumericError("width-weighted prices failed to sum to 1")


@dataclass(frozen=True, eq=False)
class TradeRecord:
    """One executed trade. ``cost`` always equals
    cost_function(post, t) - cost_function(pre, t_pre) with t_pre the
    counter of the preceding record (the opening counter for the first).
    The share vectors are the read-only arrays of the two states."""

    t: int
    pre_shares: np.ndarray
    post_shares: np.ndarray
    cost: float
    trader: str
    clipped_bins: int = 0


@dataclass(frozen=True)
class SettlementReport:
    outcome: float
    outcome_bin: int
    out_of_range: bool
    payouts: dict[str, float] = field(default_factory=dict)
    collected: float = 0.0
    maker_loss: float = 0.0
    loss_bound: float = 0.0


def _binned_densities(means: np.ndarray, precision: float, grid: OutcomeGrid) -> np.ndarray:
    """Per-bin densities (bin mass / bin width), shape (rows, n), of the
    normal beliefs N(means[r], 1/precision).

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

    z = (grid.edges - means[:, None]) * math.sqrt(precision)
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
    means: np.ndarray, precision: float, grid: OutcomeGrid
) -> tuple[np.ndarray, np.ndarray]:
    """log of the binned densities floored at ``_DENSITY_FLOOR``, and the
    number of floored bins of each row."""
    dens = _binned_densities(means, precision, grid)
    clipped = np.count_nonzero(dens < _DENSITY_FLOOR, axis=1)
    return np.log(np.maximum(dens, _DENSITY_FLOOR)), clipped


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


def _potentials(shares: np.ndarray, k: float, widths: np.ndarray):
    """For each row s of ``shares`` (rows, n) at level k = k(t): the
    potential C(s, t) = k log sum_j w_j exp(s_j / k), evaluated stably, the
    price densities, and the width-weighted price mass (1 up to rounding)."""
    z = shares / k
    top = z.max(axis=1)
    z -= top[:, None]
    e = np.exp(z, out=z)
    total = np.sum(widths * e, axis=1)
    dens = np.divide(e, total[:, None], out=e)
    # math.log, not np.log: the two can differ in the last bit.
    log_total = np.array([math.log(v) for v in total.tolist()])
    return k * (top + log_total), dens, np.sum(dens * widths, axis=1)


def cost_function(
    shares: Sequence[float], t: int, schedule: DiscountSchedule, grid: OutcomeGrid
) -> float:
    """C(s, t) = k(t) log sum_j w_j exp(s_j / k(t)), evaluated stably."""
    s = np.asarray(shares, dtype=float)
    if s.shape != (grid.n,):
        raise ValidationError("share vector length must match the grid")
    if not np.all(np.isfinite(s)):
        raise ValidationError("shares must be finite")
    potential, _, _ = _potentials(s[None, :], schedule_eval(schedule, t), grid.widths)
    return float(potential[0])


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
    k0 = schedule_eval(schedule, 0)
    log_dens, _ = _log_densities(np.array([prior.mean]), prior.precision, grid)
    return MarketState(
        grid=grid,
        shares=k0 * log_dens[0],
        t=0,
        schedule=schedule,
        prior=prior,
        affine_shift=affine_shift,
    )


def _belief_target_shares(
    state: MarketState, belief: NormalBelief, t_new: int
) -> tuple[np.ndarray, int]:
    """Share vector moving the price curve to the belief's binned density.

    shares = k(t_new) log density + gamma with gamma the pre-trade
    potential, which keeps the trade's cash cost at the pure re-pricing
    level (zero for an exactly unit-mass target).
    """
    log_dens, clipped = _log_densities(np.array([belief.mean]), belief.precision, state.grid)
    clipped = int(clipped[0])
    if clipped:
        warnings.warn(
            f"belief density clipped to {_DENSITY_FLOOR:g} on {clipped} bins",
            RuntimeWarning,
            stacklevel=3,
        )
    k_new = schedule_eval(state.schedule, t_new)
    return k_new * log_dens[0] + state.potential, clipped


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

    clipped = 0
    if isinstance(target, NormalBelief):
        post, clipped = _belief_target_shares(state, target, t_new)
    else:
        delta = np.asarray(target, dtype=float)
        if delta.shape != (state.grid.n,):
            raise ValidationError("share delta length must match the grid")
        if not np.all(np.isfinite(delta)):
            raise ValidationError("share delta must be finite")
        post = state.shares + delta

    new_state = replace(state, shares=post, t=t_new)
    record = TradeRecord(
        t=t_new,
        pre_shares=state.shares,
        post_shares=new_state.shares,
        cost=float(new_state.potential - state.potential),
        trader=str(trader),
        clipped_bins=clipped,
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
    Every row passes the checks a MarketState makes (finite shares, unit
    price mass). The pooled belief is binned once for both of its trades.
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
            post = k * log_dens + potential[:, None]
            if not np.isfinite(post).all():
                raise ValidationError("shares must be finite")
            post_potential, _, mass = _potentials(post, k, grid.widths)
            _check_mass(mass)
            costs[rows, j] = post_potential - potential
            post_held = post[np.arange(at.size), at]
            nets.append(post_held - held)
            finals.append(post[-1].copy())
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
    state, records = opening, []
    for j, (t, trader, shares) in enumerate(zip(counters, ("alice", "bob", "alice"), finals)):
        post = replace(state, shares=shares, t=t)
        records.append(
            TradeRecord(
                t=t,
                pre_shares=state.shares,
                post_shares=post.shares,
                cost=float(costs[-1, j]),
                trader=trader,
                clipped_bins=int(clipped[-1, j]),
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
# one settlement object as the last line. Format version 2 writes each
# inventory (the header's ``s0``, each record's ``pre`` and ``post``) as
# base64 text of its little-endian float64 bytes: the exact bit pattern, so
# equal text is an equal inventory. Every other float is a JSON number,
# which Python writes by repr and reads back exactly, so replaying a file
# reproduces every cost check and report byte for byte. Version 1, which
# wrote inventories as JSON lists of numbers, is still replayed.


def _encode_shares(shares: np.ndarray) -> str:
    """Base64 text of an inventory's little-endian float64 bytes."""
    return base64.b64encode(shares.astype("<f8", copy=False).tobytes()).decode("ascii")


def _decode_shares(value, key: str, n: int, version: int) -> np.ndarray:
    """Logged inventory ``value`` of field ``key`` as n finite floats: a JSON
    list of numbers in version 1, base64 float64 text in version 2."""
    if version == 1:
        shares = np.asarray(value, dtype=float)
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
    return {
        "i": index,
        "t": rec.t,
        "trader": rec.trader,
        "cost": rec.cost,
        "clipped_bins": rec.clipped_bins,
        "pre": _encode_shares(rec.pre_shares),
        "post": _encode_shares(rec.post_shares),
    }


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
    """Write a version-2 log: the header, one line per record and the
    settlement, if any. Each line is ``json.dumps`` of ``log_header``,
    ``record_to_json`` or ``settlement_to_json`` with sorted keys."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(log_header(opening), sort_keys=True) + "\n")
        for i, rec in enumerate(records):
            fh.write(json.dumps(record_to_json(i, rec), sort_keys=True) + "\n")
        if report is not None:
            fh.write(json.dumps(settlement_to_json(report), sort_keys=True) + "\n")


def _log_int(obj: dict, key: str) -> int:
    """``obj[key]``, which must be a JSON integer; a boolean is not one."""
    value = obj[key]
    if isinstance(value, bool):
        raise TypeError(f"field {key!r} must be an integer, not {value!r}")
    return operator.index(value)


def _opening_state(header: dict) -> tuple[MarketState, int]:
    """The header's opening state and the log's format version."""
    if header.get("format") != _LOG_FORMAT:
        raise ValueError("missing market header")
    version = header.get("version")
    if type(version) is not int or version not in (1, _LOG_VERSION):
        raise ValueError(f"unsupported log version {version!r}")
    grid = OutcomeGrid(**header["grid"])
    state = MarketState(
        grid=grid,
        shares=_decode_shares(header["s0"], "s0", grid.n, version),
        t=_log_int(header, "t0"),
        schedule=DiscountSchedule.from_config(header["schedule"]),
        prior=NormalBelief(header["prior"]["mean"], header["prior"]["precision"]),
        affine_shift=float(header["affine_shift"]),
    )
    return state, version


def _replay_trade(
    state: MarketState, obj: dict, index: int, running, version: int
) -> tuple[MarketState, TradeRecord]:
    """Re-execute logged trade number ``index`` from ``state``, whose
    inventory was logged as the JSON value ``running``. An inventory whose
    value equals ``running`` is the running inventory and is not decoded;
    any other ``pre`` is decoded and compared with it by value."""
    if _log_int(obj, "i") != index:
        raise ValueError(f"record number {obj['i']} is out of sequence")
    t_new = _log_int(obj, "t")
    n = state.grid.n
    pre, post = obj["pre"], obj["post"]
    if pre != running and not np.array_equal(
        _decode_shares(pre, "pre", n, version), state.shares
    ):
        raise ValueError("pre-trade inventory does not match the running state")
    if t_new < state.t:
        raise ValueError("counter regressed")
    shares = state.shares if post == running else _decode_shares(post, "post", n, version)
    new_state = replace(state, shares=shares, t=t_new)
    cost, logged_cost = new_state.potential - state.potential, float(obj["cost"])
    if not abs(cost - logged_cost) <= _COST_TOL:
        raise ValueError(f"logged cost {logged_cost!r} differs from recomputed {cost!r}")
    trader = obj["trader"]
    if not isinstance(trader, str):
        raise TypeError(f"field 'trader' must be a string, not {trader!r}")
    clipped = _log_int(obj, "clipped_bins") if "clipped_bins" in obj else 0
    if clipped < 0:
        raise ValueError(f"field 'clipped_bins' must be non-negative, not {clipped}")
    record = TradeRecord(
        t=t_new,
        pre_shares=state.shares,
        post_shares=new_state.shares,
        cost=logged_cost,
        trader=trader,
        clipped_bins=clipped,
    )
    return new_state, record


def _replay_settlement(
    state: MarketState, records: Sequence[TradeRecord], logged: dict
) -> SettlementReport:
    """Settle at the logged outcome; every logged field must equal the
    recomputed one exactly, as ``write_log`` serializes it."""
    outcome = float(logged["outcome"])
    if not math.isfinite(outcome):
        raise ValueError("settlement outcome must be finite")
    report = settle(state, outcome, records)
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

    Reads log format versions 1 and 2, as the header's ``version`` says;
    each line is parsed by one ``json.loads``. Checks per record that its
    number ``i`` is its position, the pre-inventory equals the running
    inventory exactly, the counter does not regress, and the logged cost
    matches the recomputed C(post, t) - C(pre, t_pre) within 1e-10; and
    that a settlement, if any, is the last non-blank line and equals the
    settlement recomputed at its outcome in every field exactly. Counters,
    record numbers and clipped-bin counts must be JSON integers (not
    booleans; clipped bins at least 0) and traders strings. Every inventory
    must hold ``n`` finite values; in version 2 it must be valid, padded
    base64 of 8 * ``n`` bytes. Any inconsistent or malformed line (a
    fractional counter, text nested too deeply to parse or a bytes line that
    is not UTF-8 included) raises LogConsistencyError naming the line and
    the number of records verified before it. Returns the final state, the
    verified records, and the recomputed settlement when the log carries
    one.

    An inventory is decoded only when its logged value differs from the
    running inventory's: a ``pre`` that repeats it, as ``write_log`` writes
    it, is that inventory, and any other ``pre`` is compared by value.
    """
    state, records, report = None, [], None
    # The header's format version, and the logged value of the running inventory.
    version, running = None, None
    for lineno, line in enumerate(lines, 1):
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            if not line.strip():
                continue
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise TypeError("not a JSON object")
            if state is None:
                state, version = _opening_state(obj)
                running = obj["s0"]
            elif report is not None:
                raise ValueError("the settlement must be the last line")
            elif "settlement" in obj:
                report = _replay_settlement(state, records, obj["settlement"])
            else:
                state, record = _replay_trade(state, obj, len(records), running, version)
                records.append(record)
                running = obj["post"]
        except KeyError as exc:
            raise LogConsistencyError(f"line {lineno}: missing field {exc}", len(records)) from exc
        except (TypeError, ValueError, ArithmeticError, RecursionError) as exc:
            raise LogConsistencyError(f"line {lineno}: {exc}", len(records)) from exc
    if state is None:
        raise LogConsistencyError("empty log has no header", index=0)
    return state, records, report

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
"""

from __future__ import annotations

import functools
import json
import math
import operator
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np
from scipy.special import ndtr

from .discounting import DiscountSchedule, schedule_eval
from .errors import LogConsistencyError, NumericError, ValidationError
from .scoring import NormalBelief

__all__ = [
    "OutcomeGrid",
    "MarketState",
    "TradeRecord",
    "SettlementReport",
    "binned_density",
    "binned_self_score",
    "open_market",
    "price",
    "prices",
    "cost_function",
    "trade",
    "settle",
    "replay",
    "log_header",
    "record_to_json",
    "settlement_to_json",
    "write_log",
]

_LOG_FORMAT = "scoremech-market-log"
_LOG_VERSION = 1

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

        Returns (index, out_of_range flag).
        """
        if not math.isfinite(x):
            raise ValidationError("outcome must be finite")
        if x < self.lo:
            return 0, True
        if x >= self.hi:
            return self.n - 1, True
        i = int((x - self.lo) / (self.hi - self.lo) * self.n)
        return min(i, self.n - 1), False

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
    market configuration, not of pricing.
    """

    grid: OutcomeGrid
    shares: np.ndarray
    t: int
    schedule: DiscountSchedule
    prior: NormalBelief
    affine_shift: float = 0.0

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
        total = float(np.sum(prices(self) * self.grid.widths))
        if abs(total - 1.0) > _MASS_TOL:
            raise NumericError("width-weighted prices failed to sum to 1")

    @functools.cached_property
    def potential(self) -> float:
        """C(shares, t); a trade to ``next`` costs next.potential - potential."""
        return cost_function(self.shares, self.t, self.schedule, self.grid)


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


def binned_density(belief: NormalBelief, grid: OutcomeGrid) -> np.ndarray:
    """Per-bin density (bin mass / bin width) of a normal belief.

    Bins in the upper tail take their mass from the reflected lower tail,
    where the normal CDF keeps full (denormal) precision instead of
    saturating at 1; masses stay positive out to ~38 belief sigmas.
    """
    z = (grid.edges - belief.mean) * math.sqrt(belief.precision)
    lower = np.diff(ndtr(z))
    upper = np.diff(ndtr(-z[::-1]))[::-1]
    mass = np.where(z[:-1] + z[1:] > 0.0, upper, lower)
    return mass / grid.widths


def binned_self_score(belief: NormalBelief, grid: OutcomeGrid) -> float:
    """Expected binned log score sum_j mass_j log density_j of the belief
    against itself; the binned analogue of the negative entropy."""
    dens = np.maximum(binned_density(belief, grid), _DENSITY_FLOOR)
    mass = dens * grid.widths
    return float(np.sum(mass * np.log(dens)))


def cost_function(
    shares: Sequence[float], t: int, schedule: DiscountSchedule, grid: OutcomeGrid
) -> float:
    """C(s, t) = k(t) log sum_j w_j exp(s_j / k(t)), evaluated stably."""
    s = np.asarray(shares, dtype=float)
    if s.shape != (grid.n,):
        raise ValidationError("share vector length must match the grid")
    if not np.all(np.isfinite(s)):
        raise ValidationError("shares must be finite")
    k = schedule_eval(schedule, t)
    z = s / k
    m = float(np.max(z))
    return k * (m + math.log(float(np.sum(grid.widths * np.exp(z - m)))))


def prices(state: MarketState) -> np.ndarray:
    """Instantaneous price density of every bin."""
    k = schedule_eval(state.schedule, state.t)
    z = np.asarray(state.shares) / k
    z -= z.max()
    e = np.exp(z)
    return e / float(np.sum(state.grid.widths * e))


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
    dens = np.maximum(binned_density(prior, grid), _DENSITY_FLOOR)
    return MarketState(
        grid=grid,
        shares=k0 * np.log(dens),
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
    dens = binned_density(belief, state.grid)
    clipped = int(np.sum(dens < _DENSITY_FLOOR))
    if clipped:
        warnings.warn(
            f"belief density clipped to {_DENSITY_FLOOR:g} on {clipped} bins",
            RuntimeWarning,
            stacklevel=3,
        )
        dens = np.maximum(dens, _DENSITY_FLOOR)
    k_new = schedule_eval(state.schedule, t_new)
    return k_new * np.log(dens) + state.potential, clipped


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
    k(T) affine_shift - k(0) binned_self_score(prior, grid).
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
    # Grouped so that k(T) = k(0) rounds exactly like -k(0) (S - shift).
    bound = -k0 * (binned_self_score(state.prior, state.grid) - shift)
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


# ---------------------------------------------------------------------------
# Trade log serialization and replay.
#
# Line-delimited JSON: one header object, one object per trade, optionally
# one settlement object. Floats serialize via repr and round-trip exactly,
# so replaying a file reproduces every cost check and report byte for byte.


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
        "s0": state.shares.tolist(),
    }


def record_to_json(index: int, rec: TradeRecord) -> dict:
    return {
        "i": index,
        "t": rec.t,
        "trader": rec.trader,
        "pre": rec.pre_shares.tolist(),
        "post": rec.post_shares.tolist(),
        "cost": rec.cost,
        "clipped_bins": rec.clipped_bins,
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(log_header(opening), sort_keys=True) + "\n")
        for i, rec in enumerate(records):
            fh.write(json.dumps(record_to_json(i, rec), sort_keys=True) + "\n")
        if report is not None:
            fh.write(json.dumps(settlement_to_json(report), sort_keys=True) + "\n")


def _opening_state(header: dict) -> MarketState:
    if header.get("format") != _LOG_FORMAT:
        raise ValueError("missing market header")
    return MarketState(
        grid=OutcomeGrid(**header["grid"]),
        shares=header["s0"],
        t=operator.index(header["t0"]),
        schedule=DiscountSchedule.from_config(header["schedule"]),
        prior=NormalBelief(header["prior"]["mean"], header["prior"]["precision"]),
        affine_shift=float(header["affine_shift"]),
    )


def _replay_trade(
    state: MarketState, obj: dict, index: int
) -> tuple[MarketState, TradeRecord]:
    """Re-execute logged trade number ``index`` from ``state``."""
    if operator.index(obj.get("i", index)) != index:
        raise ValueError(f"record number {obj['i']} is out of sequence")
    t_new = operator.index(obj["t"])
    if not np.array_equal(np.asarray(obj["pre"], dtype=float), state.shares):
        raise ValueError("pre-trade inventory does not match the running state")
    if t_new < state.t:
        raise ValueError("counter regressed")
    new_state = replace(state, shares=obj["post"], t=t_new)
    cost, logged_cost = new_state.potential - state.potential, float(obj["cost"])
    if not abs(cost - logged_cost) <= _COST_TOL:
        raise ValueError(f"logged cost {logged_cost!r} differs from recomputed {cost!r}")
    record = TradeRecord(
        t=t_new,
        pre_shares=state.shares,
        post_shares=new_state.shares,
        cost=logged_cost,
        trader=str(obj["trader"]),
        clipped_bins=operator.index(obj.get("clipped_bins", 0)),
    )
    return new_state, record


def replay(lines: Iterable[str]) -> tuple[MarketState, list[TradeRecord], SettlementReport | None]:
    """Re-execute a trade log, verifying it is self-consistent.

    Checks, per record: its number ``i`` is its position, the
    pre-inventory equals the running inventory exactly, the counter does
    not regress, and the logged cost matches the recomputed
    C(post, t) - C(pre, t_pre) within 1e-10. Any inconsistent or malformed
    line (a fractional counter included) raises LogConsistencyError naming
    the line and the number of records verified before it. Returns the
    final state, the verified records, and the recomputed settlement when
    the log carries one.
    """
    state, records, outcome = None, [], None
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise TypeError("not a JSON object")
            if state is None:
                state = _opening_state(obj)
            elif "settlement" in obj:
                outcome = float(obj["settlement"]["outcome"])
                if not math.isfinite(outcome):
                    raise ValueError("settlement outcome must be finite")
            else:
                state, record = _replay_trade(state, obj, len(records))
                records.append(record)
        except KeyError as exc:
            raise LogConsistencyError(f"line {lineno}: missing field {exc}", len(records)) from exc
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise LogConsistencyError(f"line {lineno}: {exc}", len(records)) from exc
    if state is None:
        raise LogConsistencyError("empty log has no header", index=0)
    report = None if outcome is None else settle(state, outcome, records)
    return state, records, report

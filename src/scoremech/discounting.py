"""Discount schedules and the discount ratios that restore prompt truthfulness.

A discounted mechanism pays k(t) * S(p, x) for the prediction made at
counter t, with k positive and weakly decreasing between resets. Sliding
the payment weight between a player's early and late slots changes the
deviation calculus: Alice's gain from shifting her report by c becomes

    k(t1) * [forfeited first-slot accuracy] - k(t2) * [harvested influence
    on the pooled report],

so truth-telling is restored exactly when k(t1)/k(t2) is at least the
supremum over shifts of the influence/forfeit ratio: the two divergences
of ``truthfulness.deviation_criterion``, read from ``scoring``.
``required_ratio_numeric`` reads it from the curvature ratio R of
``truthfulness`` for both rules, and ``required_ratio_log`` is its log-rule
case: R is the package's one formula for the minimal ratio.

``loss_bound`` gives the market-maker exposure of a discounted scoring
market: each reset opens a fresh epoch whose worst-case cost is
-k(epoch start) * S(prior, prior).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from .beliefs import SignalModel
from .errors import DiscountIneffectiveError, NumericError, ValidationError
from .errors import _field, _is_real, _real, _text
from .scoring import NormalBelief, ScoringRule, expected_score
from .truthfulness import _curvatures

__all__ = [
    "DiscountSchedule",
    "schedule_eval",
    "required_ratio_log",
    "required_ratio_numeric",
    "loss_bound",
    "nonpositivity_shift",
]

# Loss bounds scale with the number of epochs, so runaway reset lists are a
# configuration error, not a modeling choice.
_MAX_RESETS = 64

_KINDS = ("constant", "geometric_by_count", "piecewise")


@dataclass(frozen=True)
class DiscountSchedule:
    """Payment weight k(t) on a prediction counter t = 0, 1, 2, ...

    kind:
        ``constant``            k stays at its level between resets.
        ``geometric_by_count``  k decays by ``decay`` per prediction.
        ``piecewise``           level steps only at the configured resets.
    k0:
        Level at t = 0.
    decay:
        Per-prediction factor in (0, 1]; must be 1 for the non-geometric
        kinds.
    resets:
        Ordered (counter, new_k) pairs; at each counter the level restarts
        at new_k. Counters are integers >= 1, strictly increasing.
    """

    kind: str
    k0: float
    decay: float = 1.0
    resets: tuple[tuple[int, float], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown schedule kind {self.kind!r}")
        if not (_is_real(self.k0) and self.k0 > 0):
            raise ValidationError("k0 must be a positive finite real")
        if not (_is_real(self.decay) and 0.0 < self.decay <= 1.0):
            raise ValidationError("decay must be a real in (0, 1]")
        if self.kind != "geometric_by_count" and self.decay != 1.0:
            raise ValidationError(f"kind {self.kind!r} does not decay; set decay=1")
        resets = self.resets
        if not (isinstance(resets, (list, tuple)) and len(resets) <= _MAX_RESETS):
            raise ValidationError(f"resets must be a list of at most {_MAX_RESETS} pairs")
        last = 0
        for entry in resets:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2
                    and type(entry[0]) is int and entry[0] > last
                    and _is_real(entry[1]) and entry[1] > 0):
                raise ValidationError(
                    f"resets: {entry!r} is not a [counter, level] pair with an integer "
                    f"counter above {last} and a positive finite level")
            last = entry[0]
        object.__setattr__(self, "resets", tuple((c, float(k)) for c, k in resets))

    def to_config(self) -> dict:
        """Plain-data form for embedding in market configs and trade logs."""
        return {
            "kind": self.kind,
            "k0": self.k0,
            "decay": self.decay,
            "resets": [[c, k] for c, k in self.resets],
        }

    @classmethod
    def from_config(cls, record: Mapping, where: str = "schedule") -> "DiscountSchedule":
        """The schedule of a ``to_config`` record; a missing, mistyped or
        refused field raises ValidationError after the path ``where``."""
        fields = (_field(record, "kind", where, _text), _field(record, "k0", where, _real),
                  _field(record, "decay", where, _real, 1.0), record.get("resets", ()))
        try:
            return cls(*fields)
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}" if where else str(exc)) from exc


def schedule_eval(schedule: DiscountSchedule, t: int) -> float:
    """k(t) for an integer prediction counter t >= 0.

    A decayed level that float64 rounds to 0, or whose power it cannot
    evaluate (a counter beyond a float), raises NumericError: nothing can
    be priced or scored at k = 0."""
    if not isinstance(t, int) or isinstance(t, bool):
        raise ValidationError("counter t must be an integer")
    if t < 0:
        raise ValidationError("counter t must be non-negative")
    level, anchor = schedule.k0, 0
    for counter, new_k in schedule.resets:
        if counter > t:
            break
        level, anchor = new_k, counter
    if schedule.decay != 1.0:
        try:
            level *= schedule.decay ** (t - anchor)
        except OverflowError:
            level = 0.0
        if level == 0.0:
            counter = t if t.bit_length() <= 64 else "beyond 2^64"
            raise NumericError(f"the discount level k(t) underflows to 0 at counter {counter}")
    return level


def required_ratio_log(model: SignalModel) -> float:
    """Minimal early/late payment ratio making the log-rule game truthful:
    ``required_ratio_numeric(ScoringRule.LOGARITHMIC, model)``.

    In the model's fields that ratio R is the closed form

        K_min = (tau_A + tau_C) g^2
                / ( tau_A [ (1-rho^2) g^2 + (1-rho^2)^2 (tau_B + tau_C) ] ),
        g = sqrt(tau_A) - rho sqrt(tau_B).

    Values <= 1 mean the undiscounted game is already truthful; on the
    locus g = 0 it is 0, and at |rho| = 1 it raises DiscountIneffectiveError.
    """
    return required_ratio_numeric(ScoringRule.LOGARITHMIC, model)


def required_ratio_numeric(rule: ScoringRule, model: SignalModel) -> float:
    """Minimal early/late ratio: the supremum over shifts c of the
    influence/forfeit ratio, for either rule.

    The ratio at shift c is (pooled-report divergence caused by the shift)
    / (first-slot divergence forfeited by it), the two terms of
    ``deviation_criterion``; it tends to the curvature ratio R of
    ``truthfulness`` as c -> 0. For the log rule it is R at every shift,
    and R is returned. For the
    quadratic rule, with x = c^2 and ``scoring``'s weight W and rate q,
    a = q(tau_single) a_g^2 and b = q(tau_pool) a_h^2, it is

        W(tau_pool) (1 - exp(-b x)) / (W(tau_single) (1 - exp(-a x))).

    Numerator and denominator vanish at x = 0 and their derivatives have
    the monotone quotient R exp(-(b - a) x), so by the monotone form of
    l'Hopital's rule the ratio is monotone in |c| and its supremum is the
    larger of its two limits: R as c -> 0 and the tail
    W(tau_pool)/W(tau_single) = sqrt(tau_pool/tau_single) as c -> inf.

    On the locus a_h = 0 (rho = sqrt(tau_A/tau_B)) the shift never moves
    the pooled posterior: the ratio is identically zero for either rule,
    the tail does not apply, and 0 is returned.

    Raises
    ------
    DiscountIneffectiveError
        If |rho| = 1: no finite ratio restores truthfulness.
    """
    if model.degenerate:
        raise DiscountIneffectiveError(
            "|rho| = 1: no finite discount ratio restores truthfulness"
        )
    if model.alpha_h == 0.0:
        # The shift never reaches the pooled report: the ratio is
        # identically zero and no discount is needed.
        return 0.0
    ratio, tail, _, _ = _curvatures(rule, model)
    return ratio if rule is ScoringRule.LOGARITHMIC else max(ratio, tail)


def loss_bound(
    schedule: DiscountSchedule, prior: NormalBelief, rule: ScoringRule
) -> float:
    """Worst-case expected market-maker loss under the schedule.

    Each epoch (start plus every reset) contributes
    -k(epoch start) * S(prior, prior); within an epoch k only falls, so the
    epoch's exposure is set by its opening weight.

    Raises
    ------
    ValidationError
        If S(prior, prior) > 0: the rule is not non-positive at this prior
        and the bound is void; apply ``nonpositivity_shift`` first.
    """
    base = expected_score(rule, prior, prior)
    if base > 0.0:
        raise ValidationError(
            "scoring rule is positive at the prior; shift scores by "
            "nonpositivity_shift() before bounding losses"
        )
    weight = schedule.k0 + sum(new_k for _, new_k in schedule.resets)
    return -base * weight


def nonpositivity_shift(rule: ScoringRule, max_precision: float) -> float:
    """Smallest constant whose subtraction keeps scores <= 0.

    The score of a normal belief is maximized at its mean; over beliefs of
    precision up to ``max_precision`` the peak is

        log rule:        max(0, log sqrt(tau / (2 pi)))
        quadratic rule:  max(0, (sqrt(2) - 1/2) sqrt(tau / pi) - 1)

    both attained at tau = max_precision. Returns 0 when scores are already
    non-positive.
    """
    if not (math.isfinite(max_precision) and max_precision > 0):
        raise ValidationError("max_precision must be a positive finite real")
    tau = max_precision
    if rule is ScoringRule.LOGARITHMIC:
        peak = 0.5 * math.log(tau / (2.0 * math.pi))
    else:
        peak = (math.sqrt(2.0) - 0.5) * math.sqrt(tau / math.pi) - 1.0
    return max(0.0, peak)

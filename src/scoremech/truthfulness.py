"""Analytic truthfulness classification for the three-slot prediction game.

Alice predicts, Bob predicts, Alice corrects, the outcome is revealed, and
each slot is paid its incremental score. If Alice shifts her reported signal
by c, her shifted report moves the interim posterior by alpha_g * c and
Bob's pooled posterior by alpha_h * c (see beliefs).
``deviation_criterion(rule, model, c)`` measures how much such a shift costs
her at equal payment weights: the divergence it causes in the pooled report
minus the divergence it forfeits in her first report, both read from
``scoring``'s closed forms. It is exactly ``-game.analytic_gain`` under the
constant schedule k = 1, so the criterion, the game and the Monte-Carlo
engine share one derivation:

* logarithmic rule: exactly quadratic in c, so its sign at any c != 0
  decides truthfulness globally;
* quadratic rule: bounded in c, with large-c limit
  -(sqrt(tau_pool) - sqrt(tau_single))/sqrt(pi), negative off two loci: on
  rho = sqrt(tau_A/tau_B) the pooled posterior ignores the shift and the
  criterion stays positive, and on rho = sqrt(tau_B/tau_A) it is
  identically zero.

Positive values mean deviating by c hurts Alice; truth-telling is optimal
iff the criterion is non-negative for every c. As c -> 0 each divergence
is -W q (alpha c)^2 (``scoring``'s weight and rate), so the pooled/forfeited
ratio tends to R = W(tau_pool) q(tau_pool) a_h^2 / (W(tau_single)
q(tau_single) a_g^2): the quadratic margin is 1 - R, and ``discounting``
and ``game.best_response`` read the same R.

The criterion is invariant to the players' actual signals; only the
model's precisions and correlation enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .beliefs import SignalModel
from .errors import ValidationError
from .scoring import ScoringRule, _divergence, _divergence_scale

__all__ = [
    "TruthfulnessVerdict",
    "deviation_criterion",
    "classify_log",
    "classify_quadratic",
]


@dataclass(frozen=True)
class TruthfulnessVerdict:
    """Classification result with the signed slack of the governing inequality.

    ``margin`` is in the inequality's normalized units: positive inside the
    truthful (or locally truthful) region, zero on its boundary.
    """

    globally_truthful: bool
    locally_truthful: bool
    margin: float

    def __post_init__(self) -> None:
        if self.globally_truthful and not self.locally_truthful:
            raise ValidationError("a globally truthful setting is also locally truthful")


def deviation_criterion(rule: ScoringRule, model: SignalModel, c: float) -> float:
    """Cost to Alice of shifting her signal by c, at equal payment weights.

    ``D(tau_pool, c a_h) - D(tau_single, c a_g)`` with D the rule's
    equal-precision divergence from ``scoring``; this is exactly
    ``-analytic_gain(model, rule, constant k = 1, c)``. For the log rule it
    is ``(c^2/2)(tau_single a_g^2 - tau_pool a_h^2)``; for the quadratic
    rule its large-c limit is -(sqrt(tau_pool) - sqrt(tau_single))/sqrt(pi)
    (see the module docstring for its two loci).

    Raises
    ------
    DegenerateCorrelationError
        If |rho| = 1: the pooled posterior is undefined.
    """
    first, pooled = _divergences(rule, model, c)
    return pooled - first


def _divergences(rule: ScoringRule, model: SignalModel, c: float) -> tuple[float, float]:
    """(first, pooled): the divergences that a shift c of Alice's signal
    causes in her first report and in Bob's pooled one."""
    return (_divergence(rule, model.tau_single, c * model.alpha_g),
            _divergence(rule, model.tau_pool, c * model.alpha_h))


def _curvatures(rule: ScoringRule, model: SignalModel) -> tuple[float, float, float, float]:
    """(R, tail, a, b) of a shift c of Alice's signal.

    Through ``scoring``'s weight W and rate q, the shift costs her first
    report W(tau_single) phi(a c^2) and the pooled one W(tau_pool)
    phi(b c^2), with a = q(tau_single) a_g^2 and b = q(tau_pool) a_h^2.
    R = W(tau_pool) b / (W(tau_single) a) is their ratio as c -> 0 and
    tail = W(tau_pool)/W(tau_single) the quadratic rule's ratio as c -> inf.
    R is a product of ratios, so that it stays finite where a or b under-
    or overflows, and the precision ratio meets each factor a_h/a_g in turn,
    so that no square of it leaves the normal range of float64 (at
    tau_A = 1e-92 and tau_B = 1e66, (a_h/a_g)^2 = 1e-316 kept 8 digits); it
    is 0 where a_h = 0.
    """
    w_first, q_first = _divergence_scale(rule, model.tau_single)
    w_pool, q_pool = _divergence_scale(rule, model.tau_pool)
    tail = w_pool / w_first
    shift = model.alpha_h / model.alpha_g
    ratio = tail * (q_pool / q_first * shift) * shift
    return ratio, tail, q_first * model.alpha_g**2, q_pool * model.alpha_h**2


def classify_log(model: SignalModel) -> TruthfulnessVerdict:
    """Classify the logarithmic-rule game.

    Truthful (and prompt) iff

        (1 - rho^2)^2 (1 + tau_C/tau_B)
            >= (rho^2 + tau_C/tau_A) (sqrt(tau_A/tau_B) - rho)^2,

    with the tie inclusive. |rho| = 1 is untruthful regardless of the
    inequality (the margin is still reported; at tau_A = tau_B and rho = 1
    it is zero even though the verdict is untruthful).

    For this rule the criterion is exactly quadratic in the shift, so local
    and global truthfulness coincide.
    """
    ta, tb, tc, rho = model.tau_a, model.tau_b, model.tau_c, model.rho
    one_minus_r2 = 1.0 - rho * rho
    lhs = one_minus_r2 * one_minus_r2 * (1.0 + tc / tb)
    rhs = (rho * rho + tc / ta) * (math.sqrt(ta / tb) - rho) ** 2
    margin = lhs - rhs
    truthful = margin >= 0.0 and not model.degenerate
    return TruthfulnessVerdict(
        globally_truthful=truthful, locally_truthful=truthful, margin=margin
    )


def classify_quadratic(model: SignalModel) -> TruthfulnessVerdict:
    """Classify the quadratic-rule game.

    Global truthfulness is never reported: a large enough shift always
    profits except on two measure-zero loci (see ``deviation_criterion``).
    On rho = sqrt(tau_A/tau_B) every shift strictly loses, and on
    rho = sqrt(tau_B/tau_A) no shift changes the expected score. Deviations
    never strictly profit on either locus and the criterion is
    non-negative for every c, yet ``globally_truthful`` is ``False`` there
    too, by convention. Local truthfulness holds iff the criterion's
    curvature at c = 0 is positive:

        margin = 1 - R = 1 - (tau_pool/tau_single)^{3/2} a_h^2 / a_g^2
                       = 1 - f^2 sqrt(tau_single/tau_pool) > 0,
        f = (1 - rho sqrt(tau_B/tau_A)) / (1 - rho^2).

    The margin involves tau_C through both posterior precisions. It is 1 on
    the zero-response locus and 0 on the neutral one; |rho| = 1 reports
    a margin of -inf.
    """
    if model.degenerate:
        return TruthfulnessVerdict(
            globally_truthful=False, locally_truthful=False, margin=-math.inf
        )
    margin = 1.0 - _curvatures(ScoringRule.QUADRATIC, model)[0]
    return TruthfulnessVerdict(
        globally_truthful=False, locally_truthful=margin > 0.0, margin=margin
    )

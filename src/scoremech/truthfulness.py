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
iff the criterion is non-negative for every c. The classifiers evaluate the
equivalent closed-form inequalities and report a signed margin.

The criterion is invariant to the players' actual signals; only the
model's precisions and correlation enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .beliefs import SignalModel
from .errors import NumericError, ValidationError
from .scoring import ScoringRule, _divergence

__all__ = [
    "TruthfulnessVerdict",
    "deviation_criterion",
    "classify_log",
    "classify_quadratic",
    "local_truthfulness_fd",
]

# Below this curvature magnitude the finite-difference test refuses to call
# a side: the model sits on the truthfulness boundary.
_CURVATURE_FLOOR = 1e-12


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
    return _divergence(rule, model.tau_pool, c * model.alpha_h) - _divergence(
        rule, model.tau_single, c * model.alpha_g
    )


def _quadratic_curvature_ratio(model: SignalModel) -> float:
    """c -> 0 limit of the quadratic pooled/forfeited divergence ratio.

    The quadratic divergence is -tau^{3/2} s^2 / (4 sqrt(pi)) + O(s^4), so
    the limit is (tau_pool/tau_single)^{3/2} a_h^2 / a_g^2. Raises
    DegenerateCorrelationError at |rho| = 1.
    """
    return (model.tau_pool / model.tau_single) ** 1.5 * (model.alpha_h / model.alpha_g) ** 2


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

        margin = 1 - (tau_pool/tau_single)^{3/2} a_h^2 / a_g^2
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
    margin = 1.0 - _quadratic_curvature_ratio(model)
    return TruthfulnessVerdict(
        globally_truthful=False, locally_truthful=margin > 0.0, margin=margin
    )


def local_truthfulness_fd(rule: ScoringRule, model: SignalModel) -> bool:
    """Numerically decide local truthfulness from criterion curvature at c = 0.

    Richardson-extrapolated central second differences (base step 1e-4) of
    ``deviation_criterion``. Positive curvature means infinitesimal shifts
    hurt, i.e. locally truthful.

    Raises
    ------
    NumericError
        If the extrapolated curvature magnitude falls below 1e-12; the model
        then sits on the boundary and the sign is not trustworthy.
    """

    def second_diff(h: float) -> float:
        # The criterion vanishes at c = 0, so the central stencil collapses.
        crit = deviation_criterion(rule, model, h) + deviation_criterion(rule, model, -h)
        return crit / (h * h)

    h = 1e-4
    coarse = second_diff(h)
    fine = second_diff(h / 2.0)
    curvature = (4.0 * fine - coarse) / 3.0
    if abs(curvature) < _CURVATURE_FLOOR:
        raise NumericError(
            "criterion curvature is below 1e-12; the model is on the "
            "truthfulness boundary"
        )
    return curvature > 0.0

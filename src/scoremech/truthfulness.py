"""Analytic truthfulness classification for the three-slot prediction game.

Alice predicts, Bob predicts, Alice corrects, the outcome is revealed, and
each slot is paid its incremental score. If Alice shifts her reported signal
by c, her shifted report moves the interim posterior by alpha_single * c and
Bob's pooled posterior by alpha_pair * c (see beliefs). The deviation
criterion functions below measure how much such a shift costs her:

* ``delta_log(model, c)``: for the logarithmic rule, proportional to the
  expected reward Alice forfeits by shifting; exactly quadratic in c, so its
  sign at any c != 0 decides truthfulness globally.
* ``delta_quadratic(model, c)``: the analogous criterion for the quadratic
  rule; bounded in c, with a negative large-c limit off two loci: on
  rho = sqrt(tau_A/tau_B) the pooled posterior ignores the shift and the
  criterion stays positive, and on rho = sqrt(tau_B/tau_A) it is
  identically zero.

Positive values mean deviating by c hurts Alice; truth-telling is optimal
iff the criterion is non-negative for every c. The classifiers evaluate the
equivalent closed-form inequalities and report a signed margin.

Both criterion functions are invariant to the players' actual signals; only
the model's precisions and correlation enter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .beliefs import SignalModel
from .errors import DegenerateCorrelationError, NumericError, ValidationError
from .scoring import ScoringRule

__all__ = [
    "TruthfulnessVerdict",
    "delta_log",
    "delta_quadratic",
    "classify_log",
    "classify_quadratic",
    "local_truthfulness_fd",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)

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


def _require_nondegenerate(model: SignalModel) -> None:
    if model.degenerate:
        raise DegenerateCorrelationError(
            "deviation criteria are undefined at |rho| = 1"
        )


def delta_log(model: SignalModel, c: float) -> float:
    """Log-rule deviation criterion at signal shift c.

    Closed form ``c^2 tau_A [ tau_A/(tau_A+tau_C) - (sqrt(tau_A) - rho
    sqrt(tau_B))^2 / ((1-rho^2)(sqrt(tau_A) - rho sqrt(tau_B))^2 +
    (1-rho^2)^2 (tau_B + tau_C)) ]``. Positive for all c != 0 exactly when
    the setting is promptly truthful under the logarithmic rule.
    """
    _require_nondegenerate(model)
    ta, tb, tc, rho = model.tau_a, model.tau_b, model.tau_c, model.rho
    gap = math.sqrt(ta) - rho * math.sqrt(tb)
    one_minus_r2 = 1.0 - rho * rho
    denom = one_minus_r2 * gap * gap + one_minus_r2 * one_minus_r2 * (tb + tc)
    return c * c * ta * (ta / (ta + tc) - gap * gap / denom)


def delta_quadratic(model: SignalModel, c: float) -> float:
    """Quadratic-rule deviation criterion at signal shift c.

    A difference of precision-weighted exponential brackets:

        (1/sqrt(2 pi)) { tau_ABC [exp(-(tau_ABC/4)(c a_h)^2) - 1]
                        - tau_AC  [exp(-(tau_AC /4)(c a_g)^2) - 1] }

    with (a_g, a_h) the signal-shift coefficients. The c -> inf limit is
    -(tau_ABC - tau_AC)/sqrt(2 pi), where tau_ABC - tau_AC =
    (rho sqrt(tau_A) - sqrt(tau_B))^2 / (1 - rho^2). It is negative except
    on two loci:

    * rho = sqrt(tau_A/tau_B), where a_h = 0: the shift cannot move the
      pooled posterior and the criterion stays positive for every c != 0,
      tending to tau_AC/sqrt(2 pi);
    * rho = sqrt(tau_B/tau_A) = sigma_A/sigma_B, where a_h != 0 but
      tau_ABC = tau_AC and a_h = a_g: the two brackets cancel and the
      criterion is identically zero.
    """
    _require_nondegenerate(model)
    tau_ac, tau_abc = model.tau_single, model.tau_pool
    bracket_h = math.expm1(-0.25 * tau_abc * (c * model.alpha_h) ** 2)
    bracket_g = math.expm1(-0.25 * tau_ac * (c * model.alpha_g) ** 2)
    return (tau_abc * bracket_h - tau_ac * bracket_g) / _SQRT_2PI


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
    profits except on two measure-zero loci (see ``delta_quadratic``). On
    rho = sqrt(tau_A/tau_B) every shift strictly loses, and on
    rho = sqrt(tau_B/tau_A) no shift changes the expected score. Deviations
    never strictly profit on either locus and the criterion is
    non-negative for every c, yet ``globally_truthful`` is ``False`` there
    too, by convention. Local truthfulness holds iff

        margin = 1 - ((1 - rho sqrt(tau_B/tau_A)) / (1 - rho^2))^2 > 0,

    which solves to 0 < rho < min(sqrt(tau_B/tau_A), rho*) with
    rho* = (-r + sqrt(r^2 + 8))/2, r = sqrt(tau_B/tau_A). The margin does
    not involve tau_C.
    """
    if model.degenerate:
        return TruthfulnessVerdict(
            globally_truthful=False, locally_truthful=False, margin=-math.inf
        )
    r = math.sqrt(model.tau_b / model.tau_a)
    f = (1.0 - model.rho * r) / (1.0 - model.rho**2)
    margin = 1.0 - f * f
    return TruthfulnessVerdict(
        globally_truthful=False, locally_truthful=margin > 0.0, margin=margin
    )


def local_truthfulness_fd(rule: ScoringRule, model: SignalModel) -> bool:
    """Numerically decide local truthfulness from criterion curvature at c = 0.

    Richardson-extrapolated central second differences (base step 1e-4) of
    the rule's deviation criterion. Positive curvature means infinitesimal
    shifts hurt, i.e. locally truthful.

    Raises
    ------
    NumericError
        If the extrapolated curvature magnitude falls below 1e-12; the model
        then sits on the boundary and the sign is not trustworthy.
    """
    crit = delta_log if rule is ScoringRule.LOGARITHMIC else delta_quadratic

    def second_diff(h: float) -> float:
        # crit(0) = 0 for both rules, so the central stencil collapses.
        return (crit(model, h) + crit(model, -h)) / (h * h)

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

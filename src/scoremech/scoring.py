"""Proper scoring rules for one-dimensional normal beliefs.

A belief is a normal distribution N(mean, 1/precision). Two strictly proper
rules are provided:

* logarithmic: ``S(p, x) = log p(x)``
* quadratic (Brier): ``S(p, x) = 2 p(x) - p.p - 1`` where ``p.p`` is the
  squared L2 norm of the density.

Expected scores ``S(p, q) = E_{x~q} S(p, x)`` have closed forms for any two
normal beliefs (Gneiting & Raftery 2007; tau_p, tau_q the precisions,
d = mean difference):

* logarithmic: ``(1/2) log(tau_p / 2 pi) - (tau_p / 2) (1/tau_q + d^2)``
* quadratic:   ``2 phi(d; 0, 1/tau_p + 1/tau_q) - sqrt(tau_p/pi)/2 - 1``

with phi(.; 0, v) the N(0, v) density. The divergence ``S(p, q) - S(q, q)``
is the propriety gap: non-positive, zero only at p = q.

Equal-precision divergences used throughout (tau = shared precision,
d = mean difference) are ``W phi(q d^2)``, which is ``-W q d^2`` near
d = 0, with a weight W and a rate q that ``_divergence_scale`` holds:

* logarithmic: ``W = 1``, ``q = tau/2``, ``phi(x) = -x``;
* quadratic:   ``W = sqrt(tau/pi)``, ``q = tau/4``, ``phi(x) = exp(-x) - 1``.

Realized scores are not non-positive for every belief: the log score is
positive wherever the density exceeds 1 (possible once tau > 2*pi) and the
quadratic score turns positive for tau above roughly 3.758. Layers that
require non-positive scores apply an affine shift; see the discounting module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "NormalBelief",
    "ScoringRule",
    "density",
    "selfdot",
    "score",
    "expected_score",
    "divergence",
]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class NormalBelief:
    """A normal belief N(mean, 1/precision) over a real outcome.

    Parameters
    ----------
    mean : float
        Location, in outcome units.
    precision : float
        Inverse variance; must be positive and finite.
    """

    mean: float
    precision: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean)):
            raise ValidationError(f"belief mean must be finite, got {self.mean}")
        if not (self.precision > 0.0 and math.isfinite(self.precision)):
            raise ValidationError(
                f"belief precision must be positive and finite, got {self.precision}"
            )

    @property
    def sigma(self) -> float:
        """Standard deviation, 1/sqrt(precision)."""
        return 1.0 / math.sqrt(self.precision)

    @property
    def variance(self) -> float:
        return 1.0 / self.precision


class ScoringRule(enum.Enum):
    """The two supported strictly proper scoring rules."""

    LOGARITHMIC = "logarithmic"
    QUADRATIC = "quadratic"


def density(belief: NormalBelief, x: float) -> float:
    """Density of the belief at x: sqrt(tau/2pi) exp(-tau (x-mu)^2 / 2)."""
    tau = belief.precision
    z = x - belief.mean
    return math.sqrt(tau / (2.0 * math.pi)) * math.exp(-0.5 * tau * z * z)


def selfdot(belief: NormalBelief) -> float:
    """Squared L2 norm of the density, ``integral of p(y)^2 dy``.

    For N(mu, 1/tau) this is the normal convolution identity
    ``sqrt(tau) / (2 sqrt(pi))``.
    """
    return 0.5 * math.sqrt(belief.precision / math.pi)


def score(rule: ScoringRule, p: NormalBelief, x):
    """Realized score of prediction p at outcome x, a float or an array.

    The logarithmic score is computed from the log-density directly, so it
    stays finite for any finite x and underflows to -inf only when the
    quadratic exponent overflows; -inf is propagated, never clamped.
    """
    return _score(rule, p.mean, p.precision, x)


def _score(rule: ScoringRule, mean, tau: float, x):
    """Score of N(mean, 1/tau) at x, elementwise over array mean and x."""
    z = x - mean
    if rule is ScoringRule.LOGARITHMIC:
        return 0.5 * (math.log(tau) - _LOG_2PI) - 0.5 * tau * z * z
    dens = math.sqrt(tau / (2.0 * math.pi)) * np.exp(-0.5 * tau * z * z)
    return 2.0 * dens - 0.5 * math.sqrt(tau / math.pi) - 1.0


def expected_score(
    rule: ScoringRule, predicted: NormalBelief, truth: NormalBelief
) -> float:
    """Score expectation ``E_{x~truth} score(rule, predicted, x)``.

    The closed forms quoted in the module docstring, for any two precisions.
    """
    tp = predicted.precision
    d = predicted.mean - truth.mean
    if rule is ScoringRule.LOGARITHMIC:
        return 0.5 * (math.log(tp) - _LOG_2PI) - 0.5 * tp * (1.0 / truth.precision + d * d)
    var = 1.0 / tp + 1.0 / truth.precision
    phi = math.exp(-0.5 * d * d / var) / math.sqrt(2.0 * math.pi * var)
    return 2.0 * phi - selfdot(predicted) - 1.0


def divergence(
    rule: ScoringRule, predicted: NormalBelief, truth: NormalBelief
) -> float:
    """Propriety gap ``expected_score(p, q) - expected_score(q, q)``.

    Equal precisions use the closed forms quoted in the module docstring,
    which keep the relative accuracy of small gaps; unequal precisions take
    the expected-score difference. Always <= 0, with equality iff the
    beliefs coincide.
    """
    if predicted.precision == truth.precision:
        return _divergence(rule, truth.precision, predicted.mean - truth.mean)
    return expected_score(rule, predicted, truth) - expected_score(rule, truth, truth)


def _divergence_scale(rule: ScoringRule, tau: float) -> tuple[float, float]:
    """Weight W and rate q of the equal-precision divergence at precision tau."""
    if rule is ScoringRule.LOGARITHMIC:
        return 1.0, 0.5 * tau
    return math.sqrt(tau / math.pi), 0.25 * tau


def _divergence(rule: ScoringRule, tau: float, shift: float) -> float:
    """Divergence of N(mu + shift, 1/tau) from N(mu, 1/tau), for any mu."""
    weight, rate = _divergence_scale(rule, tau)
    x = rate * shift * shift
    return weight * (-x if rule is ScoringRule.LOGARITHMIC else math.expm1(-x))

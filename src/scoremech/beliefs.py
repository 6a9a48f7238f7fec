"""The two-expert Gaussian signal model and its posterior updates.

An unknown outcome lambda carries a normal prior N(C0, 1/tau_C) (tau_C = 0
means uninformative). Alice and Bob observe noisy signals

    A0 = lambda + e_A,   B0 = lambda + e_B,

where (e_A, e_B) is zero-mean bivariate normal with precisions tau_A, tau_B
and correlation rho. Everything downstream works in signal coordinates
(A0, B0); `deprior_signal` converts a posterior announcement back to the
signal that explains it.

Posteriors are reported as NormalBelief values:

* ``posterior_single`` pools the prior with Alice's signal alone.
* ``posterior_pair`` pools the prior with both signals, accounting for the
  noise correlation.

Because all updates are linear-Gaussian, a shift c in Alice's reported signal
moves each posterior mean by a model constant times c and never changes
posterior precisions; `signal_shift_coefficients` exposes those constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DegenerateCorrelationError,
    UninformativeSignalError,
    ValidationError,
)
from .scoring import NormalBelief

__all__ = [
    "SignalModel",
    "PlayerSignal",
    "deprior_signal",
    "posterior_single",
    "posterior_pair",
    "signal_shift_coefficients",
    "lognormal_to_normal",
]


@dataclass(frozen=True)
class SignalModel:
    """Full description of the two-expert Gaussian setting.

    Parameters
    ----------
    tau_a, tau_b : float
        Signal precisions; both must be positive (informative signals).
    tau_c : float
        Prior precision; zero means an uninformative prior.
    rho : float
        Correlation of the signal noises, in [-1, 1]. |rho| = 1 is carried
        (the classifiers report on it) but posterior_pair rejects it.
    c0 : float
        Prior mean; ignored when tau_c = 0.
    """

    tau_a: float
    tau_b: float
    tau_c: float = 0.0
    rho: float = 0.0
    c0: float = 0.0

    def __post_init__(self) -> None:
        for name in ("tau_a", "tau_b", "tau_c", "rho", "c0"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        if self.tau_a <= 0.0 or self.tau_b <= 0.0:
            raise ValidationError("signal precisions tau_a, tau_b must be positive")
        if self.tau_c < 0.0:
            raise ValidationError("prior precision tau_c must be >= 0")
        if not -1.0 <= self.rho <= 1.0:
            raise ValidationError(f"rho must lie in [-1, 1], got {self.rho}")

    @property
    def degenerate(self) -> bool:
        """True when |rho| = 1 and the signals jointly pin down the outcome."""
        return abs(self.rho) == 1.0


@dataclass(frozen=True)
class PlayerSignal:
    """A raw signal observation: its mean and precision."""

    mean: float
    precision: float

    def __post_init__(self) -> None:
        if not (self.precision > 0.0 and math.isfinite(self.precision)):
            raise ValidationError("signal precision must be positive and finite")


def deprior_signal(
    prior_mean: float,
    prior_precision: float,
    posterior_mean: float,
    posterior_precision: float,
) -> PlayerSignal:
    """Recover the signal that turns the prior into the stated posterior.

    Inverts precision-weighted pooling: the returned signal has precision
    ``posterior_precision - prior_precision`` and mean chosen so that pooling
    it with the prior reproduces the posterior exactly.

    Raises
    ------
    UninformativeSignalError
        If the posterior is not strictly sharper than the prior.
    """
    if prior_precision < 0.0:
        raise ValidationError("prior precision must be >= 0")
    tau_sig = posterior_precision - prior_precision
    if tau_sig <= 0.0:
        raise UninformativeSignalError(
            "posterior precision must exceed prior precision; "
            f"got posterior {posterior_precision} vs prior {prior_precision}"
        )
    mean = (posterior_precision * posterior_mean - prior_precision * prior_mean) / tau_sig
    return PlayerSignal(mean=mean, precision=tau_sig)


def posterior_single(model: SignalModel, a0: float) -> NormalBelief:
    """Posterior over the outcome given the prior and Alice's signal alone.

    Precision-weighted pooling of N(c0, 1/tau_c) with N(a0, 1/tau_a); the
    correlation does not enter with a single signal.
    """
    tau = model.tau_a + model.tau_c
    mean = (model.tau_a * a0 + model.tau_c * model.c0) / tau
    return NormalBelief(mean=mean, precision=tau)


def _pair_weights(model: SignalModel) -> tuple[float, float, float, float]:
    """Numerator weights (on a0, b0, c0) and denominator of the pooled mean."""
    ta, tb, tc, rho = model.tau_a, model.tau_b, model.tau_c, model.rho
    cross = rho * math.sqrt(ta * tb)
    one_minus_r2 = 1.0 - rho * rho
    denom = ta - 2.0 * cross + tb + one_minus_r2 * tc
    return ta - cross, tb - cross, one_minus_r2 * tc, denom


def posterior_pair(model: SignalModel, a0: float, b0: float) -> NormalBelief:
    """Posterior over the outcome given the prior and both signals.

    Correlated noise shrinks the weight of the less informative signal; a
    negative weight is possible (the worse signal is partially subtracted).

    Raises
    ------
    DegenerateCorrelationError
        If |rho| = 1, where the two signals reveal the outcome exactly and
        the posterior precision is unbounded.
    """
    if model.degenerate:
        raise DegenerateCorrelationError(
            "signals with |rho| = 1 reveal the outcome exactly"
        )
    wa, wb, wc, denom = _pair_weights(model)
    mean = (wa * a0 + wb * b0 + wc * model.c0) / denom
    one_minus_r2 = 1.0 - model.rho**2
    cross = model.rho * math.sqrt(model.tau_a * model.tau_b)
    precision = (model.tau_a - 2.0 * cross + model.tau_b) / one_minus_r2 + model.tau_c
    return NormalBelief(mean=mean, precision=precision)


def signal_shift_coefficients(model: SignalModel) -> tuple[float, float]:
    """Per-unit movement of each posterior mean under a reported-signal shift.

    Returns ``(alpha_single, alpha_pair)``: if Alice reports her signal as
    a0 + c instead of a0, the single-signal posterior mean moves by
    ``alpha_single * c`` and the pooled posterior mean by ``alpha_pair * c``.
    Posterior precisions are unchanged by the shift.

    Raises
    ------
    DegenerateCorrelationError
        If |rho| = 1 (the pooled posterior does not exist there).
    """
    if model.degenerate:
        raise DegenerateCorrelationError(
            "signals with |rho| = 1 reveal the outcome exactly"
        )
    alpha_single = model.tau_a / (model.tau_a + model.tau_c)
    wa, _, _, denom = _pair_weights(model)
    return alpha_single, wa / denom


def lognormal_to_normal(observations: Iterable[float]) -> list[float]:
    """Map positive observations to the normal domain by elementwise log.

    Raises
    ------
    ValidationError
        On any non-positive observation.
    """
    out: list[float] = []
    for i, obs in enumerate(observations):
        if not obs > 0.0:
            raise ValidationError(
                f"observation {i} must be positive for a log transform, got {obs}"
            )
        out.append(math.log(obs))
    return out

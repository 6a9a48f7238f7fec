"""The two-expert Gaussian signal model and its posterior updates.

An unknown outcome lambda carries a normal prior N(C0, 1/tau_C) (tau_C = 0
means uninformative). Alice and Bob observe noisy signals

    A0 = lambda + e_A,   B0 = lambda + e_B,

where (e_A, e_B) is zero-mean bivariate normal with precisions tau_A, tau_B
and correlation rho. Everything downstream works in signal coordinates
(A0, B0).

Posteriors are reported as NormalBelief values:

* ``posterior_single`` pools the prior with Alice's signal alone.
* ``posterior_pair`` pools the prior with both signals, accounting for the
  noise correlation.

Because all updates are linear-Gaussian, a shift c in Alice's reported signal
moves each posterior mean by a model constant times c and never changes
posterior precisions. `SignalModel` derives both precisions and both
constants once, when it is built, as ``tau_single``, ``tau_pool``,
``alpha_g`` and ``alpha_h``. They are cached properties, so that at
|rho| = 1 the pooled two raise when read rather than when the model is
built. It writes both posterior means once, as ``single_mean`` and
``pair_mean`` (which also take arrays of signals); every other module
reads them from there.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import DegenerateCorrelationError, ValidationError
from .scoring import NormalBelief

__all__ = [
    "SignalModel",
    "posterior_single",
    "posterior_pair",
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
        (the classifiers report on it), but posterior_pair and the pooled
        quantities ``tau_pool`` and ``alpha_h`` raise
        DegenerateCorrelationError there.
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
        # Storing the derived values in the instance dict shadows their
        # cached properties, whose first read takes a lock. At |rho| = 1 the
        # pooled ones stay lazy, so that reading them still raises.
        derived = _SINGLE_DERIVED if self.degenerate else _DERIVED
        for name, value_of in derived:
            self.__dict__[name] = value_of(self)

    @property
    def degenerate(self) -> bool:
        """True when |rho| = 1 and the signals jointly pin down the outcome."""
        return abs(self.rho) == 1.0

    def _require_pooled(self) -> None:
        if self.degenerate:
            raise DegenerateCorrelationError(
                "signals with |rho| = 1 reveal the outcome exactly"
            )

    @functools.cached_property
    def tau_single(self) -> float:
        """Precision tau_A + tau_C of the posterior on Alice's signal alone."""
        return self.tau_a + self.tau_c

    @functools.cached_property
    def tau_pool(self) -> float:
        """Precision of the posterior on both signals (unbounded at |rho| = 1)."""
        self._require_pooled()
        ta, tb, rho = self.tau_a, self.tau_b, self.rho
        cross = rho * math.sqrt(ta * tb)
        return (ta - 2.0 * cross + tb) / (1.0 - rho * rho) + self.tau_c

    @functools.cached_property
    def alpha_g(self) -> float:
        """Single-signal posterior mean movement per unit shift of Alice's signal."""
        return self.tau_a / self.tau_single

    @functools.cached_property
    def alpha_h(self) -> float:
        """Pooled posterior mean movement per unit shift of Alice's signal."""
        wa, _, _, denom = self._pair_weights
        return wa / denom

    @functools.cached_property
    def _pair_weights(self) -> tuple[float, float, float, float]:
        """Numerator weights (on a0, b0, c0) and denominator of the pooled mean."""
        self._require_pooled()
        ta, tb, tc, rho = self.tau_a, self.tau_b, self.tau_c, self.rho
        cross = rho * math.sqrt(ta * tb)
        one_minus_r2 = 1.0 - rho * rho
        denom = ta - 2.0 * cross + tb + one_minus_r2 * tc
        return ta - cross, tb - cross, one_minus_r2 * tc, denom

    def single_mean(self, a0):
        """Posterior mean on Alice's signal alone; ``a0`` may be an array."""
        return (self.tau_a * a0 + self.tau_c * self.c0) / self.tau_single

    def pair_mean(self, a0, b0):
        """Posterior mean on both signals; ``a0`` and ``b0`` may be arrays.
        Raises DegenerateCorrelationError at |rho| = 1."""
        wa, wb, wc, denom = self._pair_weights
        return (wa * a0 + wb * b0 + wc * self.c0) / denom


# SignalModel's cached properties and their functions, each after the ones
# it reads; the pooled three follow the single-signal two.
_DERIVED = tuple(
    (name, SignalModel.__dict__[name].func)
    for name in ("tau_single", "alpha_g", "_pair_weights", "tau_pool", "alpha_h")
)
_SINGLE_DERIVED = _DERIVED[:2]


def posterior_single(model: SignalModel, a0: float) -> NormalBelief:
    """Posterior over the outcome given the prior and Alice's signal alone.

    Precision-weighted pooling of N(c0, 1/tau_c) with N(a0, 1/tau_a); the
    correlation does not enter with a single signal.
    """
    return NormalBelief(mean=model.single_mean(a0), precision=model.tau_single)


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
    return NormalBelief(mean=model.pair_mean(a0, b0), precision=model.tau_pool)


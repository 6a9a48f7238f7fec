"""Strategy-proof prediction mechanisms for Gaussian information settings.

Proper scoring rules over normal beliefs, posterior aggregation of
correlated signals, analytic truthfulness classification of the
Alice-Bob-Alice prediction game, discount schedules that restore prompt
truthfulness, a Monte-Carlo game engine, and a discounted logarithmic
market scoring rule run as an automated market maker.

The import loads only the numpy-free modules. ``game``, ``amm`` and the
names of ``__all__`` that their own ``__all__`` lists load on first
attribute access, so that the analytic commands never load numpy, the
Monte-Carlo engine or the market maker.
"""

import importlib

from .beliefs import SignalModel, posterior_pair, posterior_single
from .discounting import (
    DiscountSchedule,
    loss_bound,
    nonpositivity_shift,
    required_ratio_log,
    required_ratio_numeric,
    schedule_eval,
)
from .errors import (
    DegenerateCorrelationError,
    DiscountIneffectiveError,
    LogConsistencyError,
    MechanismError,
    NumericError,
    ValidationError,
)
from .scoring import (
    NormalBelief,
    ScoringRule,
    density,
    divergence,
    expected_score,
    score,
    selfdot,
)
from .truthfulness import (
    TruthfulnessVerdict,
    classify_log,
    classify_quadratic,
    deviation_criterion,
)

__version__ = "0.1.0"

__all__ = [
    "ABASubgame",
    "BestResponse",
    "DegenerateCorrelationError",
    "DiscountIneffectiveError",
    "DiscountSchedule",
    "ForumSchedule",
    "LogConsistencyError",
    "MarketState",
    "MechanismError",
    "NormalBelief",
    "NumericError",
    "OutcomeGrid",
    "Scenario",
    "ScoringRule",
    "SessionBatch",
    "SettlementReport",
    "SignalModel",
    "TradeRecord",
    "TruthfulnessVerdict",
    "ValidationError",
    "analytic_gain",
    "best_response",
    "binned_density",
    "binned_self_score",
    "classify_log",
    "classify_quadratic",
    "compare_mechanisms",
    "cost_function",
    "density",
    "deviation_criterion",
    "deviation_curve",
    "divergence",
    "draw_world",
    "draw_worlds",
    "expected_score",
    "loss_bound",
    "nonpositivity_shift",
    "open_market",
    "posterior_pair",
    "posterior_single",
    "price",
    "prices",
    "reduce_schedule",
    "replay",
    "required_ratio_log",
    "required_ratio_numeric",
    "run_mechanism",
    "run_mechanism_batch",
    "schedule_eval",
    "score",
    "selfdot",
    "settle",
    "simulate_sessions",
    "trade",
    "write_log",
    "__version__",
]

# The submodules that load on first access, in import order: ``amm``
# imports ``game`` anyway.
_SUBMODULES = ("game", "amm")


def __getattr__(name: str):
    """Load a submodule, or the public name of the first one whose
    ``__all__`` lists it, on first access and keep it here."""
    if name in _SUBMODULES or name in __all__:
        for submodule in _SUBMODULES:
            module = importlib.import_module(f".{submodule}", __name__)
            if name == submodule or name in module.__all__:
                value = module if name == submodule else getattr(module, name)
                globals()[name] = value
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})

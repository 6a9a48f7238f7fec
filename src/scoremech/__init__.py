"""Strategy-proof prediction mechanisms for Gaussian information settings.

Proper scoring rules over normal beliefs, posterior aggregation of
correlated signals, analytic truthfulness classification of the
Alice-Bob-Alice prediction game, discount schedules that restore prompt
truthfulness, a Monte-Carlo game engine, and a discounted logarithmic
market scoring rule run as an automated market maker.
"""

from .amm import (
    MarketState,
    OutcomeGrid,
    SessionBatch,
    SettlementReport,
    TradeRecord,
    binned_density,
    binned_self_score,
    cost_function,
    open_market,
    price,
    prices,
    replay,
    settle,
    simulate_sessions,
    trade,
    write_log,
)
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
from .game import (
    ABASubgame,
    BestResponse,
    ForumSchedule,
    Scenario,
    analytic_gain,
    best_response,
    compare_mechanisms,
    deviation_curve,
    draw_world,
    draw_worlds,
    reduce_schedule,
    run_mechanism,
    run_mechanism_batch,
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
    local_truthfulness_fd,
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
    "local_truthfulness_fd",
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

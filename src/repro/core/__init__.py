"""OmniFair core: declarative specs, weight translation, λ/Λ tuning."""

from .dsl import COMPOSITE_METRICS, DSLParseError, SpecSet, parse_spec
from .evaluation import (
    disparity_vector,
    evaluate_model,
    max_violation,
)
from .exceptions import (
    InfeasibleConstraintError,
    OmniFairError,
    SpecificationError,
)
from .fairness_metrics import (
    FairnessMetric,
    average_error_cost_parity,
    custom_metric,
    false_discovery_rate_parity,
    false_negative_rate_parity,
    false_omission_rate_parity,
    false_positive_rate_parity,
    misclassification_rate_parity,
    statistical_parity,
)
from .grouping import (
    by_attributes,
    by_groups,
    by_predicate,
    by_sensitive_attribute,
    intersectional,
)
from .executor import ExecutionBackend
from .history import HistoryPoint
from .kernels import CompiledConstraints, CompiledEvaluator
from .planner import (
    CandidateBatch,
    EvalResult,
    PlanContext,
    run_plan,
)
from .report import FitReport
from .spec import (
    Constraint,
    FairnessSpec,
    bind_specs,
    equalized_odds_specs,
    predictive_parity_specs,
)
from .strategies import (
    SearchStrategy,
    StrategyConfig,
    available_strategies,
    get_strategy,
    register_strategy,
    unregister_strategy,
)
from .weights import resolve_negative_weights

__all__ = [
    "parse_spec",
    "SpecSet",
    "DSLParseError",
    "COMPOSITE_METRICS",
    "HistoryPoint",
    "FitReport",
    "SearchStrategy",
    "StrategyConfig",
    "register_strategy",
    "unregister_strategy",
    "get_strategy",
    "available_strategies",
    "FairnessSpec",
    "Constraint",
    "bind_specs",
    "equalized_odds_specs",
    "predictive_parity_specs",
    "FairnessMetric",
    "statistical_parity",
    "misclassification_rate_parity",
    "false_positive_rate_parity",
    "false_negative_rate_parity",
    "false_omission_rate_parity",
    "false_discovery_rate_parity",
    "average_error_cost_parity",
    "custom_metric",
    "by_sensitive_attribute",
    "by_attributes",
    "by_groups",
    "by_predicate",
    "intersectional",
    "resolve_negative_weights",
    "CompiledConstraints",
    "CompiledEvaluator",
    "CandidateBatch",
    "EvalResult",
    "PlanContext",
    "run_plan",
    "ExecutionBackend",
    "evaluate_model",
    "max_violation",
    "disparity_vector",
    "OmniFairError",
    "SpecificationError",
    "InfeasibleConstraintError",
]

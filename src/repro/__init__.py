"""repro — reproduction of OmniFair (SIGMOD 2021).

A declarative, model-agnostic system for enforcing group fairness
constraints on black-box binary classifiers, plus the full substrate it
needs (from-scratch ML models, benchmark-dataset twins, and the baseline
fairness methods the paper compares against).

Quickstart (declarative DSL + layered facade)::

    from repro import fit_fair
    from repro.datasets import load_compas, two_group_view
    from repro.ml import LogisticRegression

    data = two_group_view(load_compas())
    model = fit_fair(LogisticRegression(), "SP <= 0.03", data)
    print(model.report.summary())
    model.save("fair.pkl")
"""

from .core import (
    Constraint,
    DSLParseError,
    FairnessMetric,
    FairnessSpec,
    FitReport,
    HistoryPoint,
    InfeasibleConstraintError,
    OmniFairError,
    SearchStrategy,
    SpecificationError,
    SpecSet,
    available_strategies,
    parse_spec,
    register_strategy,
)
from .datasets import Dataset
from .api import Engine, FairModel, Problem, fit_fair

__version__ = "12.1.0"

__all__ = [
    "Problem",
    "Engine",
    "FairModel",
    "fit_fair",
    "parse_spec",
    "SpecSet",
    "DSLParseError",
    "FairnessSpec",
    "FairnessMetric",
    "FitReport",
    "HistoryPoint",
    "SearchStrategy",
    "register_strategy",
    "available_strategies",
    "Constraint",
    "Dataset",
    "OmniFairError",
    "SpecificationError",
    "InfeasibleConstraintError",
    "__version__",
]

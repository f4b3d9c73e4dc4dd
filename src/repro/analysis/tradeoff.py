"""Accuracy–fairness trade-off frontiers (Figures 4, 7, 8, 10–13).

Each figure in the paper plots test accuracy against test disparity while
the method's knob sweeps: ε for OmniFair, repair level for Kamiran, target
gap for Calmon, covariance threshold for Zafar, ε for Agarwal/Celis.  The
functions here produce those point series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api import Engine
from ..baselines import (
    CelisMetaAlgorithm,
    ExponentiatedGradient,
    OptimizedPreprocessing,
    Reweighing,
    ZafarFairClassifier,
)
from ..baselines.base import NotSupportedError
from ..core.exceptions import InfeasibleConstraintError
from ..core.spec import FairnessSpec, bind_specs
from ..ml.metrics import accuracy_score, roc_auc_score

__all__ = ["FrontierPoint", "omnifair_frontier", "baseline_frontier"]


@dataclass
class FrontierPoint:
    """One point of a trade-off curve (test-set numbers)."""

    knob: float
    disparity: float
    accuracy: float
    roc_auc: float


def _point(model, test, spec, knob):
    pred = model.predict(test.X)
    constraint = bind_specs([spec], test)[0]
    try:
        auc = roc_auc_score(test.y, model.predict_proba(test.X)[:, 1])
    except (ValueError, AttributeError):
        auc = float("nan")
    return FrontierPoint(
        knob=float(knob),
        disparity=abs(constraint.disparity(test.y, pred)),
        accuracy=accuracy_score(test.y, pred),
        roc_auc=auc,
    )


def omnifair_frontier(
    train, val, test, estimator, metric="SP", epsilons=None,
    metric_obj=None, strategy="auto", **engine_options,
):
    """OmniFair trade-off: one point per ε.

    OmniFair covers the whole disparity axis because λ *monotonically*
    controls the trade-off (§7.2.1's key claim about Figure 4); tighter ε
    simply selects a larger λ on the same monotone path.  ``strategy``
    and ``engine_options`` build the :class:`~repro.api.Engine` that
    solves every ε.
    """
    if epsilons is None:
        epsilons = [0.01, 0.03, 0.05, 0.1, 0.15, 0.2]
    engine = Engine(strategy, **engine_options)
    points = []
    for eps in epsilons:
        spec = FairnessSpec(
            metric_obj if metric_obj is not None else metric, eps
        )
        try:
            fair = engine.solve([spec], estimator.clone(), train, val)
        except InfeasibleConstraintError:
            continue
        points.append(_point(fair, test, spec, eps))
    return points


def baseline_frontier(
    name, train, val, test, estimator=None, metric="SP", knobs=None,
):
    """A baseline's trade-off curve by sweeping its method-specific knob.

    ``name`` ∈ {"kamiran", "calmon", "zafar", "celis", "agarwal"}.
    Unsupported configurations return an empty list (how the NA entries in
    the figures render — the method's series is simply absent).
    """
    spec = FairnessSpec(metric, 1.0)  # reporting only; knob drives fairness
    points = []
    try:
        if name == "kamiran":
            for level in knobs if knobs is not None else np.linspace(0, 1, 6):
                m = Reweighing(
                    estimator=estimator, metric=metric, repair_level=level
                ).fit(train)
                points.append(_point(m.model_, test, spec, level))
        elif name == "calmon":
            for gap in knobs if knobs is not None else [0.0, 0.02, 0.05, 0.1, 0.2]:
                m = OptimizedPreprocessing(
                    estimator=estimator, metric=metric, target_gap=gap,
                    enforce_dataset_support=False,
                ).fit(train, val)
                points.append(_point(m.model_, test, spec, gap))
        elif name == "zafar":
            for c in knobs if knobs is not None else [0.0, 0.01, 0.05, 0.2, 1.0]:
                m = ZafarFairClassifier(
                    estimator=estimator, metric=metric, covariance_grid=[c]
                ).fit(train, None)
                points.append(_point(m.model_, test, spec, c))
        elif name == "celis":
            for eps in knobs if knobs is not None else [0.03, 0.05, 0.1, 0.2]:
                try:
                    m = CelisMetaAlgorithm(
                        estimator=estimator, metric=metric, epsilon=eps,
                        grid_size=5,
                    ).fit(train, val)
                except NotSupportedError:
                    continue
                points.append(_point(m.model_, test, spec, eps))
        elif name == "agarwal":
            for eps in knobs if knobs is not None else [0.01, 0.03, 0.1, 0.2]:
                m = ExponentiatedGradient(
                    estimator=estimator, metric=metric, epsilon=eps,
                    n_iterations=15,
                ).fit(train, val)
                points.append(_point(m.model_, test, spec, eps))
        else:
            raise KeyError(f"unknown baseline {name!r}")
    except NotSupportedError:
        return []
    return points

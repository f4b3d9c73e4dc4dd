"""Experiment runner encoding the paper's evaluation protocol (§7.1).

Every reported number in the paper is "the average performance of 10
different random [60/20/20] splits", with knobs tuned on the validation
split and results measured on the unseen test split.  The helpers here run
OmniFair or a baseline method under that protocol and aggregate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..api import Engine, Problem
from ..baselines.base import NotSupportedError
from ..core.exceptions import InfeasibleConstraintError
from ..core.spec import FairnessSpec, bind_specs
from ..ml import (
    GaussianNaiveBayes,
    GradientBoostedTrees,
    LogisticRegression,
    NeuralNetwork,
    RandomForest,
)
from ..ml.metrics import accuracy_score, roc_auc_score
from ..ml.model_selection import multi_split

__all__ = [
    "make_estimator",
    "SplitResult",
    "AggregateResult",
    "run_unconstrained",
    "run_omnifair",
    "run_baseline",
    "ESTIMATOR_FACTORIES",
]


def _small_lr():
    return LogisticRegression(max_iter=300)


def _small_rf():
    return RandomForest(n_estimators=15, max_depth=6)


def _small_xgb():
    return GradientBoostedTrees(n_estimators=20, max_depth=3)


def _small_nn():
    return NeuralNetwork(hidden_units=12, max_iter=200)


ESTIMATOR_FACTORIES = {
    "LR": _small_lr,
    "RF": _small_rf,
    "XGB": _small_xgb,
    "NN": _small_nn,
    # closed-form generative paradigm; the serving benchmark's default
    "NB": GaussianNaiveBayes,
}


def make_estimator(name):
    """Instantiate one of the paper's four ML algorithms by short name."""
    try:
        return ESTIMATOR_FACTORIES[name.upper()]()
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; known: {sorted(ESTIMATOR_FACTORIES)}"
        ) from None


@dataclass
class SplitResult:
    """One split's test-set outcome."""

    accuracy: float
    disparity: float
    roc_auc: float
    runtime: float
    feasible: bool


@dataclass
class AggregateResult:
    """Mean outcome over splits (the paper's reporting unit)."""

    method: str
    accuracy: float
    disparity: float
    roc_auc: float
    runtime: float
    n_feasible: int
    n_splits: int
    splits: list = field(default_factory=list)

    @property
    def supported(self):
        return self.n_feasible > 0


def _aggregate(method, splits):
    ok = [s for s in splits if s.feasible]
    if not ok:
        return AggregateResult(
            method=method, accuracy=np.nan, disparity=np.nan,
            roc_auc=np.nan, runtime=np.nan, n_feasible=0,
            n_splits=len(splits), splits=splits,
        )
    return AggregateResult(
        method=method,
        accuracy=float(np.mean([s.accuracy for s in ok])),
        disparity=float(np.mean([abs(s.disparity) for s in ok])),
        roc_auc=float(np.mean([s.roc_auc for s in ok])),
        runtime=float(np.mean([s.runtime for s in ok])),
        n_feasible=len(ok),
        n_splits=len(splits),
        splits=splits,
    )


def _test_metrics(model, test, spec):
    pred = model.predict(test.X)
    constraint = bind_specs([spec], test)[0]
    try:
        auc = roc_auc_score(test.y, model.predict_proba(test.X)[:, 1])
    except (ValueError, AttributeError):
        auc = float("nan")
    return (
        accuracy_score(test.y, pred),
        constraint.disparity(test.y, pred),
        auc,
    )


def _splits(dataset, n_splits, seed):
    strat = dataset.sensitive * 2 + dataset.y
    for tr, va, te in multi_split(
        len(dataset), n_splits=n_splits, seed=seed, stratify=strat
    ):
        yield dataset.subset(tr), dataset.subset(va), dataset.subset(te)


def run_unconstrained(dataset, estimator, metric="SP", n_splits=3, seed=0):
    """Baseline accuracy/disparity with no fairness constraint."""
    spec = FairnessSpec(metric, 1.0)
    results = []
    for train, val, test in _splits(dataset, n_splits, seed):
        t0 = time.perf_counter()
        model = estimator.clone().fit(train.X, train.y)
        runtime = time.perf_counter() - t0
        acc, disp, auc = _test_metrics(model, test, spec)
        results.append(SplitResult(acc, disp, auc, runtime, True))
    return _aggregate("Original", results)


def run_omnifair(
    dataset, estimator, metric="SP", epsilon=0.03, n_splits=3, seed=0,
    specs=None, strategy="auto", **engine_options,
):
    """OmniFair under the multi-split protocol, via the layered facade.

    ``specs`` overrides the default single ``FairnessSpec(metric, ε)``
    (e.g. for multi-constraint experiments) and may be a DSL string;
    test metrics are always reported for the first spec's constraint.
    ``strategy`` and ``engine_options`` (``negative_weights``,
    ``warm_start``, strategy knobs such as ``delta``, ...) build the
    :class:`~repro.api.Engine` every split is solved with.
    """
    report_spec = FairnessSpec(metric, epsilon)
    engine = Engine(strategy, **engine_options)
    problem = Problem(specs if specs is not None else [report_spec])
    results = []
    for train, val, test in _splits(dataset, n_splits, seed):
        t0 = time.perf_counter()
        try:
            fair_model = engine.solve(problem, estimator.clone(), train, val)
        except InfeasibleConstraintError:
            results.append(
                SplitResult(np.nan, np.nan, np.nan,
                            time.perf_counter() - t0, False)
            )
            continue
        runtime = time.perf_counter() - t0
        acc, disp, auc = _test_metrics(fair_model, test, report_spec)
        results.append(SplitResult(acc, disp, auc, runtime, True))
    return _aggregate("OmniFair", results)


def run_baseline(
    method_cls, dataset, estimator=None, metric="SP", epsilon=0.03,
    n_splits=3, seed=0, **method_kwargs,
):
    """A baseline method under the multi-split protocol.

    Unsupported metric/model combinations and per-split failures become
    infeasible splits; a method with zero feasible splits renders as NA in
    the benchmark tables (Table 5's NA(1)/NA(2)).
    """
    report_spec = FairnessSpec(metric, epsilon)
    results = []
    for train, val, test in _splits(dataset, n_splits, seed):
        est = estimator.clone() if estimator is not None else None
        t0 = time.perf_counter()
        try:
            method = method_cls(
                estimator=est, metric=metric, epsilon=epsilon,
                **method_kwargs,
            ).fit(train, val)
        except (NotSupportedError, InfeasibleConstraintError, ValueError):
            results.append(
                SplitResult(np.nan, np.nan, np.nan,
                            time.perf_counter() - t0, False)
            )
            continue
        runtime = time.perf_counter() - t0
        acc, disp, auc = _test_metrics(method.model_, test, report_spec)
        results.append(SplitResult(acc, disp, auc, runtime, True))
    return _aggregate(method_cls.NAME, results)

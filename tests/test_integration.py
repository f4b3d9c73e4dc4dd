"""End-to-end integration tests: OmniFair on every model family & metric.

These are the "does the whole system hold together" tests: declarative
spec → weight translation → λ tuning → fair model, for each of the paper's
four ML algorithms, for constant and model-parameterized metrics, for
custom metrics, and for the replication fallback.
"""

import numpy as np
import pytest

from repro import FairnessSpec, fit_fair
from repro.core.fairness_metrics import average_error_cost_parity
from repro.core.grouping import by_predicate
from repro.datasets import load_compas, two_group_view
from repro.ml import (
    GradientBoostedTrees,
    LogisticRegression,
    NeuralNetwork,
    RandomForest,
    ReplicationWrapper,
)
from repro.ml.model_selection import train_val_test_split


@pytest.fixture(scope="module")
def compas_splits():
    data = two_group_view(load_compas(n=1500, seed=3))
    strat = data.sensitive * 2 + data.y
    tr, va, te = train_val_test_split(len(data), seed=3, stratify=strat)
    return data.subset(tr), data.subset(va), data.subset(te)


MODEL_FACTORIES = {
    "LR": lambda: LogisticRegression(max_iter=150),
    "RF": lambda: RandomForest(n_estimators=10, max_depth=5),
    "XGB": lambda: GradientBoostedTrees(n_estimators=15, max_depth=3),
    "NN": lambda: NeuralNetwork(hidden_units=8, max_iter=120),
}


@pytest.mark.parametrize("name", list(MODEL_FACTORIES))
class TestModelAgnosticSP:
    """The paper's headline: any ML algorithm, unchanged, via weights."""

    def test_sp_constraint_satisfied_on_validation(self, name, compas_splits):
        train, val, _ = compas_splits
        fm = fit_fair(
            MODEL_FACTORIES[name](), FairnessSpec("SP", 0.05), train, val,
        )
        assert fm.report.validation["feasible"]

    def test_accuracy_not_destroyed(self, name, compas_splits):
        train, val, test = compas_splits
        fm = fit_fair(
            MODEL_FACTORIES[name](), FairnessSpec("SP", 0.05), train, val,
        )
        base = MODEL_FACTORIES[name]().fit(train.X, train.y)
        base_acc = float(np.mean(base.predict(test.X) == test.y))
        fair_acc = float(np.mean(fm.predict(test.X) == test.y))
        assert fair_acc > base_acc - 0.1


class TestMetricsEndToEnd:
    @pytest.mark.parametrize("metric", ["SP", "MR", "FPR", "FNR"])
    def test_constant_weight_metrics(self, metric, compas_splits):
        train, val, _ = compas_splits
        fm = fit_fair(
            LogisticRegression(max_iter=150), FairnessSpec(metric, 0.05),
            train, val,
        )
        assert fm.report.validation["feasible"]

    @pytest.mark.parametrize("metric", ["FOR", "FDR"])
    def test_parameterized_metrics(self, metric, compas_splits):
        train, val, _ = compas_splits
        fm = fit_fair(
            LogisticRegression(max_iter=150), FairnessSpec(metric, 0.05),
            train, val, delta=0.02,
        )
        assert fm.report.validation["feasible"]

    def test_custom_aec_metric(self, compas_splits):
        """Example 4: average-error-cost parity with asymmetric costs."""
        train, val, _ = compas_splits
        metric = average_error_cost_parity(cost_fp=1.0, cost_fn=2.0)
        fm = fit_fair(
            LogisticRegression(max_iter=150), FairnessSpec(metric, 0.05),
            train, val,
        )
        assert fm.report.validation["feasible"]


class TestCustomGroupingEndToEnd:
    def test_predicate_groups(self, compas_splits):
        """§4.3: groups defined by arbitrary user logic, not an attribute."""
        train, val, _ = compas_splits
        grouping = by_predicate(
            young=lambda d: d.X[:, 0] < 0.0,
            old=lambda d: d.X[:, 0] >= 0.0,
        )
        fm = fit_fair(
            LogisticRegression(max_iter=150),
            FairnessSpec("SP", 0.08, grouping=grouping), train, val,
        )
        assert fm.report.feasible


class TestReplicationFallback:
    def test_weightless_learner_via_replication(self, compas_splits):
        """§1: weighting simulated by replication for black boxes without
        a sample_weight parameter."""
        train, val, _ = compas_splits

        class NoWeightLR(LogisticRegression):
            def fit(self, X, y, sample_weight=None):
                if sample_weight is not None:
                    raise TypeError("this learner has no sample_weight")
                return super().fit(X, y)

        wrapped = ReplicationWrapper(
            NoWeightLR(max_iter=150), resolution=20, max_rows=100_000
        )
        fm = fit_fair(wrapped, FairnessSpec("SP", 0.06), train, val)
        assert fm.report.validation["feasible"]


class TestGeneralizationCaveat:
    def test_test_disparity_close_but_not_guaranteed(self, compas_splits):
        """§4 discussion: the model satisfies constraints on D_val; on an
        unseen test set the disparity should be *near* ε but there is no
        guarantee — assert a loose band, not exact satisfaction."""
        train, val, test = compas_splits
        fm = fit_fair(
            LogisticRegression(max_iter=150), FairnessSpec("SP", 0.03),
            train, val,
        )
        report = fm.audit(test)
        disparity = abs(list(report["disparities"].values())[0])
        assert disparity <= 0.15  # near ε=0.03, far below the raw 0.22 bias

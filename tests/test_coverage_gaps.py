"""Targeted tests for paths not covered elsewhere."""

import numpy as np
import pytest

from repro import Engine, FairnessSpec, fit_fair
from repro.analysis import baseline_frontier, omnifair_frontier
from repro.core.evaluation import (
    all_satisfied,
    disparity_vector,
    max_violation,
)
from repro.core.fairness_metrics import average_error_cost_parity
from repro.core.spec import bind_specs
from repro.ml import LinearSVM, LogisticRegression


class TestEvaluationHelpers:
    def test_max_violation_sign(self, two_group_splits):
        train, _, _ = two_group_splits
        constraints = bind_specs([FairnessSpec("SP", 0.5)], train)
        pred = np.zeros(len(train), dtype=np.int64)
        # constant prediction => zero disparity => violation negative
        assert max_violation(train.y, pred, constraints) < 0
        assert all_satisfied(train.y, pred, constraints)

    def test_disparity_vector_order(self, three_group_splits):
        train, _, _ = three_group_splits
        constraints = bind_specs([FairnessSpec("SP", 0.1)], train)
        pred = (train.X[:, 0] > 0).astype(np.int64)
        vec = disparity_vector(train.y, pred, constraints)
        assert vec.shape == (3,)
        for value, c in zip(vec, constraints):
            assert value == pytest.approx(c.disparity(train.y, pred))


class TestFrontierVariants:
    def test_omnifair_frontier_custom_metric_obj(self, two_group_splits):
        train, val, test = two_group_splits
        points = omnifair_frontier(
            train, val, test, LogisticRegression(max_iter=150),
            metric_obj=average_error_cost_parity(1.0, 2.0),
            epsilons=[0.1, 0.3],
        )
        assert points

    def test_calmon_frontier_runs(self, two_group_splits):
        train, val, test = two_group_splits
        points = baseline_frontier(
            "calmon", train, val, test,
            estimator=LogisticRegression(max_iter=150),
            knobs=[0.0, 0.2],
        )
        assert len(points) == 2

    def test_celis_frontier_handles_infeasible_knobs(self, two_group_splits):
        train, val, test = two_group_splits
        # epsilon=0.0 infeasible under MR → that knob is skipped
        points = baseline_frontier(
            "celis", train, val, test, metric="MR", knobs=[0.0, 0.3]
        )
        assert all(p.knob != 0.0 for p in points)

    def test_agarwal_frontier_runs(self, two_group_splits):
        train, val, test = two_group_splits
        points = baseline_frontier(
            "agarwal", train, val, test,
            estimator=LogisticRegression(max_iter=150), knobs=[0.1],
        )
        assert len(points) == 1


class TestSVMInOmniFair:
    def test_svm_is_tunable(self, two_group_splits):
        train, val, _ = two_group_splits
        fm = fit_fair(
            LinearSVM(max_iter=200), FairnessSpec("SP", 0.08), train, val,
        )
        assert fm.report.validation["feasible"]


class TestTrainerValSplit:
    def test_auto_split_is_stratified(self, two_group_data):
        """The internal split must keep every (group,label) cell present in
        both halves, or constraint binding would fail."""
        train, val = Engine._split_validation(two_group_data, 0.25, seed=0)
        for d in (train, val):
            cells = set(zip(d.sensitive.tolist(), d.y.tolist()))
            assert cells == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_val_fraction_respected(self, two_group_data):
        train, val = Engine._split_validation(two_group_data, 0.25, seed=0)
        assert len(val) == pytest.approx(0.25 * len(two_group_data), abs=2)


class TestMetricReprAndLabels:
    def test_metric_repr(self):
        from repro.core.fairness_metrics import (
            false_discovery_rate_parity,
            statistical_parity,
        )

        assert "constant" in repr(statistical_parity())
        assert "model-parameterized" in repr(false_discovery_rate_parity())

    def test_aec_name_embeds_costs(self):
        metric = average_error_cost_parity(2.0, 0.5)
        assert "2.0" in metric.name and "0.5" in metric.name

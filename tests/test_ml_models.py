"""Behavioural tests shared by all substrate classifiers.

Each model must: learn a separable problem well, emit valid probabilities,
respond to sample weights, and be deterministic given its seed.
"""

import pickle

import numpy as np
import pytest

from repro.ml import (
    DecisionTree,
    GradientBoostedTrees,
    LinearSVM,
    LogisticRegression,
    NeuralNetwork,
    RandomForest,
)

ALL_MODELS = [
    LogisticRegression,
    LinearSVM,
    DecisionTree,
    RandomForest,
    GradientBoostedTrees,
    NeuralNetwork,
]


@pytest.mark.parametrize("model_cls", ALL_MODELS)
class TestAllModels:
    def test_learns_separable(self, model_cls, xy_separable):
        X, y = xy_separable
        model = model_cls().fit(X, y)
        assert model.score(X, y) > 0.85

    def test_proba_shape_and_range(self, model_cls, xy_separable):
        X, y = xy_separable
        proba = model_cls().fit(X, y).predict_proba(X)
        assert proba.shape == (len(y), 2)
        assert np.all(proba >= 0) and np.all(proba <= 1)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_predict_binary(self, model_cls, xy_noisy):
        X, y = xy_noisy
        pred = model_cls().fit(X, y).predict(X)
        assert set(np.unique(pred)) <= {0, 1}

    def test_deterministic_given_seed(self, model_cls, xy_noisy):
        X, y = xy_noisy
        p1 = model_cls(random_state=5).fit(X, y).predict_proba(X)
        p2 = model_cls(random_state=5).fit(X, y).predict_proba(X)
        assert np.allclose(p1, p2)

    def test_sample_weight_shifts_predictions(self, model_cls, xy_noisy):
        X, y = xy_noisy
        base = model_cls().fit(X, y).predict(X).mean()
        w = np.where(y == 1, 10.0, 0.1)
        weighted = model_cls().fit(X, y, sample_weight=w).predict(X).mean()
        assert weighted > base  # up-weighting positives raises selection rate

    def test_uniform_weights_match_unweighted(self, model_cls, xy_noisy):
        X, y = xy_noisy
        a = model_cls(random_state=2).fit(X, y).predict(X)
        b = model_cls(random_state=2).fit(
            X, y, sample_weight=np.ones(len(y))
        ).predict(X)
        # bootstrap-based models resample identically under uniform weights
        assert np.mean(a == b) > 0.95

    def test_rejects_negative_weights(self, model_cls, xy_noisy):
        X, y = xy_noisy
        w = np.ones(len(y))
        w[0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            model_cls().fit(X, y, sample_weight=w)

    def test_single_feature(self, model_cls):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 1))
        y = (X[:, 0] > 0).astype(np.int64)
        assert model_cls().fit(X, y).score(X, y) > 0.9


class TestLogisticRegression:
    def test_decision_function_matches_proba(self, xy_separable):
        X, y = xy_separable
        m = LogisticRegression().fit(X, y)
        df = m.decision_function(X)
        p1 = m.predict_proba(X)[:, 1]
        assert np.all((df > 0) == (p1 > 0.5))

    def test_warm_start_converges_faster(self, xy_noisy):
        X, y = xy_noisy
        cold = LogisticRegression(warm_start=False, max_iter=400)
        cold.fit(X, y)
        first_iters = cold.n_iter_
        warm = LogisticRegression(warm_start=True, max_iter=400)
        warm.fit(X, y)
        warm.fit(X, y)  # second fit starts at the optimum
        assert warm.n_iter_ < first_iters

    def test_l2_shrinks_coefficients(self, xy_separable):
        X, y = xy_separable
        small = LogisticRegression(l2=1e-6).fit(X, y)
        large = LogisticRegression(l2=10.0).fit(X, y)
        assert np.linalg.norm(large.coef_) < np.linalg.norm(small.coef_)

    def test_warm_start_ignored_on_shape_change(self, xy_noisy):
        X, y = xy_noisy
        m = LogisticRegression(warm_start=True).fit(X, y)
        m.fit(X[:, :3], y)  # fewer features: must reinitialize
        assert m.coef_.shape == (3,)


class TestDecisionTree:
    def test_depth_limit_respected(self, xy_noisy):
        X, y = xy_noisy
        tree = DecisionTree(max_depth=3).fit(X, y)
        assert tree.depth_ <= 3

    def test_depth_zero_is_stump_prior(self, xy_noisy):
        X, y = xy_noisy
        tree = DecisionTree(max_depth=0).fit(X, y)
        assert tree.n_nodes_ == 1
        assert tree.predict_proba(X)[0, 1] == pytest.approx(y.mean())

    def test_pure_node_stops_splitting(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1, 1, 1, 1])
        tree = DecisionTree(max_depth=5).fit(X, y)
        assert tree.n_nodes_ == 1

    def test_min_samples_leaf(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 2))
        y = (X[:, 0] > 0).astype(np.int64)
        tree = DecisionTree(max_depth=10, min_samples_leaf=20).fit(X, y)
        # every leaf must hold >= 20 rows: at most 2 leaves from 50 rows
        leaves = np.sum(tree.feature_ == -1)
        assert leaves <= 2

    def test_zero_weight_rows_ignored(self):
        # rows with weight 0 carry a contradictory label; they must not
        # influence the fitted tree
        X = np.array([[0.0], [0.1], [1.0], [1.1], [0.05], [1.05]])
        y = np.array([0, 0, 1, 1, 1, 0])
        w = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0])
        tree = DecisionTree(max_depth=3).fit(X, y, sample_weight=w)
        assert tree.predict(np.array([[0.05]]))[0] == 0
        assert tree.predict(np.array([[1.05]]))[0] == 1

    def test_all_zero_weights_raise(self):
        with pytest.raises(ValueError, match="zero"):
            DecisionTree().fit(
                np.zeros((3, 1)), np.array([0, 1, 0]), np.zeros(3)
            )

    def test_row_on_a_threshold_goes_left(self):
        # the one descent compares X[row, feature] <= threshold
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        tree = DecisionTree(max_depth=1).fit(X, y)
        assert tree.threshold_[0] == 0.5
        rows = np.array([[0.5], [np.nextafter(0.5, 1.0)]])
        assert tree.predict(rows).tolist() == [0, 1]
        assert DecisionTree.predict_batch([tree], rows).tolist() == [[0, 1]]
        boosted = GradientBoostedTrees(n_estimators=1, max_depth=1).fit(X, y)
        raw = boosted.decision_function(np.vstack([X, rows]))
        assert raw[2] == raw[0] and raw[3] == raw[1] and raw[0] < raw[1]

    def test_constant_features_yield_stump(self):
        X = np.ones((20, 3))
        y = np.array([0, 1] * 10)
        tree = DecisionTree().fit(X, y)
        assert tree.n_nodes_ == 1


class TestRandomForest:
    def test_more_trees_smoother_probabilities(self, xy_noisy):
        X, y = xy_noisy
        few = RandomForest(n_estimators=2, random_state=0).fit(X, y)
        many = RandomForest(n_estimators=40, random_state=0).fit(X, y)
        assert len(np.unique(many.predict_proba(X)[:, 1])) >= len(
            np.unique(few.predict_proba(X)[:, 1])
        )

    def test_no_bootstrap_mode(self, xy_separable):
        X, y = xy_separable
        m = RandomForest(n_estimators=5, bootstrap=False).fit(X, y)
        assert m.score(X, y) > 0.85

    def test_max_features_sqrt_resolution(self):
        m = RandomForest(max_features="sqrt")
        assert m._resolve_max_features(16) == 4
        assert m._resolve_max_features(1) == 1


class TestGradientBoostedTrees:
    def test_boosting_improves_on_stump(self, xy_noisy):
        X, y = xy_noisy
        one = GradientBoostedTrees(n_estimators=1, max_depth=1).fit(X, y)
        many = GradientBoostedTrees(n_estimators=40, max_depth=3).fit(X, y)
        assert many.score(X, y) > one.score(X, y)

    def test_base_score_is_weighted_log_odds(self):
        X = np.random.default_rng(0).normal(size=(100, 2))
        y = np.array([1] * 80 + [0] * 20)
        m = GradientBoostedTrees(n_estimators=1).fit(X, y)
        assert m.base_score_ == pytest.approx(np.log(0.8 / 0.2), abs=1e-6)

    def test_learning_rate_scales_updates(self, xy_noisy):
        X, y = xy_noisy
        slow = GradientBoostedTrees(n_estimators=3, learning_rate=0.01).fit(X, y)
        raw = slow.decision_function(X)
        # tiny learning rate keeps scores near the base score
        assert np.all(np.abs(raw - slow.base_score_) < 0.5)

    @pytest.mark.parametrize("n", [2_000, 20_000])
    def test_pickle_does_not_grow_with_training_rows(self, n):
        # each round is kept as its five node arrays; 5.x kept the
        # round's builder with X, g and h (11.5 MB at 20k rows)
        rng = np.random.default_rng(4)
        X = rng.normal(size=(n, 4))
        y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(np.int64)
        model = GradientBoostedTrees(n_estimators=20, max_depth=3).fit(X, y)
        assert len(pickle.dumps(model)) < 64 * 1024


TREE_MODELS = [
    lambda: DecisionTree(max_depth=4),
    lambda: RandomForest(n_estimators=3, max_depth=4),
    lambda: GradientBoostedTrees(n_estimators=3, max_depth=2),
]


class TestTreeInputWidth:
    @pytest.mark.parametrize("extra", [-1, 1], ids=["d-1", "d+1"])
    @pytest.mark.parametrize(
        "factory", TREE_MODELS,
        ids=["DecisionTree", "RandomForest", "GradientBoostedTrees"],
    )
    def test_wrong_width_is_refused(self, factory, extra, xy_noisy):
        X, y = xy_noisy
        d = X.shape[1]
        model = factory().fit(X, y)
        assert model.n_features_in_ == d
        rows = np.zeros((3, d + extra))
        pattern = rf"X has {d + extra} features, but \w+ was fitted on {d}"
        with pytest.raises(ValueError, match=pattern):
            model.predict(rows)
        with pytest.raises(ValueError, match=pattern):
            model.decision_function(rows)
        if isinstance(model, DecisionTree):
            with pytest.raises(ValueError, match=pattern):
                DecisionTree.predict_batch([model, model], rows)

    def test_presort_argument_is_gone(self):
        with pytest.raises(TypeError):
            DecisionTree(presort=False)
        with pytest.raises(TypeError):
            GradientBoostedTrees(presort=True)


class TestNeuralNetwork:
    def test_learns_xor(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(400, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(np.int64)
        m = NeuralNetwork(hidden_units=16, max_iter=600, learning_rate=0.3)
        assert m.fit(X, y).score(X, y) > 0.9  # linear models cannot do this

    def test_warm_start_reuses_params(self, xy_noisy):
        X, y = xy_noisy
        m = NeuralNetwork(warm_start=True, max_iter=50)
        m.fit(X, y)
        w_before = m._params["W1"].copy()
        m.fit(X, y)
        # warm start continues from previous weights, not reinitialized
        assert not np.allclose(m._params["W1"], w_before) or m.max_iter == 0

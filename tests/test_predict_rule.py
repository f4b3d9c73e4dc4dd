"""The one lone-predict rule: labels from the log-odds, bit for bit.

``BaseClassifier.predict`` labels LR, NB and GBT from their log-odds
``t`` (``labels_from_log_odds``) instead of thresholding the ``(n, 2)``
``predict_proba`` matrix.  These tests pin that the labels are those of
``predict_proba(X)[:, 1] >= 0.5`` to the bit — including the band just
below 0 where ``sigmoid`` rounds to exactly 0.5 — and that the batch
scoring rewrites equal the expressions they replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    GaussianNaiveBayes,
    GradientBoostedTrees,
    LogisticRegression,
)
from repro.ml.base import labels_from_log_odds, sigmoid


def _reference(t):
    return (sigmoid(t) >= 0.5).astype(np.int64)


_BAND_EDGE = [-1e-12, np.nextafter(-1e-12, 0.0), np.nextafter(-1e-12, -1.0)]
_SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
            2.2250738585072014e-308, -2.2250738585072014e-308, *_BAND_EDGE]

log_odds = st.one_of(
    st.integers(0, 2**20).map(lambda k: -k * 2.0**-62),
    st.integers(0, 2**20).map(lambda k: -k * 2.0**-56),
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(-1e-11, 1e-11),
)


class TestLabelsFromLogOdds:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(log_odds, min_size=1, max_size=40))
    def test_equals_sigmoid_threshold(self, values):
        t = np.array(values, dtype=np.float64)
        assert np.array_equal(labels_from_log_odds(t), _reference(t))

    def test_dense_ladders_below_zero(self):
        k = np.arange(2**20 + 1, dtype=np.float64)
        for scale in (2.0**-62, 2.0**-56):
            t = -k * scale
            assert np.array_equal(labels_from_log_odds(t), _reference(t))

    def test_specials_and_band_edge(self):
        t = np.array(_SPECIAL)
        got = labels_from_log_odds(t)
        assert np.array_equal(got, _reference(t))
        assert got.dtype == np.int64
        # the band is not empty: sigmoid rounds to exactly 0.5 here
        assert sigmoid(np.array([-1e-17]))[0] == 0.5
        assert labels_from_log_odds(np.array([-1e-17]))[0] == 1

    def test_c_ordered_from_a_transposed_input(self):
        t = np.random.default_rng(0).normal(size=(7, 5)).T
        got = labels_from_log_odds(t)
        assert got.flags["C_CONTIGUOUS"]
        assert np.array_equal(got, _reference(t))


def _weighted_problem(seed, n=150):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 8))
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0) + rng.uniform(-50, 50)
    y = (X[:, 0] + rng.normal(scale=X[:, 0].std() + 1e-9, size=n)
         > np.median(X[:, 0])).astype(np.int64)
    y[:2] = (0, 1)
    return X, y, rng.uniform(0.05, 3.0, size=n)


MODELS = [
    pytest.param(lambda: LogisticRegression(max_iter=60), id="LR-lbfgs"),
    pytest.param(lambda: LogisticRegression(solver="irls", max_iter=30),
                 id="LR-irls"),
    pytest.param(GaussianNaiveBayes, id="NB"),
    pytest.param(lambda: GradientBoostedTrees(n_estimators=6), id="GBT"),
]


class TestModelsPredictFromLogOdds:
    @pytest.mark.parametrize("make", MODELS)
    @pytest.mark.parametrize("seed", range(6))
    def test_predict_is_proba_threshold(self, make, seed):
        X, y, w = _weighted_problem(seed)
        model = make().fit(X, y, sample_weight=w)
        expected = (model.predict_proba(X)[:, 1] >= 0.5).astype(np.int64)
        assert np.array_equal(model.predict(X), expected)

    @pytest.mark.parametrize("seed", range(20))
    def test_nb_proba_is_sigmoid_of_log_odds(self, seed):
        X, y, w = _weighted_problem(seed, n=300)
        model = GaussianNaiveBayes().fit(X, y, sample_weight=w)
        # a 1e200 row makes both joint log-likelihoods -inf: NaN either way
        probe = np.vstack([X, X * 50.0, X[:, ::-1], np.full_like(X[:1], 1e200)])
        with np.errstate(over="ignore", invalid="ignore"):
            proba = model.predict_proba(probe)[:, 1]
            from_log_odds = sigmoid(model._log_odds(probe))
        assert np.array_equal(proba, from_log_odds, equal_nan=True)

    @pytest.mark.parametrize("layout", ["C", "F", "rows", "cols"])
    def test_nb_joint_log_likelihood_unchanged(self, layout):
        # the 11.0.0 expression, with its temporaries
        def reference(model, X):
            jll = np.zeros((len(X), 2))
            for k in (0, 1):
                log_prior = np.log(max(model.class_prior_[k], 1e-300))
                log_det = -0.5 * np.sum(np.log(2.0 * np.pi * model.var_[k]))
                quad = -0.5 * np.sum(
                    (X - model.theta_[k]) ** 2 / model.var_[k], axis=1
                )
                jll[:, k] = log_prior + log_det + quad
            return jll

        X, y, w = _weighted_problem(3, n=400)
        X = np.hstack([X] * 4)   # 4–28 columns, so rows reduce pairwise
        model = GaussianNaiveBayes().fit(X, y, sample_weight=w)
        probe = {
            "C": X, "F": np.asfortranarray(X),
            "rows": np.repeat(X, 2, axis=0)[::2],
            "cols": np.repeat(X, 2, axis=1)[:, ::2],
        }[layout]
        assert np.array_equal(
            model._joint_log_likelihood(probe), reference(model, probe)
        )

    def test_planted_near_tie_predicts_one(self):
        # sigmoid(-1e-17) is exactly 0.5, so the label is 1; a plain
        # ``t >= 0`` rule would say 0
        model = LogisticRegression()
        model.coef_ = np.zeros(3)
        model.intercept_ = -1e-17
        model._fitted = True
        X = np.zeros((4, 3))
        assert model.predict_proba(X)[0, 1] == 0.5
        assert model.predict(X).tolist() == [1, 1, 1, 1]
        assert LogisticRegression.predict_batch([model, model], X).tolist() \
            == [[1] * 4] * 2

    def test_subclass_overriding_only_predict_proba_keeps_its_own(self):
        class Swapped(GaussianNaiveBayes):
            def predict_proba(self, X):
                return super().predict_proba(X)[:, ::-1]

        X, y, w = _weighted_problem(1)
        model = Swapped().fit(X, y, sample_weight=w)
        plain = GaussianNaiveBayes().fit(X, y, sample_weight=w)
        assert np.array_equal(model.predict(X), 1 - plain.predict(X))
        assert np.array_equal(
            model.predict(X),
            (model.predict_proba(X)[:, 1] >= 0.5).astype(np.int64),
        )

    def test_subclass_decision_function_override_holds(self):
        class Flipped(LogisticRegression):
            def decision_function(self, X):
                return -super().decision_function(X)

        X, y, w = _weighted_problem(2)
        model = Flipped(max_iter=40).fit(X, y, sample_weight=w)
        assert np.array_equal(
            model.predict(X),
            (model.predict_proba(X)[:, 1] >= 0.5).astype(np.int64),
        )


class TestBatchScoringUnchanged:
    """``predict_batch`` equals its 11.0.0 expression, bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_lr_predict_batch(self, seed):
        X, y, w = _weighted_problem(seed)
        rng = np.random.default_rng(seed)
        models = LogisticRegression(solver="irls").fit_weighted_batch(
            X, np.tile(y, (5, 1)), rng.uniform(0.1, 2.0, size=(5, len(y))),
        )
        coefs = np.stack([m.coef_ for m in models])
        intercepts = np.array([m.intercept_ for m in models])
        scores = X @ coefs.T + intercepts[None, :]
        expected = (sigmoid(scores.T) >= 0.5).astype(np.int64)
        got = LogisticRegression.predict_batch(models, X)
        assert got.flags["C_CONTIGUOUS"] and got.dtype == np.int64
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_nb_predict_batch(self, seed):
        X, y, w = _weighted_problem(seed)
        rng = np.random.default_rng(seed)
        models = GaussianNaiveBayes().fit_weighted_batch(
            X, np.tile(y, (5, 1)), rng.uniform(0.1, 2.0, size=(5, len(y))),
        )
        B, d = len(models), X.shape[1]
        theta = np.stack([m.theta_ for m in models])
        var = np.stack([m.var_ for m in models])
        prior = np.stack([m.class_prior_ for m in models])
        center = X.mean(axis=0)
        Xc = X - center
        theta_c = theta - center
        quad = (-0.5 / var).reshape(B * 2, d)
        lin = (theta_c / var).reshape(B * 2, d)
        const = (
            np.log(np.maximum(prior, 1e-300))
            - 0.5 * np.sum(np.log(2.0 * np.pi * var), axis=2)
            - 0.5 * np.sum(theta_c * theta_c / var, axis=2)
        ).reshape(B * 2)
        scores = ((Xc * Xc) @ quad.T + Xc @ lin.T + const).reshape(
            len(X), B, 2)
        expected = (scores[:, :, 1] >= scores[:, :, 0]).T.astype(np.int64)
        assert np.array_equal(
            GaussianNaiveBayes.predict_batch(models, X), expected
        )

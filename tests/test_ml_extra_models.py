"""Tests for the extra substrate models (NB, k-NN) and model persistence."""

import numpy as np
import pytest

from repro import FairnessSpec, fit_fair
from repro.ml import (
    GaussianNaiveBayes,
    KNearestNeighbors,
    LogisticRegression,
    ModelFormatError,
    load_model,
    save_model,
)

EXTRA_MODELS = [GaussianNaiveBayes, KNearestNeighbors]


@pytest.mark.parametrize("model_cls", EXTRA_MODELS)
class TestExtraModels:
    def test_learns_separable(self, model_cls, xy_separable):
        X, y = xy_separable
        assert model_cls().fit(X, y).score(X, y) > 0.85

    def test_proba_valid(self, model_cls, xy_noisy):
        X, y = xy_noisy
        proba = model_cls().fit(X, y).predict_proba(X)
        assert np.all((proba >= 0) & (proba <= 1))
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_weights_shift_predictions(self, model_cls, xy_noisy):
        X, y = xy_noisy
        base = model_cls().fit(X, y).predict(X).mean()
        w = np.where(y == 1, 10.0, 0.1)
        up = model_cls().fit(X, y, sample_weight=w).predict(X).mean()
        assert up > base

    def test_rejects_negative_weights(self, model_cls, xy_noisy):
        X, y = xy_noisy
        w = np.ones(len(y))
        w[0] = -1
        with pytest.raises(ValueError, match="non-negative"):
            model_cls().fit(X, y, sample_weight=w)

    def test_clone_protocol(self, model_cls):
        c = model_cls().clone()
        assert isinstance(c, model_cls)

    def test_works_inside_omnifair(self, model_cls, two_group_splits):
        """The whole point of adding these: more training paradigms that
        OmniFair drives unchanged."""
        train, val, _ = two_group_splits
        fm = fit_fair(model_cls(), FairnessSpec("SP", 0.08), train, val)
        assert fm.report.validation["feasible"]


class TestGaussianNaiveBayes:
    def test_weighted_prior_matches_weights(self, xy_noisy):
        X, y = xy_noisy
        w = np.where(y == 1, 3.0, 1.0)
        nb = GaussianNaiveBayes().fit(X, y, sample_weight=w)
        expected = (3.0 * y.sum()) / (3.0 * y.sum() + (len(y) - y.sum()))
        assert nb.class_prior_[1] == pytest.approx(expected)

    def test_variance_smoothing_keeps_finite(self):
        X = np.zeros((10, 2))  # zero variance features
        y = np.array([0, 1] * 5)
        nb = GaussianNaiveBayes().fit(X, y)
        assert np.all(np.isfinite(nb.predict_proba(X)))

    def test_single_class_degenerates_gracefully(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        y = np.array([0, 1] + [1] * 8)
        w = np.array([0.0] + [1.0] * 9)  # class 0 carries no weight
        nb = GaussianNaiveBayes().fit(X, y, sample_weight=w)
        assert nb.predict(X).min() >= 0


class TestKNN:
    def test_k_larger_than_train_clamped(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 1, 1])
        m = KNearestNeighbors(n_neighbors=50).fit(X, y)
        assert m.predict(np.array([[1.5]]))[0] == 1

    def test_zero_weight_rows_cannot_vote(self):
        X = np.array([[0.0], [0.1], [1.0]])
        y = np.array([1, 1, 0])
        w = np.array([0.0, 0.0, 1.0])  # only the y=0 row votes
        m = KNearestNeighbors(n_neighbors=3).fit(X, y, sample_weight=w)
        assert m.predict(np.array([[0.05]]))[0] == 0

    def test_chunked_equals_single_block(self, xy_noisy):
        X, y = xy_noisy
        small = KNearestNeighbors(chunk_size=17).fit(X, y)
        large = KNearestNeighbors(chunk_size=10_000).fit(X, y)
        assert np.allclose(small.predict_proba(X), large.predict_proba(X))


class TestPersistence:
    def test_roundtrip_estimator(self, xy_noisy, tmp_path):
        X, y = xy_noisy
        model = LogisticRegression(max_iter=150).fit(X, y)
        path = tmp_path / "model.pkl"
        save_model(model, path)
        loaded = load_model(path)
        assert np.allclose(loaded.predict_proba(X), model.predict_proba(X))

    def test_roundtrip_omnifair(self, two_group_splits, tmp_path):
        train, val, test = two_group_splits
        fm = fit_fair(
            LogisticRegression(max_iter=150), FairnessSpec("SP", 0.05),
            train, val,
        )
        path = tmp_path / "fair.pkl"
        save_model(fm, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.predict(test.X), fm.predict(test.X))

    def test_bad_file_raises(self, tmp_path):
        path = tmp_path / "junk.pkl"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_wrong_envelope_raises(self, tmp_path):
        import pickle

        path = tmp_path / "dict.pkl"
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(ModelFormatError, match="bad envelope"):
            load_model(path)

    def test_future_format_rejected(self, tmp_path):
        import pickle

        path = tmp_path / "future.pkl"
        path.write_bytes(
            pickle.dumps(
                {"magic": "repro-model", "format_version": 99, "model": None}
            )
        )
        with pytest.raises(ModelFormatError, match="newer"):
            load_model(path)

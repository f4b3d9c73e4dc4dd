"""Tests for repro.ml.base: validation helpers and estimator protocol."""

import warnings

import numpy as np
import pytest

from repro.ml.base import check_sample_weight, check_Xy, clone
from repro.ml.logistic import LogisticRegression


class TestCheckXy:
    def test_converts_lists(self):
        X, y = check_Xy([[1, 2], [3, 4]], [0, 1])
        assert X.dtype == np.float64
        assert y.dtype == np.int64

    def test_reshapes_1d_X(self):
        X, _ = check_Xy([1.0, 2.0, 3.0])
        assert X.shape == (3, 1)

    def test_rejects_3d_X(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            check_Xy(np.zeros((2, 2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            check_Xy([[np.nan, 1.0]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            check_Xy([[np.inf, 1.0]])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="rows but"):
            check_Xy([[1.0], [2.0]], [0])

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError, match="binary"):
            check_Xy([[1.0], [2.0]], [0, 2])

    def test_rejects_fractional_float_labels(self):
        # a cast would truncate these to [0, 0, 1, 1, 0, 1] and accept
        y = [0.9, 0.2, 1.0, 1.7, 0.0, 1.0]
        with pytest.raises(ValueError, match=r"labels \[0\.2 0\.9 1\.7\]"):
            check_Xy(np.zeros((6, 1)), y)

    def test_rejects_nan_labels_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="binary") as err:
                check_Xy(np.zeros((3, 1)), [0.0, np.nan, 1.0])
        assert "nan" in str(err.value)
        assert "-9223372036854775808" not in str(err.value)

    def test_accepts_int_labels(self):
        _, y = check_Xy(np.zeros((3, 1)), np.array([0, 1, 1], dtype=np.int32))
        assert y.dtype == np.int64 and y.tolist() == [0, 1, 1]

    def test_accepts_bool_labels(self):
        _, y = check_Xy(np.zeros((3, 1)), np.array([True, False, True]))
        assert y.dtype == np.int64 and y.tolist() == [1, 0, 1]

    def test_rejects_2d_y(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            check_Xy([[1.0], [2.0]], [[0], [1]])

    def test_none_y_passthrough(self):
        X, y = check_Xy([[1.0]], None)
        assert y is None


class TestCheckSampleWeight:
    def test_none_becomes_uniform(self):
        w = check_sample_weight(None, 5)
        assert np.array_equal(w, np.ones(5))

    def test_valid_weights_pass(self):
        w = check_sample_weight([0.5, 1.5, 0.0], 3)
        assert w.tolist() == [0.5, 1.5, 0.0]

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            check_sample_weight([1.0, -0.1], 2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            check_sample_weight([1.0, 1.0], 3)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            check_sample_weight([np.nan, 1.0], 2)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError, match="zero"):
            check_sample_weight([0.0, 0.0], 2)


class TestEstimatorProtocol:
    def test_get_params_roundtrip(self):
        m = LogisticRegression(learning_rate=0.2, l2=0.01)
        params = m.get_params()
        assert params["learning_rate"] == 0.2
        assert params["l2"] == 0.01

    def test_set_params_updates(self):
        m = LogisticRegression()
        m.set_params(max_iter=7)
        assert m.max_iter == 7

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError, match="Unknown parameter"):
            LogisticRegression().set_params(bogus=1)

    def test_clone_copies_hyperparameters(self):
        m = LogisticRegression(l2=0.5)
        c = clone(m)
        assert c is not m
        assert c.l2 == 0.5

    def test_clone_is_unfitted(self, xy_separable):
        X, y = xy_separable
        m = LogisticRegression().fit(X, y)
        c = m.clone()
        with pytest.raises(RuntimeError, match="not fitted"):
            c.predict_proba(X)

    def test_score_is_accuracy(self, xy_separable):
        X, y = xy_separable
        m = LogisticRegression().fit(X, y)
        pred = m.predict(X)
        assert m.score(X, y) == pytest.approx(np.mean(pred == y))

    def test_weighted_score(self, xy_separable):
        X, y = xy_separable
        m = LogisticRegression().fit(X, y)
        w = np.ones(len(y))
        assert m.score(X, y, sample_weight=w) == pytest.approx(m.score(X, y))

    def test_predict_before_fit_raises(self, xy_separable):
        X, _ = xy_separable
        with pytest.raises(RuntimeError, match="not fitted"):
            LogisticRegression().predict(X)

    def test_supports_sample_weight_flag(self):
        assert LogisticRegression().supports_sample_weight

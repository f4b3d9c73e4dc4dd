"""Adapter conformance: external estimators behind the engine protocol.

Three layers:

* protocol unit tests against duck-typed stand-ins (always run);
* engine equivalence — an adapter-wrapped *weight-equivalent* in-repo
  model must select the identical λ as the bare model on a fixed
  scenario (always run);
* sklearn conformance — ``WeightedFitter.fit_batch`` and engine runs
  against adapter-wrapped ``sklearn`` ``LogisticRegression`` /
  ``DecisionTreeClassifier`` (auto-skipped when sklearn is absent).
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest

from repro.api import Engine, Problem
from repro.core.fitter import WeightedFitter
from repro.core.fairness_metrics import METRIC_FACTORIES
from repro.core.spec import Constraint
from repro.datasets import load_scenario
from repro.ml import GaussianNaiveBayes, LogisticRegression
from repro.ml.adapters import (
    ExternalEstimatorAdapter,
    external_model_names,
    register_external_model,
    resolve_model,
)
from repro.ml.adapters import _EXTERNAL_MODELS
from repro.ml.model_selection import train_val_test_split


class DuckWeighted:
    """Minimal foreign estimator with native sample_weight support."""

    def __init__(self, inner_factory=GaussianNaiveBayes):
        self.inner_factory = inner_factory
        self.inner = inner_factory()
        self.fit_calls = 0

    def fit(self, X, y, sample_weight=None):
        self.fit_calls += 1
        self.inner.fit(X, y, sample_weight=sample_weight)
        return self

    def predict(self, X):
        return self.inner.predict(X)

    def predict_proba(self, X):
        return self.inner.predict_proba(X)


class DuckUnweighted:
    """Foreign estimator whose fit has no sample_weight parameter."""

    def __init__(self):
        self.inner = GaussianNaiveBayes()

    def fit(self, X, y):
        self.inner.fit(X, y)
        return self

    def predict(self, X):
        return self.inner.predict(X)


class DuckHardLabels:
    """predict-only foreign model (no predict_proba at all)."""

    def fit(self, X, y, sample_weight=None):
        self.threshold = float(np.average(X[:, 0], weights=sample_weight))
        return self

    def predict(self, X):
        return (X[:, 0] > self.threshold).astype(int)


@pytest.fixture()
def xyw():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(200, 3))
    y = (X[:, 0] + 0.4 * rng.normal(size=200) > 0).astype(np.int64)
    w = rng.uniform(0.2, 3.0, size=200)
    return X, y, w


class TestAdapterProtocol:
    def test_requires_estimator_with_fit_and_predict(self):
        with pytest.raises(ValueError, match="requires an estimator"):
            ExternalEstimatorAdapter()
        with pytest.raises(TypeError, match="callable fit"):
            ExternalEstimatorAdapter(object())
        with pytest.raises(ValueError, match="weight_mode"):
            ExternalEstimatorAdapter(DuckWeighted(), weight_mode="psychic")

    def test_native_weight_detection(self, xyw):
        X, y, w = xyw
        native = ExternalEstimatorAdapter(DuckWeighted())
        assert native._native_weight
        replicated = ExternalEstimatorAdapter(DuckUnweighted())
        assert not replicated._native_weight
        assert native.supports_sample_weight
        assert replicated.supports_sample_weight

    def test_var_keyword_fit_is_not_treated_as_native(self):
        # regression: fit(X, y, **kwargs) must NOT be presumed to honor
        # sample_weight — a swallowing implementation would silently
        # train every λ candidate unweighted
        class Swallows:
            def fit(self, X, y, **kwargs):
                self.saw = sorted(kwargs)
                return self

            def predict(self, X):
                return np.zeros(len(X), dtype=int)

        adapted = ExternalEstimatorAdapter(Swallows())
        assert not adapted._native_weight
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(np.int64)
        adapted.fit(X, y, sample_weight=rng.uniform(0.5, 2.0, size=40))
        # the replication path called the inner fit without the keyword
        assert adapted.estimator.saw == []
        forced = ExternalEstimatorAdapter(Swallows(), weight_mode="native")
        forced.fit(X, y, sample_weight=np.ones(40))
        assert forced.estimator.saw == ["sample_weight"]

    def test_native_path_matches_bare_estimator(self, xyw):
        X, y, w = xyw
        adapted = ExternalEstimatorAdapter(DuckWeighted()).fit(
            X, y, sample_weight=w
        )
        bare = GaussianNaiveBayes().fit(X, y, sample_weight=w)
        assert np.array_equal(adapted.predict(X), bare.predict(X))
        np.testing.assert_array_equal(
            adapted.predict_proba(X), bare.predict_proba(X)
        )

    def test_replication_path_trains_unweighted_inner(self, xyw):
        X, y, w = xyw
        adapted = ExternalEstimatorAdapter(DuckUnweighted())
        adapted.fit(X, y, sample_weight=w)
        pred = adapted.predict(X)
        assert pred.dtype == np.int64
        assert set(np.unique(pred)) <= {0, 1}

    def test_weight_mode_replicate_forces_replication(self, xyw):
        X, y, w = xyw
        forced = ExternalEstimatorAdapter(
            DuckWeighted(), weight_mode="replicate"
        )
        assert not forced._native_weight
        forced.fit(X, y, sample_weight=w)
        # the inner fit saw replicated rows, not the weight vector
        assert forced.estimator.fit_calls == 1

    def test_predict_proba_one_hot_fallback(self, xyw):
        X, y, _ = xyw
        adapted = ExternalEstimatorAdapter(DuckHardLabels()).fit(X, y)
        proba = adapted.predict_proba(X)
        assert proba.shape == (len(X), 2)
        assert np.array_equal(proba.sum(axis=1), np.ones(len(X)))
        assert np.array_equal(proba.argmax(axis=1), adapted.predict(X))

    def test_unfitted_predict_raises(self, xyw):
        X, _, _ = xyw
        with pytest.raises(RuntimeError, match="not fitted"):
            ExternalEstimatorAdapter(DuckWeighted()).predict(X)

    def test_clone_restarts_from_unfitted_prototype(self, xyw):
        X, y, w = xyw
        adapted = ExternalEstimatorAdapter(DuckHardLabels())
        adapted.fit(X, y, sample_weight=w)
        fresh = adapted.clone()
        assert isinstance(fresh, ExternalEstimatorAdapter)
        assert fresh is not adapted
        assert fresh.estimator is not adapted.estimator
        assert not getattr(fresh, "_fitted", False)
        assert not hasattr(fresh.estimator, "threshold")

    def test_get_params_is_fingerprint_stable_across_clones(self, xyw):
        X, y, w = xyw
        a = ExternalEstimatorAdapter(DuckHardLabels())
        b = a.clone()
        assert a.get_params() == b.get_params()
        a.fit(X, y, sample_weight=w)
        # fitting must not change the hyperparameter fingerprint the
        # fit cache keys on
        assert a.get_params() == b.get_params()


class TestResolveModel:
    def test_base_classifier_passes_through(self):
        est = GaussianNaiveBayes()
        assert resolve_model(est) is est

    def test_duck_object_gets_wrapped(self):
        resolved = resolve_model(DuckWeighted())
        assert isinstance(resolved, ExternalEstimatorAdapter)

    def test_short_names_resolve(self):
        assert isinstance(resolve_model("LR"), LogisticRegression)
        assert isinstance(resolve_model("lr"), LogisticRegression)

    def test_ext_path_resolves_and_wraps(self):
        resolved = resolve_model("ext:repro.ml:GaussianNaiveBayes")
        assert isinstance(resolved, ExternalEstimatorAdapter)
        assert isinstance(resolved.estimator, GaussianNaiveBayes)
        dotted = resolve_model("ext:repro.ml.GaussianNaiveBayes")
        assert isinstance(dotted.estimator, GaussianNaiveBayes)

    def test_ext_path_errors(self):
        with pytest.raises(ImportError, match="not importable"):
            resolve_model("ext:definitely_not_a_module:Thing")
        with pytest.raises(ImportError, match="no attribute"):
            resolve_model("ext:repro.ml:NotAClass")
        with pytest.raises(ValueError, match="cannot parse"):
            resolve_model("ext:justoneword")

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown model"):
            resolve_model("no_such_model")

    def test_registry_hook(self):
        register_external_model("_duck", DuckWeighted)
        try:
            assert "_duck" in external_model_names()
            resolved = resolve_model("_duck")
            assert isinstance(resolved, ExternalEstimatorAdapter)
            # a registered BaseClassifier factory is not double-wrapped
            register_external_model("_native", GaussianNaiveBayes)
            assert isinstance(resolve_model("_native"), GaussianNaiveBayes)
        finally:
            _EXTERNAL_MODELS.pop("_duck", None)
            _EXTERNAL_MODELS.pop("_native", None)

    def test_register_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            register_external_model("", DuckWeighted)
        with pytest.raises(ValueError):
            register_external_model("x", "not-callable")


def _scenario_splits(n=2400, seed=0):
    data = load_scenario("label_noise", n=n, seed=seed)
    strat = data.sensitive * 2 + data.y
    tr, va, te = train_val_test_split(len(data), seed=seed, stratify=strat)
    return data.subset(tr), data.subset(va), data.subset(te)


class TestEngineEquivalence:
    """Adapter-wrapped weight-equivalent models select identical λ."""

    def test_binary_search_identical_lambda(self):
        train, val, _ = _scenario_splits()
        problem = Problem("SP <= 0.05")
        bare = Engine("binary_search").solve(
            problem, GaussianNaiveBayes(), train, val
        )
        adapted = Engine("binary_search").solve(
            problem, ExternalEstimatorAdapter(DuckWeighted()), train, val
        )
        assert np.array_equal(bare.report.lambdas, adapted.report.lambdas)
        assert (
            bare.report.validation["accuracy"]
            == adapted.report.validation["accuracy"]
        )

    def test_grid_identical_lambda_through_batch_paths(self):
        # bare lbfgs logistic fits serially (supports_batch_fit False),
        # and so does the adapter, which has no batch protocol — both
        # must land on the same grid point
        train, val, _ = _scenario_splits()
        problem = Problem("SP <= 0.08")
        factory = lambda: LogisticRegression(max_iter=120)  # noqa: E731
        bare = Engine("grid", grid_steps=8, grid_max=0.4).solve(
            problem, factory(), train, val
        )
        adapted = Engine("grid", grid_steps=8, grid_max=0.4).solve(
            problem,
            ExternalEstimatorAdapter(DuckWeighted(inner_factory=factory)),
            train, val,
        )
        assert np.array_equal(bare.report.lambdas, adapted.report.lambdas)

    def test_adapter_runs_inside_weighted_fitter_with_fit_cache(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(150, 3))
        y = (X[:, 0] > 0).astype(np.int64)
        groups = rng.integers(0, 2, size=150)
        constraint = Constraint(
            metric=METRIC_FACTORIES["SP"](), epsilon=0.05,
            group_names=("a", "b"),
            g1_idx=np.nonzero(groups == 0)[0],
            g2_idx=np.nonzero(groups == 1)[0],
        )
        fitter = WeightedFitter(
            ExternalEstimatorAdapter(DuckWeighted()), X, y, [constraint]
        )
        fitter.fit(np.array([0.3]))
        fitter.fit(np.array([0.3]))  # identical resolved weights
        assert fitter.fit_cache_hits == 1
        models = fitter.fit_batch(np.array([[0.0], [0.3], [0.5]]))
        assert len(models) == 3
        assert fitter.fit_paths.get("batch_protocol", 0) == 0
        assert fitter.fit_paths["serial"] >= 1


_HAS_SKLEARN = importlib.util.find_spec("sklearn") is not None


@pytest.mark.skipif(not _HAS_SKLEARN, reason="sklearn not installed")
class TestSklearnConformance:
    """Run the conformance surface against real sklearn estimators.

    Skipped cleanly when sklearn is not installed (this container does
    not ship it; CI environments that do exercise these paths).
    """

    @pytest.fixture(params=["logistic", "tree"])
    def sk_adapter_factory(self, request):
        from sklearn.linear_model import LogisticRegression as SkLR
        from sklearn.tree import DecisionTreeClassifier as SkDT

        if request.param == "logistic":
            return lambda: ExternalEstimatorAdapter(SkLR(max_iter=200))
        return lambda: ExternalEstimatorAdapter(
            SkDT(max_depth=5, random_state=0)
        )

    def test_batch_protocol_conformance(self, sk_adapter_factory, xyw):
        # the adapter has no batch protocol: fit_batch fits one clone per
        # candidate, and each equals a serial fit at the same λ
        X, y, _ = xyw
        groups = np.arange(len(y)) % 2
        constraint = Constraint(
            metric=METRIC_FACTORIES["SP"](), epsilon=0.05,
            group_names=("a", "b"),
            g1_idx=np.nonzero(groups == 0)[0],
            g2_idx=np.nonzero(groups == 1)[0],
        )
        L = np.array([[0.0], [0.3], [0.6]])
        fitter = WeightedFitter(sk_adapter_factory(), X, y, [constraint])
        models = fitter.fit_batch(L)
        assert fitter.fit_paths.get("batch_protocol", 0) == 0
        assert fitter.fit_paths["serial"] == len(L)
        for b, model in enumerate(models):
            ref = WeightedFitter(
                sk_adapter_factory(), X, y, [constraint]
            ).fit(L[b])
            assert np.array_equal(model.predict(X), ref.predict(X))

    def test_engine_end_to_end(self, sk_adapter_factory):
        train, val, test = _scenario_splits()
        model = Engine("binary_search").solve(
            Problem("SP <= 0.05"), sk_adapter_factory(), train, val
        )
        audit = model.audit(test)
        assert 0.5 < audit["accuracy"] <= 1.0
        assert model.report.feasible

    def test_identical_lambda_vs_weight_equivalent_inrepo_model(self):
        # sklearn's liblinear/lbfgs logistic is not numerically identical
        # to the in-repo one, so the λ-equivalence claim is tested with
        # the adapter wrapping the *in-repo* estimator as a foreign duck
        # (above); here we assert the sklearn run is deterministic
        from sklearn.tree import DecisionTreeClassifier as SkDT

        train, val, _ = _scenario_splits()
        runs = [
            Engine("binary_search").solve(
                Problem("SP <= 0.05"),
                ExternalEstimatorAdapter(SkDT(max_depth=5, random_state=0)),
                train, val,
            ).report.lambdas
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])

"""Adapting external (sklearn-style or duck-typed) estimators to the engine.

The paper's central claim is model-agnosticism: λ-reweighting wraps *any*
training algorithm that accepts per-example weights (§3).  Everything in
:mod:`repro.core` talks to estimators through the small
:class:`~repro.ml.base.BaseClassifier` protocol — ``fit(X, y,
sample_weight)`` / ``predict`` / ``clone`` / ``get_params`` — so opening
the engine to third-party models only requires an adapter that speaks
that protocol on behalf of a foreign object.

:class:`ExternalEstimatorAdapter` wraps

* any scikit-learn estimator (``LogisticRegression()``,
  ``DecisionTreeClassifier()``, pipelines, ...), or
* any duck-typed object with ``fit(X, y[, sample_weight])`` and
  ``predict(X)``

and plugs it into :class:`~repro.core.fitter.WeightedFitter`, the fit
memoization cache, and every registered
:class:`~repro.core.strategies.SearchStrategy` unchanged.  Estimators
whose ``fit`` has no ``sample_weight`` parameter are handled by the
paper's replication construction (§1) via
:func:`~repro.ml.replication.replicate_by_weight`.

The adapter implements no batch protocol: the fitter fits one
``clone()`` per candidate and the evaluator stacks each model's
``predict``, which is all a refit loop could do.

A tiny registry maps short names to external estimator factories so the
CLI and :class:`~repro.api.Engine` can dispatch on strings::

    register_external_model("sk_lr", lambda: SkLogistic(max_iter=200))
    Engine(model="sk_lr") / python -m repro train --model sk_lr ...

and ``ext:`` paths resolve dotted imports without prior registration::

    python -m repro train --model ext:sklearn.tree:DecisionTreeClassifier
"""

from __future__ import annotations

import copy
import importlib
import inspect

import numpy as np

from .base import BaseClassifier, check_Xy, check_sample_weight
from .replication import replicate_by_weight

__all__ = [
    "ExternalEstimatorAdapter",
    "register_external_model",
    "external_model_names",
    "resolve_model",
]

WEIGHT_MODES = ("auto", "native", "replicate")


def _accepts_sample_weight(estimator):
    """True when ``estimator.fit`` declares a ``sample_weight`` parameter.

    Deliberately strict: a bare ``**kwargs`` does NOT count — an
    estimator that swallows unknown keywords would silently ignore the
    weights (every λ candidate would train the same unweighted model),
    and one that rejects unrouted params (sklearn pipelines) would
    crash mid-search.  Such estimators take the replication path under
    ``weight_mode="auto"``; pass ``weight_mode="native"`` to assert the
    keyword really is honored.
    """
    try:
        params = inspect.signature(estimator.fit).parameters
    except (TypeError, ValueError):  # C-implemented or exotic signature
        return False
    return "sample_weight" in params


class ExternalEstimatorAdapter(BaseClassifier):
    """Make a foreign estimator speak the :class:`BaseClassifier` protocol.

    Parameters
    ----------
    estimator : object
        An *unfitted* sklearn-style or duck-typed estimator with at least
        ``fit(X, y, ...)`` and ``predict(X)``.  A pristine copy is taken
        at construction so :meth:`clone` always restarts from the
        unfitted prototype even after ``fit`` mutates the instance.
    weight_mode : {"auto", "native", "replicate"}
        How ``sample_weight`` reaches the inner estimator.  ``"auto"``
        (default) inspects ``fit``'s signature and falls back to
        replication; ``"native"`` always forwards the keyword;
        ``"replicate"`` always simulates weights by row replication
        (§1 of the paper).
    replication_resolution, replication_max_rows : int
        Knobs forwarded to :func:`~repro.ml.replication.replicate_by_weight`
        when the replication path is in play.
    """

    def __init__(
        self,
        estimator=None,
        weight_mode="auto",
        replication_resolution=20,
        replication_max_rows=500_000,
    ):
        if estimator is None:
            raise ValueError(
                "ExternalEstimatorAdapter requires an estimator instance"
            )
        if weight_mode not in WEIGHT_MODES:
            raise ValueError(
                f"unknown weight_mode {weight_mode!r}; use one of "
                f"{WEIGHT_MODES}"
            )
        for method in ("fit", "predict"):
            if not callable(getattr(estimator, method, None)):
                raise TypeError(
                    f"external estimator {type(estimator).__name__} has no "
                    f"callable {method}(); the adapter needs fit() and "
                    f"predict()"
                )
        self.estimator = estimator
        self.weight_mode = weight_mode
        self.replication_resolution = replication_resolution
        self.replication_max_rows = replication_max_rows
        # pristine unfitted prototype for clone(); sklearn's fit mutates
        # the instance in place, so cloning the live object after a fit
        # would leak learned state into "fresh" candidates
        self._prototype = self._copy_unfitted(estimator)
        self._native_weight = (
            _accepts_sample_weight(estimator)
            if weight_mode == "auto"
            else weight_mode == "native"
        )
        self._fitted = False

    # -- protocol: introspection / cloning -----------------------------------

    @staticmethod
    def _copy_unfitted(estimator):
        """Fresh unfitted copy, via sklearn-style get_params when possible."""
        get_params = getattr(estimator, "get_params", None)
        if callable(get_params):
            try:
                return type(estimator)(**get_params())
            except TypeError:
                pass  # non-sklearn get_params(); fall back to deepcopy
        return copy.deepcopy(estimator)

    def clone(self):
        fresh = self._copy_unfitted(self._prototype)
        return ExternalEstimatorAdapter(
            estimator=fresh,
            weight_mode=self.weight_mode,
            replication_resolution=self.replication_resolution,
            replication_max_rows=self.replication_max_rows,
        )

    def get_params(self):
        """Adapter + inner hyperparameters, stable under refits.

        The inner estimator's own ``get_params`` (when present) is
        inlined under ``estimator__``-prefixed keys as ``repr`` strings,
        so a clone compares equal: the dict tracks the *configuration*,
        not the object identity of the wrapped instance.  Cache keys do
        not use it; see :meth:`_fingerprint_params`.
        """
        params = {
            "weight_mode": self.weight_mode,
            "replication_resolution": self.replication_resolution,
            "replication_max_rows": self.replication_max_rows,
            "estimator": type(self.estimator).__name__,
        }
        get_params = getattr(self.estimator, "get_params", None)
        if callable(get_params):
            try:
                inner = get_params()
            except TypeError:
                inner = {}
            for key in sorted(inner):
                params[f"estimator__{key}"] = repr(inner[key])
        return params

    def _fingerprint_params(self):
        """What :func:`~repro.ml.base.estimator_fingerprint` encodes: the
        adapter's knobs plus the inner estimator object itself."""
        return {
            "weight_mode": self.weight_mode,
            "replication_resolution": self.replication_resolution,
            "replication_max_rows": self.replication_max_rows,
            "estimator": self.estimator,
        }

    def set_params(self, **params):
        """Route ``estimator__``-prefixed keys to the inner estimator."""
        inner = {
            k[len("estimator__"):]: v
            for k, v in params.items()
            if k.startswith("estimator__")
        }
        outer = {
            k: v for k, v in params.items()
            if not k.startswith("estimator__")
        }
        if inner:
            self.estimator.set_params(**inner)
            self._prototype = self._copy_unfitted(self.estimator)
        for key, value in outer.items():
            if key not in ("weight_mode", "replication_resolution",
                           "replication_max_rows"):
                raise ValueError(
                    f"Unknown parameter {key!r} for "
                    f"ExternalEstimatorAdapter"
                )
            setattr(self, key, value)
        return self

    # -- protocol: training / prediction -------------------------------------

    @property
    def supports_sample_weight(self):
        """True always: native keyword or the replication simulation."""
        return True

    def fit(self, X, y, sample_weight=None):
        X, y = check_Xy(X, y)
        if sample_weight is not None:
            sample_weight = check_sample_weight(sample_weight, len(y))
        if sample_weight is None:
            self.estimator.fit(X, y)
        elif self._native_weight:
            self.estimator.fit(X, y, sample_weight=sample_weight)
        else:
            X_rep, y_rep = replicate_by_weight(
                X, y, sample_weight,
                resolution=self.replication_resolution,
                max_rows=self.replication_max_rows,
            )
            self.estimator.fit(X_rep, y_rep)
        self._fitted = True
        return self

    def predict(self, X):
        self._check_is_fitted()
        pred = np.asarray(self.estimator.predict(np.asarray(X, dtype=np.float64)))
        return pred.astype(np.int64).reshape(-1)

    def predict_proba(self, X):
        """Inner probabilities when available, else a hard-label one-hot."""
        self._check_is_fitted()
        X = np.asarray(X, dtype=np.float64)
        proba_fn = getattr(self.estimator, "predict_proba", None)
        if callable(proba_fn):
            proba = np.asarray(proba_fn(X), dtype=np.float64)
            if proba.ndim == 2 and proba.shape[1] == 2:
                return proba
        pred = self.predict(X)
        out = np.zeros((len(pred), 2), dtype=np.float64)
        out[np.arange(len(pred)), pred] = 1.0
        return out

    def decision_function(self, X):
        self._check_is_fitted()
        fn = getattr(self.estimator, "decision_function", None)
        if callable(fn):
            return np.asarray(
                fn(np.asarray(X, dtype=np.float64)), dtype=np.float64
            ).reshape(-1)
        return super().decision_function(X)

    def __repr__(self):
        return (
            f"ExternalEstimatorAdapter({type(self.estimator).__name__}, "
            f"weight_mode={self.weight_mode!r})"
        )


# -- external model registry / string dispatch --------------------------------

_EXTERNAL_MODELS = {}


def register_external_model(name, factory):
    """Register a zero-arg factory returning an (unwrapped) estimator.

    The factory's product is adapter-wrapped at :func:`resolve_model`
    time unless it already is a :class:`BaseClassifier`.  Re-registering
    a name overwrites it (latest wins), mirroring the strategy registry.
    """
    if not name or not isinstance(name, str):
        raise ValueError("external model name must be a non-empty string")
    if not callable(factory):
        raise ValueError("factory must be callable")
    _EXTERNAL_MODELS[name] = factory
    return factory


def external_model_names():
    """Sorted names of registered external model factories."""
    return sorted(_EXTERNAL_MODELS)


def _import_ext_path(path):
    """Import ``module:Attr`` or dotted ``module.Attr`` and return it."""
    module_name, sep, attr = path.partition(":")
    if not sep:
        module_name, _, attr = path.rpartition(".")
    if not module_name or not attr:
        raise ValueError(
            f"cannot parse external model path {path!r}; expected "
            f"'module:ClassName' or 'package.module.ClassName'"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ImportError(
            f"external model module {module_name!r} is not importable: "
            f"{exc}"
        ) from exc
    try:
        return getattr(module, attr)
    except AttributeError:
        raise ImportError(
            f"module {module_name!r} has no attribute {attr!r}"
        ) from None


def resolve_model(spec):
    """Resolve anything model-like into a protocol-conformant estimator.

    Accepts, in order of precedence:

    * a :class:`BaseClassifier` instance — returned as-is;
    * any other object with ``fit``/``predict`` — adapter-wrapped;
    * ``"ext:module:ClassName"`` (or ``"ext:pkg.mod.Cls"``) — imported,
      instantiated with no arguments, adapter-wrapped;
    * a name registered via :func:`register_external_model` — factory
      called, wrapped unless already a :class:`BaseClassifier`;
    * one of the in-repo short names (``"LR"``, ``"RF"``, ``"XGB"``,
      ``"NN"`` — see :data:`repro.analysis.runner.ESTIMATOR_FACTORIES`).
    """
    if isinstance(spec, BaseClassifier):
        return spec
    if not isinstance(spec, str):
        return ExternalEstimatorAdapter(spec)
    if spec.startswith("ext:"):
        target = _import_ext_path(spec[len("ext:"):])
        estimator = target() if isinstance(target, type) else target
        return ExternalEstimatorAdapter(estimator)
    if spec in _EXTERNAL_MODELS:
        product = _EXTERNAL_MODELS[spec]()
        if isinstance(product, BaseClassifier):
            return product
        return ExternalEstimatorAdapter(product)
    # in-repo short names last, so registrations can shadow them
    from ..analysis.runner import ESTIMATOR_FACTORIES, make_estimator

    if spec.upper() in ESTIMATOR_FACTORIES:
        return make_estimator(spec)
    raise KeyError(
        f"unknown model {spec!r}; use an estimator instance, an "
        f"'ext:module:Class' path, a registered external name "
        f"({external_model_names() or 'none registered'}), or one of "
        f"{sorted(ESTIMATOR_FACTORIES)}"
    )

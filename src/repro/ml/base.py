"""Base classes for the from-scratch ML substrate.

The paper's OmniFair system is *model-agnostic*: it only requires that the
training algorithm ``A`` accepts per-example weights (or that weights can be
simulated by replication).  Every classifier in :mod:`repro.ml` therefore
follows a small scikit-learn-like protocol:

* ``fit(X, y, sample_weight=None)`` — train, return ``self``;
* ``predict(X)`` — hard 0/1 labels;
* ``predict_proba(X)`` — ``(n, 2)`` array of class probabilities;
* ``get_params()`` / ``set_params(**p)`` / ``clone()`` — hyperparameter
  introspection so OmniFair can retrain fresh copies for each λ.

All estimators are pure numpy and deterministic given ``random_state``.
:func:`estimator_fingerprint` names an estimator's class and params for
the caches that outlive one fit.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import json

import numpy as np

__all__ = [
    "BaseClassifier",
    "check_binary_labels",
    "check_n_features",
    "check_Xy",
    "check_sample_weight",
    "clone",
    "estimator_fingerprint",
    "labels_from_log_odds",
    "sigmoid",
    "sigmoid_of_log_odds",
]

# below this log-odds sigmoid is certainly under 0.5; between it and 0,
# exp(t) may round to 1 and sigmoid to exactly 0.5
_LOG_ODDS_BAND = 1e-12


def sigmoid(z):
    """Numerically stable logistic function.

    Branch-free: ``exp(-|z|)`` never overflows, and each element gets
    the exact expression of the classic two-branch form
    (``1/(1+e^-z)`` for ``z >= 0``, ``e^z/(1+e^z)`` otherwise), so
    results are bitwise those of that form while the evaluation is a
    handful of full-array ufunc passes instead of masked gather/scatter
    — the hot path of the IRLS solver.
    """
    z = np.asarray(z)
    out = np.empty(z.shape, np.result_type(z, 1.0))
    return _sigmoid_into(z, out, np.empty_like(out))


def _sigmoid_into(z, out, tmp):
    """Write ``sigmoid(z)`` into ``out`` (which may be ``z``).

    ``tmp`` is scratch of ``out``'s shape.  With ``e = exp(-|z|)`` in
    ``[0, 1]``, ``max(e, [z >= 0])`` is exactly the classic numerator
    (1 where ``z >= 0``, ``e`` elsewhere, NaN kept), so no masked select
    is needed.
    """
    np.greater_equal(z, 0.0, out=tmp)
    np.copysign(z, -1.0, out=out)
    np.exp(out, out=out)
    np.maximum(out, tmp, out=tmp)
    out += 1.0
    return np.divide(tmp, out, out=out)


def labels_from_log_odds(t):
    """``(sigmoid(t) >= 0.5)`` as C-ordered int64 labels, bit for bit.

    For ``t >= 0`` :func:`sigmoid` is ``1/(1+e)`` with ``e`` in [0, 1],
    never below 0.5; below 0 it is ``e/(1+e)``, under 0.5 unless
    ``exp(t)`` rounds to 1 (``sigmoid(-1e-17)`` is exactly 0.5).  So
    ``t >= 0`` decides every float64 log-odds but those in
    ``(-1e-12, 0)``, which ask :func:`sigmoid` itself.  NaN gives 0 and
    ±inf give 1 and 0, as the comparison of :func:`sigmoid` does.
    """
    t = np.asarray(t, dtype=np.float64)
    labels = np.empty(t.shape, np.int64)
    np.greater_equal(t, 0.0, out=labels)
    band = (t < 0.0) & (t > -_LOG_ODDS_BAND)
    if band.any():
        labels[band] = sigmoid(t[band]) >= 0.5
    return labels


def sigmoid_of_log_odds(predict_proba):
    """Mark ``predict_proba`` as ``[1 - p, p]``, ``p = sigmoid(t)`` bit for
    bit, with ``t = self._log_odds(X)``.

    :meth:`BaseClassifier.predict` then labels from ``t``.  The mark is
    an attribute of the function: a subclass's own ``predict_proba``
    does not carry it, a ``functools.wraps`` wrapper does.
    """
    predict_proba.sigmoid_of_log_odds = True
    return predict_proba


def check_binary_labels(y):
    """Labels of any shape as int64, refusing values other than 0 and 1.

    Like ``np.asarray(y, dtype=np.int64)``, an int64 input is returned
    as is.  The check is one O(n) comparison pass rather than a sort:
    each fit of the λ-search pays it on every candidate.  Floating
    labels must be exactly ``0.0`` or ``1.0`` — casting first would
    truncate ``0.9`` to ``0`` and turn NaN into an integer with a cast
    warning — so they are checked before the cast; bool and integer
    labels are cast first.  The error names the offending values.
    """
    y = np.asarray(y)
    if y.dtype.kind == "f":
        bad = (y != 0) & (y != 1)
    else:
        y = y.astype(np.int64, copy=False)
        bad = y.view(np.uint64) > 1   # negative labels wrap to huge values
    if bad.any():
        raise ValueError(
            f"y must be binary in {{0,1}}, got labels {np.unique(y[bad])}"
        )
    return y.astype(np.int64, copy=False)


def check_Xy(X, y=None):
    """Validate and convert inputs to float/int numpy arrays.

    Parameters
    ----------
    X : array-like of shape (n_samples, n_features)
    y : array-like of shape (n_samples,), optional
        Binary labels in {0, 1}.

    Returns
    -------
    X : ndarray of float64
    y : ndarray of int64 or None
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains NaN or infinite values")
    if y is None:
        return X, None
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"y must be 1-dimensional, got shape {y.shape}")
    if len(y) != len(X):
        raise ValueError(f"X has {len(X)} rows but y has {len(y)}")
    return X, check_binary_labels(y)


def check_n_features(estimator, X):
    """Refuse a validated ``X`` whose width is not the fitted one.

    For estimators that record ``n_features_in_`` at fit; ``None`` (a
    model pickled before 6.0.0) skips the check.  A tree reads only the
    columns its splits use, so without this it would answer rows of any
    width.
    """
    expected = estimator.n_features_in_
    if expected is not None and X.shape[1] != expected:
        raise ValueError(
            f"X has {X.shape[1]} features, but {type(estimator).__name__} "
            f"was fitted on {expected}"
        )


def check_sample_weight(sample_weight, n_samples):
    """Validate sample weights; ``None`` becomes uniform ones.

    Weights must be finite and non-negative.  OmniFair's weight derivation
    can produce negative weights for large λ; the core layer converts those
    to positive weights on flipped labels *before* calling the estimator
    (see :mod:`repro.core.weights`), so estimators only ever see
    non-negative weights.
    """
    if sample_weight is None:
        return np.ones(n_samples, dtype=np.float64)
    w = np.asarray(sample_weight, dtype=np.float64)
    if w.shape != (n_samples,):
        raise ValueError(
            f"sample_weight has shape {w.shape}, expected ({n_samples},)"
        )
    if not np.all(np.isfinite(w)):
        raise ValueError("sample_weight contains NaN or infinite values")
    if np.any(w < 0):
        raise ValueError(
            "sample_weight must be non-negative; OmniFair converts negative "
            "weights to flipped labels before training (repro.core.weights)"
        )
    if w.sum() <= 0:
        raise ValueError("sample_weight sums to zero")
    return w


class BaseClassifier:
    """Common machinery for all estimators in :mod:`repro.ml`.

    Subclasses declare hyperparameters as ``__init__`` keyword arguments and
    store them verbatim on ``self`` (scikit-learn convention), which makes
    :meth:`get_params`, :meth:`set_params` and :func:`clone` work generically.
    """

    def get_params(self):
        """Return a dict of constructor hyperparameters.

        The signature inspection is memoized per class — λ-search
        batches clone and fingerprint estimators hundreds of times, and
        ``inspect.signature`` is ~100µs a call.
        """
        cls = type(self)
        names = cls.__dict__.get("_param_names")
        if names is None:
            names = [
                p.name
                for p in inspect.signature(cls.__init__).parameters.values()
                if p.name != "self" and p.kind != p.VAR_KEYWORD
            ]
            cls._param_names = names
        return {name: getattr(self, name) for name in names}

    def set_params(self, **params):
        """Update hyperparameters in place; unknown names raise."""
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"Unknown parameter {key!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(valid)}"
                )
            setattr(self, key, value)
        return self

    def clone(self):
        """Return an unfitted copy with identical hyperparameters."""
        return type(self)(**copy.deepcopy(self.get_params()))

    # -- prediction helpers -------------------------------------------------

    def predict(self, X):
        """Predict hard 0/1 labels: ``P(y=1) >= 0.5``.

        A ``predict_proba`` marked :func:`sigmoid_of_log_odds` is not
        built: the labels come from the log-odds by
        :func:`labels_from_log_odds`, the same bits without the
        ``(n, 2)`` matrix.
        """
        if getattr(type(self).predict_proba, "sigmoid_of_log_odds", False):
            return labels_from_log_odds(self._log_odds(X))
        return (self.predict_proba(X)[:, 1] >= 0.5).astype(np.int64)

    def predict_proba(self, X):  # pragma: no cover - abstract
        raise NotImplementedError

    def decision_function(self, X):
        """Signed score; default is ``P(y=1) - 0.5``."""
        return self.predict_proba(X)[:, 1] - 0.5

    def score(self, X, y, sample_weight=None):
        """Weighted accuracy on ``(X, y)``."""
        X, y = check_Xy(X, y)
        w = check_sample_weight(sample_weight, len(y))
        correct = (self.predict(X) == y).astype(np.float64)
        return float(np.average(correct, weights=w))

    def _check_is_fitted(self):
        if not getattr(self, "_fitted", False):
            raise RuntimeError(
                f"{type(self).__name__} is not fitted; call fit() first"
            )

    @property
    def supports_sample_weight(self):
        """Whether ``fit`` natively consumes ``sample_weight``.

        All built-in estimators do; external black boxes wrapped via
        :mod:`repro.ml.replication` may not.
        """
        return True

    # -- optional log-odds hook ----------------------------------------------
    #
    # A model whose predict_proba(X)[:, 1] is sigmoid(t) bit for bit
    # implements _log_odds(X) -> (n,) float64 t and marks that
    # predict_proba @sigmoid_of_log_odds; predict then thresholds t
    # (labels_from_log_odds).  A subclass that overrides predict_proba,
    # and not _log_odds, keeps thresholding its own.  Implementers:
    # LogisticRegression and GradientBoostedTrees (t = decision_function)
    # and GaussianNaiveBayes (t = jll[:, 1] - jll[:, 0]).

    # -- optional batch protocol ---------------------------------------------
    #
    # Estimators whose weighted fit vectorizes over candidates may
    # additionally implement
    #
    #   fit_weighted_batch(X, y_batch, w_batch) -> list of fitted models
    #   predict_batch(models, X) -> (B, n) int64 matrix   [staticmethod]
    #   supports_batch_fit -> bool                        [property]
    #
    # The compiled λ-search engine (repro.core.fitter / repro.core.kernels)
    # probes for these with getattr and falls back to per-candidate
    # clone().fit() / model.predict() loops when absent — or when
    # ``supports_batch_fit`` (default True whenever the method exists)
    # is False, the configuration-dependent opt-out.  Implementing them
    # is purely a performance opt-in.  ``fit_weighted_batch`` refuses the
    # labels serial ``fit`` refuses: it runs ``y_batch`` through
    # check_binary_labels, the check check_Xy applies to ``y``.
    #
    # Current implementers:
    #
    # * GaussianNaiveBayes — closed-form batch moments, two-dgemm batch
    #   predict (the reference implementation; matches scalar fits to
    #   summation-order round-off).
    # * LogisticRegression — batched IRLS under ``solver="irls"`` only
    #   (``supports_batch_fit`` is False for lbfgs/gd, whose
    #   trajectories have no batched counterpart); single-dgemm batch
    #   predict; matches serial IRLS to BLAS reduction-order round-off.
    # * DecisionTree — per-candidate builds off one shared
    #   ``PresortedDataset``; one stacked descent for batch predict;
    #   trees are bit-for-bit identical to scalar fits.
    #
    # The conformance suite (tests/test_batch_protocol.py) runs every
    # implementer against its serial path on random weighted problems.

    @property
    def supports_batch_fit(self):
        """Whether ``fit_weighted_batch`` is usable as configured.

        Only consulted when the method exists; subclasses whose batch
        path depends on hyperparameters (e.g. the logistic solver)
        override this.
        """
        return True


def clone(estimator):
    """Module-level clone helper mirroring ``sklearn.base.clone``."""
    return estimator.clone()


def _encode(value):
    """Canonical form of a param value as tagged nested tuples, or ``None``.

    The type tag keeps different values apart and makes forms with one
    tag comparable, so dict items sort by encoded key.  A value with
    ``get_params`` (or an adapter's ``_fingerprint_params``) is a nested
    estimator.
    """
    if isinstance(value, str):
        return ("s", value)
    if isinstance(value, float):
        return ("f", float(value).hex())
    if isinstance(value, bool):
        return ("B", value)
    if isinstance(value, int):
        return ("i", value)
    if value is None:
        return ("n",)
    if isinstance(value, (np.ndarray, np.generic)):
        array = np.asarray(value)
        if array.dtype.hasobject:
            return None
        return ("a", array.dtype.descr, array.shape,
                hashlib.sha1(array.tobytes()).hexdigest())
    if isinstance(value, dict):
        items = [(_encode(k), _encode(v)) for k, v in value.items()]
        if any(None in item for item in items):
            return None
        return ("d", tuple(sorted(items)))
    if isinstance(value, (list, tuple)):
        items = tuple(_encode(v) for v in value)
        if None in items:
            return None
        return ("l" if isinstance(value, list) else "t", items)
    get_params = (getattr(value, "_fingerprint_params", None)
                  or getattr(value, "get_params", None))
    if not callable(get_params) or isinstance(value, type):
        return None
    try:
        params = _encode(dict(get_params()))
    except (TypeError, ValueError):   # a get_params that is not sklearn-style
        return None
    cls = type(value)
    return None if params is None else (
        "e", f"{cls.__module__}.{cls.__qualname__}", params
    )


def estimator_fingerprint(estimator):
    """SHA1 hex digest of an estimator's class and params, or ``None``.

    The name every cache key gives an estimator: its module-qualified
    class and each ``get_params()`` value encoded canonically (arrays by
    dtype, shape and byte hash; containers and nested estimators
    recursively), never by ``repr``, which numpy shortens for arrays
    over 1000 elements.  ``None`` for a value with no canonical encoding,
    or an adapter whose inner object has no ``get_params``; callers keep
    such an estimator out of every persistent cache.
    """
    encoded = _encode(estimator)
    if encoded is None:
        return None
    return hashlib.sha1(json.dumps(encoded).encode()).hexdigest()

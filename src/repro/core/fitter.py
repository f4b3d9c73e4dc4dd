"""Weighted retraining of the black-box estimator for a Λ setting.

This is the only place OmniFair touches the ML algorithm: it computes the
example weights for the current Λ (Eq. 12 / Eq. 21), resolves negative
weights, and calls ``fit(X, y, sample_weight=w)`` on a fresh clone (or the
same instance when warm-starting).  Everything above this layer treats the
model as a black box.

Weights come from the compiled constraint kernels
(:class:`repro.core.kernels.CompiledConstraints`): the constraints are
compiled once into stacked numpy kernels, per-λ weights are one fused
product, batches of candidates one broadcasted pass, and FOR/FDR
prediction state is updated incrementally.  Every fit runs in-process,
one candidate after another (or through the estimator's own batch
protocol, :meth:`WeightedFitter.fit_batch`).

A **fit memoization cache** sits in front of every model fit: the
resolved ``(weights, labels)`` pair — plus the estimator's
:func:`~repro.ml.base.estimator_fingerprint` and which training split is
in play — is hashed, and a candidate whose resolved vectors collide
with an earlier fit reuses the fitted model instead of retraining.  Collisions
are common in practice: ``resolve_negative_weights`` can map distinct λ
to the same resolved vectors, λ-searches revisit Λ = 0, and hill
climbing re-lands on coordinates it has already tried.  Hit counts are
exposed as :attr:`WeightedFitter.fit_cache_hits` and surfaced through
:class:`~repro.core.report.FitReport`.  ``n_fits`` counts *logical*
fits — cache hits included — so search-budget accounting (and
``n_fits == len(history)`` invariants) is unchanged by memoization;
the work actually avoided is ``fit_cache_hits``.  The cache holds at
most :data:`FIT_CACHE_MAX` models (LRU eviction) and is disabled
under ``warm_start`` (a warm-started fit depends on the mutable shared
estimator state, not just the weights).

A persistent :class:`~repro.store.CacheStore` can sit *under* the
in-memory cache (``store=`` constructor argument, usually injected by
``Engine(store_dir=...)``): a memory miss consults the store before
training, and every fresh fit is published back.  The persistent key is
wider than the in-memory one — it adds a digest of the training split
itself, because the in-memory key's ``(weights, labels)`` hash is only
unambiguous within one fitter's ``X``.  An estimator without a
fingerprint (a param with no canonical encoding) stays out of the store;
the in-memory cache still serves it.  Store traffic is tracked in
:attr:`store_stats`, and a store hit still counts as a logical fit
(like a cache hit).
"""

from __future__ import annotations

import copy
import hashlib
import warnings

import numpy as np

from ..ml.base import estimator_fingerprint
from ..resilience.faults import inject
from .kernels import CompiledConstraints
from .weights import resolve_negative_weights

__all__ = ["WeightedFitter"]

# fit-cache size bound: peak memory must scale with the cache cap, not
# with the total number of distinct candidates a long search visits
FIT_CACHE_MAX = 256


class WeightedFitter:
    """Trains ``estimator`` on the weighted training set for given Λ.

    Parameters
    ----------
    estimator : BaseClassifier
        Prototype estimator; cloned per fit unless ``warm_start``.
    X_train, y_train : ndarray
        Training data.
    constraints : list of Constraint
        Constraints bound to the *training* set (their indices address
        ``X_train`` rows), in their declared orientation.  The fitter
        never rewrites them, so one fitter can serve several plans.
    negative_weights : {"flip", "clip"}
        Strategy for negative weights (see :mod:`repro.core.weights`).
    warm_start : bool
        Reuse one estimator instance across fits, enabling its own
        ``warm_start`` hyperparameter when it has one (Table 6).
    subsample : float or None
        When set (in ``(0, 1)``), a stratified row subset of that fraction
        is prepared and ``fit(..., use_subsample=True)`` trains on it — the
        paper's future-work optimization for quickly pruning λ ranges with
        cheap fits before refining on the full training set (§8).
    subsample_seed : int
        Seed for the subsample draw.
    fit_cache : bool
        Memoize fitted models on the hash of their resolved
        ``(weights, labels)`` vectors (default True; forced off under
        ``warm_start``).  See the module docstring.
    eval_chunk_size : int or None
        Row-block size of validation scoring.  Every
        :class:`~repro.core.kernels.CompiledEvaluator` the search builds
        for this fitter predicts and counts over blocks of at most this
        many rows — bit-identical results, bounded peak memory.  ``None``
        (default) scores the split as one block.
    store : repro.store.CacheStore or None
        Persistent blob store consulted under the in-memory fit cache
        and published to after every fresh fit (see module docstring).
        Ignored when the fit cache is off (including under
        ``warm_start`` — a warm-started model depends on process-local
        estimator state no other process can reproduce).

    Attributes
    ----------
    n_fits : int
        Logical model fits requested (cache hits included, so the
        ``n_fits == len(history)`` bookkeeping of the searches is
        unaffected by memoization); ``n_fits - fit_cache_hits`` is the
        number of actual training runs.
    fit_cache_hits, fit_cache_lookups : int
        Fit-memoization traffic; ``hits`` short-circuited a fit.
    store_stats : dict
        ``{"hits": int, "lookups": int}`` persistent-store traffic for
        model fits.  A store hit also short-circuited a fit (the model
        was trained by an earlier process or solve).
    fit_paths : dict
        How batch candidates were fitted, by path:
        ``"batch_protocol"`` (estimator's ``fit_weighted_batch``),
        ``"serial"`` (in-process loop),
        ``"cached"`` (fit cache hit), plus ``"single"`` for plain
        :meth:`fit` calls.
    """

    def __init__(
        self,
        estimator,
        X_train,
        y_train,
        constraints,
        negative_weights="flip",
        warm_start=False,
        subsample=None,
        subsample_seed=0,
        fit_cache=True,
        eval_chunk_size=None,
        store=None,
    ):
        if eval_chunk_size is not None and int(eval_chunk_size) < 1:
            raise ValueError(
                f"eval_chunk_size must be >= 1 or None, got {eval_chunk_size}"
            )
        self.estimator = estimator
        self.X_train = np.asarray(X_train, dtype=np.float64)
        self.y_train = np.asarray(y_train, dtype=np.int64)
        self.constraints = list(constraints)
        self.negative_weights = negative_weights
        self.warm_start = warm_start
        self.eval_chunk_size = (
            None if eval_chunk_size is None else int(eval_chunk_size)
        )
        self.n_fits = 0
        # a warm-started fit depends on the shared estimator's mutable
        # state, so identical weights do NOT imply identical models
        self.fit_cache = bool(fit_cache) and not warm_start
        self.fit_cache_hits = 0
        self.fit_cache_lookups = 0
        self._fit_cache = {}
        # persistent layer under the memory cache; its soundness rests
        # on the same invariant (resolved vectors determine the model),
        # so it shares the cache gate
        self.store = store if self.fit_cache else None
        self.store_stats = {"hits": 0, "lookups": 0}
        self._split_digests = {}
        self.fit_paths = {}
        self._warned_warm_bypass = False
        self._shared = None
        self._kernel = None
        self._sub_kernel = None
        if warm_start:
            self._shared = estimator.clone()
            if "warm_start" in self._shared.get_params():
                self._shared.set_params(warm_start=True)
        self.subsample = subsample
        self._sub_idx = None
        self._sub_X = None
        self._sub_y = None
        self._sub_constraints = None
        if subsample is not None:
            if not 0.0 < subsample < 1.0:
                raise ValueError(
                    f"subsample must be in (0, 1), got {subsample}"
                )
            self._prepare_subsample(subsample_seed)

    def _prepare_subsample(self, seed):
        """Draw a stratified subsample and remap constraint indices."""
        from .spec import Constraint

        rng = np.random.default_rng(seed)
        n = len(self.y_train)
        k = max(2, int(round(n * self.subsample)))
        # stratify on label so small-base-rate groups keep positives
        idx = []
        for label in (0, 1):
            rows = np.nonzero(self.y_train == label)[0]
            take = max(1, int(round(len(rows) * self.subsample)))
            idx.append(rng.choice(rows, size=min(take, len(rows)),
                                  replace=False))
        self._sub_idx = np.sort(np.concatenate(idx))[:max(k, 2)]
        # materialize the subsample arrays once instead of re-slicing
        # per fit
        self._sub_X = self.X_train[self._sub_idx]
        self._sub_y = self.y_train[self._sub_idx]
        positions = np.full(n, -1, dtype=np.int64)
        positions[self._sub_idx] = np.arange(len(self._sub_idx))
        subbed = []
        for c in self.constraints:
            g1 = positions[c.g1_idx]
            g2 = positions[c.g2_idx]
            subbed.append(
                Constraint(
                    metric=c.metric,
                    epsilon=c.epsilon,
                    group_names=c.group_names,
                    g1_idx=g1[g1 >= 0],
                    g2_idx=g2[g2 >= 0],
                    label=c.label + "|subsample",
                )
            )
        self._sub_constraints = subbed

    # -- compiled kernels ----------------------------------------------------

    @property
    def kernel(self):
        """The :class:`CompiledConstraints` for the full training split.

        Built once, on first use: the constraint list is never
        rewritten (Algorithm 1's swap is a sign on the λ a
        :class:`~repro.core.planner.PlanContext` hands in).
        """
        if self._kernel is None:
            self._kernel = CompiledConstraints(self.constraints, self.y_train)
        return self._kernel

    def _subsample_kernel(self):
        if self._sub_kernel is None:
            self._sub_kernel = CompiledConstraints(
                self._sub_constraints, self.y_train[self._sub_idx]
            )
        return self._sub_kernel

    @property
    def parameterized(self):
        """True when any constraint's metric needs model predictions."""
        return any(c.metric.parameterized_by_model for c in self.constraints)

    # -- weight computation --------------------------------------------------

    def _weights_for(self, lambdas, predictions, use_subsample):
        """Raw weights for one Λ from the compiled kernel."""
        kernel = self._subsample_kernel() if use_subsample else self.kernel
        if predictions is not None:
            kernel.update_predictions(predictions)
        return kernel.weights(lambdas)

    def _train_arrays(self, use_subsample):
        if use_subsample:
            if self._sub_idx is None:
                raise ValueError(
                    "use_subsample requires the subsample constructor "
                    "argument"
                )
            return self._sub_X, self._sub_y
        return self.X_train, self.y_train

    # -- fit memoization -----------------------------------------------------

    @staticmethod
    def _cache_key(params, w, y_fit, split):
        # ``params`` is the estimator fingerprint, recomputed per fit
        # call so an external ``set_params`` between fits cannot serve
        # a stale model.  hashlib reads the arrays through the buffer
        # protocol: the digest sees the bytes of ``tobytes()``, uncopied
        digest = hashlib.sha1()
        digest.update(np.ascontiguousarray(w))
        digest.update(np.ascontiguousarray(y_fit))
        return (split, params, digest.digest())

    def _split_digest(self, use_subsample):
        """SHA1 of the training matrix for the persistent fit key.

        The in-memory key can afford to omit ``X`` — one fitter binds
        one training set — but the on-disk store is shared across
        processes and datasets, so the split itself must be part of
        the key.  Computed once per split and memoized (the matrix is
        immutable for the fitter's lifetime).
        """
        cached = self._split_digests.get(use_subsample)
        if cached is None:
            X, _ = self._train_arrays(use_subsample)
            cached = hashlib.sha1(np.ascontiguousarray(X)).hexdigest()
            self._split_digests[use_subsample] = cached
        return cached

    def _store_key(self, key):
        """Persistent key: the in-memory ``key`` plus the split digest.

        ``None`` when the store is off or the estimator has no fingerprint.
        """
        split, params, digest = key
        if self.store is None or params is None:
            return None
        text = f"{params}:{self._split_digest(split)}:"
        return hashlib.sha1(text.encode() + digest).hexdigest()

    def _store_get(self, key, store_key):
        """Consult the persistent store after a memory miss.

        ``store_key`` is the candidate's :meth:`_store_key`, computed
        once and reused by :meth:`_store_put` after a miss.  On a hit
        the model enters the in-memory cache under ``key`` so in-batch
        duplicates and later revisits resolve locally.
        """
        self.store_stats["lookups"] += 1
        model = self.store.get("fit", store_key)
        if model is None:
            return None
        self.store_stats["hits"] += 1
        self._cache_store(key, model)
        return model

    def _store_put(self, store_key, model):
        """Publish a freshly trained model to the persistent store."""
        self.store.put(
            "fit", store_key, model,
            extra={"estimator": type(self.estimator).__name__},
        )

    def _record_path(self, path, count=1):
        self.fit_paths[path] = self.fit_paths.get(path, 0) + count

    def _cache_store(self, key, model):
        """Insert with LRU eviction at :data:`FIT_CACHE_MAX` entries."""
        cache = self._fit_cache
        if key not in cache and len(cache) >= FIT_CACHE_MAX:
            cache.pop(next(iter(cache)))
        cache[key] = model

    def _cache_get(self, key):
        """Lookup that refreshes recency, so hot entries (Λ = 0, recent
        hill-climb coordinates) survive eviction."""
        model = self._fit_cache.pop(key, None)
        if model is not None:
            self._fit_cache[key] = model
        return model

    # -- fitting -------------------------------------------------------------

    def fit(self, lambdas, prev_model=None, use_subsample=False):
        """Fit the estimator with weights ``w(Λ[, h_prev])``.

        ``prev_model`` supplies the predictions that parameterize FOR/FDR
        weights (§5.2's continuation approximation); it is ignored for
        constant-weight metrics.  ``use_subsample=True`` trains on the
        prepared subsample (cheap λ-range pruning; requires the
        ``subsample`` constructor argument).
        """
        X, y = self._train_arrays(use_subsample)
        predictions = None
        if self.parameterized and np.any(np.asarray(lambdas) != 0):
            if prev_model is None:
                raise ValueError(
                    "model-parameterized constraints require prev_model "
                    "for nonzero lambda"
                )
            predictions = prev_model.predict(X)
        w = self._weights_for(lambdas, predictions, use_subsample)
        w, y_fit = resolve_negative_weights(
            w, y, strategy=self.negative_weights
        )
        return self._fit_resolved(X, y_fit, w, use_subsample)

    def _fit_resolved(self, X, y_fit, w, use_subsample=False):
        store_key = None
        if self.fit_cache:
            params = estimator_fingerprint(self.estimator)
            key = self._cache_key(params, w, y_fit, use_subsample)
            self.fit_cache_lookups += 1
            cached = self._cache_get(key)
            if cached is not None:
                self.fit_cache_hits += 1
                self.n_fits += 1   # logical fit; the work was memoized
                self._record_path("cached")
                return cached
            store_key = self._store_key(key)
            if store_key is not None:
                stored = self._store_get(key, store_key)
                if stored is not None:
                    self.n_fits += 1   # logical fit; trained by a past run
                    self._record_path("store")
                    return stored
        self._record_path("warm" if self.warm_start else "single")
        if self.warm_start:
            self._shared.fit(X, y_fit, sample_weight=w)
            # snapshot so callers can keep models for different λ values
            # while the shared instance keeps warm-starting in place
            model = copy.deepcopy(self._shared)
        else:
            model = self.estimator.clone()
            model.fit(X, y_fit, sample_weight=w)
        self.n_fits += 1
        if self.fit_cache:
            self._cache_store(key, model)
            if store_key is not None:
                self._store_put(store_key, model)
        return model

    def fit_batch(self, lambdas_matrix):
        """Fit one model per row of a ``(B, k)`` Λ matrix (full training set).

        Requires constant-coefficient metrics (FOR/FDR candidates each
        need their own chained predictions, an inherently sequential
        recurrence): the weights of all candidates come from a single
        vectorized pass, negative-weight resolution is broadcast over the
        batch, and the per-candidate model fits run through the
        estimator's batch protocol or one after another in-process.  The
        fit cache dedupes candidates whose resolved weight vectors
        collide — within the batch and against every earlier fit.

        Returns the fitted models in candidate order.
        """
        inject("fitter.fit_batch")
        L = np.atleast_2d(np.asarray(lambdas_matrix, dtype=np.float64))
        if self.parameterized and np.any(L != 0.0):
            raise ValueError(
                "fit_batch does not support model-parameterized "
                "constraints (FOR/FDR); their weights chain through each "
                "candidate's own predictions"
            )
        X, y = self.X_train, self.y_train
        W_res, Y_res = resolve_negative_weights(
            self.kernel.weights_batch(L), y, strategy=self.negative_weights
        )
        B = len(L)

        # fit-cache pass: collect the candidates that still need a fit,
        # deduping identical resolved vectors inside the batch as well
        models = [None] * B
        keys = None
        if self.fit_cache:
            params = estimator_fingerprint(self.estimator)
            keys = [
                self._cache_key(params, W_res[b], Y_res[b], False)
                for b in range(B)
            ]
            self.fit_cache_lookups += B
            todo = []
            fresh = set()
            store_keys = {}
            hits = 0
            store_hits = 0
            for b, key in enumerate(keys):
                cached = self._cache_get(key)
                if cached is not None:
                    models[b] = cached
                    hits += 1
                    continue
                if key in fresh:
                    hits += 1      # in-batch duplicate, filled below
                    continue
                store_keys[b] = self._store_key(key)
                if store_keys[b] is not None:
                    stored = self._store_get(key, store_keys[b])
                    if stored is not None:
                        # _store_get seeded the memory cache, so an
                        # in-batch duplicate of this key hits "cached"
                        # on its own iteration
                        models[b] = stored
                        store_hits += 1
                        continue
                fresh.add(key)
                todo.append(b)
            self.fit_cache_hits += hits
            if hits:
                self._record_path("cached", hits)
            if store_hits:
                self._record_path("store", store_hits)
        else:
            todo = list(range(B))

        if todo:
            if len(todo) == B:   # all-miss: no need to copy the batch
                Y_todo, W_todo = Y_res, W_res
            else:
                Y_todo, W_todo = Y_res[todo], W_res[todo]
            fitted = self._fit_batch_resolved(X, Y_todo, W_todo)
            for b, model in zip(todo, fitted):
                models[b] = model
            if self.fit_cache:
                by_key = {keys[b]: models[b] for b in todo}
                for b in todo:
                    self._cache_store(keys[b], models[b])
                    if store_keys[b] is not None:
                        self._store_put(store_keys[b], models[b])
                for b in range(B):
                    if models[b] is None:  # in-batch duplicate key
                        models[b] = by_key[keys[b]]
        self.n_fits += B
        return models

    def _fit_batch_resolved(self, X, Y_res, W_res):
        """Fit resolved candidates: batch protocol, else one by one."""
        B = len(Y_res)
        # closed-form / vectorized batch fit when the estimator opts in
        # (see the optional batch protocol note in repro.ml.base)
        batch_fit = getattr(self.estimator, "fit_weighted_batch", None)
        if batch_fit is not None and not getattr(
            self.estimator, "supports_batch_fit", True
        ):
            batch_fit = None
        if batch_fit is not None:
            if not self.warm_start:
                self._record_path("batch_protocol", B)
                return batch_fit(X, Y_res, W_res)
            # satellite fix: this used to fall through silently — warm
            # starting chains state through the shared estimator, which
            # the stateless batch hook cannot reproduce
            if not self._warned_warm_bypass:
                self._warned_warm_bypass = True
                warnings.warn(
                    f"{type(self.estimator).__name__}.fit_weighted_batch "
                    "is bypassed because warm_start=True chains state "
                    "through the shared estimator; candidates fit "
                    "serially (warned once per fitter)",
                    RuntimeWarning,
                    stacklevel=3,
                )
        self._record_path("serial", B)
        models = []
        for b in range(B):
            if self.warm_start:
                self._shared.fit(X, Y_res[b], sample_weight=W_res[b])
                models.append(copy.deepcopy(self._shared))
            else:
                model = self.estimator.clone()
                model.fit(X, Y_res[b], sample_weight=W_res[b])
                models.append(model)
        return models

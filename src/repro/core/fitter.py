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

Both :meth:`WeightedFitter.fit` and :meth:`WeightedFitter.fit_batch`
end in one fit pass over the resolved rows.  A **fit memoization
cache** comes first: the resolved ``(weights, labels)`` pair — plus the
estimator's :func:`~repro.ml.base.estimator_fingerprint` and which
training split is in play — is hashed, and a row whose resolved vectors
collide with an earlier fit, or with another row of the same call,
reuses the fitted model instead of retraining.  Collisions are common
in practice: ``resolve_negative_weights`` can map distinct λ to the
same resolved vectors, λ-searches revisit Λ = 0, and hill climbing
re-lands on coordinates it has already tried.  The cache holds at most
:data:`FIT_CACHE_MAX` models (LRU eviction) and is off under
``warm_start`` (a warm-started fit depends on the mutable shared
estimator state, not just the weights); it has no other switch.

A persistent :class:`~repro.store.CacheStore` can sit *under* the
in-memory cache (``store=`` constructor argument, usually injected by
``Engine(store_dir=...)``): a memory miss consults the store before
training, and every fresh fit is published back.  The persistent key is
wider than the in-memory one — it adds a digest of the training split
itself, because the in-memory key's ``(weights, labels)`` hash is only
unambiguous within one fitter's ``X``.  An estimator without a
fingerprint (a param with no canonical encoding) stays out of the store;
the in-memory cache still serves it.

Every logical fit lands in exactly one :attr:`WeightedFitter.fit_paths`
entry — ``"cached"``, ``"store"`` or the path that trained it — and the
fit counters are read off it: ``n_fits`` counts *logical* fits, hits
included, so search-budget accounting (and ``n_fits == len(history)``
invariants) is unchanged by memoization; ``fit_cache_hits`` and
``store_hits`` are the work avoided.  All of them surface through
:class:`~repro.core.report.FitReport`.
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
    eval_chunk_size : int or None
        Row-block size of validation scoring.  Every
        :class:`~repro.core.kernels.CompiledEvaluator` the search builds
        for this fitter predicts and counts over blocks of at most this
        many rows — bit-identical results, bounded peak memory.  ``None``
        (default) scores the split as one block.
    store : repro.store.CacheStore or None
        Persistent blob store consulted under the in-memory fit cache
        and published to after every fresh fit (see module docstring).
        Ignored under ``warm_start``, like the memory cache: a
        warm-started model depends on process-local estimator state no
        other process can reproduce.

    Attributes
    ----------
    fit_paths : dict
        Logical fits by where their model came from:
        ``"cached"`` (memory hit, or a repeat of a row trained in the
        same call), ``"store"`` (persistent-store hit),
        ``"batch_protocol"`` (the estimator's ``fit_weighted_batch``),
        ``"serial"`` (a :meth:`fit_batch` row trained in-process), and
        ``"single"`` or ``"warm"`` (a :meth:`fit` call, without or with
        ``warm_start``).  A fit that raises is recorded nowhere.
    store_lookups : int
        Persistent-store lookups for model fits.
    n_fits, fit_cache_hits, fit_cache_lookups, store_hits : int
        Read-only counters over :attr:`fit_paths` (see their
        docstrings).
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
        self._fit_cache = {}
        # persistent layer under the memory cache; its soundness rests
        # on the same invariant (resolved vectors determine the model),
        # so it is off under warm_start too
        self.store = None if warm_start else store
        self.store_lookups = 0
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

    # -- fit counters --------------------------------------------------------

    @property
    def n_fits(self):
        """Logical fits requested, memoized ones included;
        ``n_fits - fit_cache_hits - store_hits`` models were trained."""
        return sum(self.fit_paths.values())

    @property
    def fit_cache_hits(self):
        """Fits served from memory, or by a repeat of the same call."""
        return self.fit_paths.get("cached", 0)

    @property
    def fit_cache_lookups(self):
        """Every logical fit looks the cache up, except under
        ``warm_start``, where the cache is off."""
        return 0 if self.warm_start else self.n_fits

    @property
    def store_hits(self):
        """Fits served from the persistent store."""
        return self.fit_paths.get("store", 0)

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

    def _record_path(self, path, count):
        if count:
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
        return self._fit_rows(
            X, y,
            lambda: self._weights_for(
                lambdas, predictions, use_subsample
            )[None],
            use_subsample,
        )[0]

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
        return self._fit_rows(
            self.X_train, self.y_train, lambda: self.kernel.weights_batch(L),
            False, batch=True,
        )

    def _fit_rows(self, X, y, raw_weights, split, batch=False):
        """One model per row of the ``(B, n)`` weights ``raw_weights()``.

        The weights are made and resolved
        (:func:`~repro.core.weights.resolve_negative_weights`) here, so
        this call holds the only references to the resolved batch.
        Each row is looked up in memory, then in the store; the rows
        that hit are dropped with the full batch before the distinct
        misses train in one :meth:`_train` call, so one ``(B, n)`` copy
        of the weights and labels is live while the estimator trains.
        The misses are published to both layers, and a row that repeats
        a miss of this call takes that miss's model.  Every row lands
        in one :attr:`fit_paths` entry, recorded once the call has
        succeeded.
        """
        W, Y = resolve_negative_weights(
            raw_weights(), y, strategy=self.negative_weights,
        )
        if self.warm_start:   # the cache is off: see the module docstring
            return self._train(X, Y, W, batch)
        B = len(Y)
        params = estimator_fingerprint(self.estimator)
        keys = [self._cache_key(params, W[b], Y[b], split) for b in range(B)]
        models = [None] * B
        misses = {}   # key -> (row, store key), in first-seen order
        stored = 0
        for b, key in enumerate(keys):
            models[b] = self._cache_get(key)
            if models[b] is not None or key in misses:
                continue
            store_key = self._store_key(key)
            if store_key is not None:
                self.store_lookups += 1
                models[b] = self.store.get("fit", store_key)
                if models[b] is not None:
                    # seeds memory, so a later row of this key hits it
                    self._cache_store(key, models[b])
                    stored += 1
                    continue
            misses[key] = (b, store_key)
        if misses:
            rows = [b for b, _ in misses.values()]
            if len(rows) < B:   # rebinding frees the full batch
                Y = Y[rows]
                W = W[rows]
            fitted = self._train(X, Y, W, batch)
            for (key, (b, store_key)), model in zip(misses.items(), fitted):
                models[b] = model
                self._cache_store(key, model)
                if store_key is not None:
                    self.store.put(
                        "fit", store_key, model,
                        extra={"estimator": type(self.estimator).__name__},
                    )
            for b, key in enumerate(keys):
                if models[b] is None:   # repeats a miss of this call
                    models[b] = models[misses[key][0]]
        self._record_path("store", stored)
        self._record_path("cached", B - stored - len(misses))
        return models

    def _train(self, X, Y, W, batch):
        """Train one fresh model per row, then record the training path.

        A :meth:`fit_batch` call without ``warm_start`` goes through the
        estimator's batch protocol when it has one; every other call
        fits row by row, on the shared estimator (snapshotted) under
        ``warm_start`` and on a fresh clone otherwise.
        """
        batch_fit = None
        if batch and getattr(self.estimator, "supports_batch_fit", True):
            # see the optional batch protocol note in repro.ml.base
            batch_fit = getattr(self.estimator, "fit_weighted_batch", None)
        if batch_fit is not None:
            if not self.warm_start:
                models = batch_fit(X, Y, W)
                self._record_path("batch_protocol", len(Y))
                return models
            # warm starting chains state through the shared estimator,
            # which the stateless batch hook cannot reproduce
            if not self._warned_warm_bypass:
                self._warned_warm_bypass = True
                warnings.warn(
                    f"{type(self.estimator).__name__}.fit_weighted_batch "
                    "is bypassed because warm_start=True chains state "
                    "through the shared estimator; candidates fit "
                    "serially (warned once per fitter)",
                    RuntimeWarning,
                    stacklevel=4,
                )
        models = []
        for y_b, w_b in zip(Y, W):
            if self.warm_start:
                self._shared.fit(X, y_b, sample_weight=w_b)
                # snapshot so callers can keep models for different λ
                # values while the shared instance keeps warm-starting
                models.append(copy.deepcopy(self._shared))
            else:
                model = self.estimator.clone()
                model.fit(X, y_b, sample_weight=w_b)
                models.append(model)
        if batch:
            path = "serial"
        else:
            path = "warm" if self.warm_start else "single"
        self._record_path(path, len(Y))
        return models

"""Exact incremental fairness auditing under row appends and retires.

The :class:`~repro.core.kernels.CompiledEvaluator` reduces every
supported disparity and the accuracy to exact integer counts over its
*count columns* (:func:`~repro.core.kernels.count_columns`): one
group's rows filtered by the labels its rate kind needs, each holding a
row count and a positive-prediction count.  :class:`IncrementalAuditor`
keeps those same columns as running totals.  Every stored row keeps its
bool mask row (which columns it counts in), and :meth:`append_rows` /
:meth:`retire_rows` add or subtract one delta over the changed rows
only.  Rates then go through the evaluator's own count→rate step
(:func:`~repro.core.kernels.disparities_from_counts`) — float64
operations over exact integers below 2**53 — so after **every** update
the auditor's disparities, accuracy, and max-violation are
bit-identical to a from-scratch evaluator pass over the live rows
(:meth:`recompute` performs that pass for verification; the
equivalence is property-tested in ``tests/test_incremental.py``).

The mask rows of appended rows come from the same column builder, run
on the batch padded with one *witness* row per known group (grouping
functions reject groupings with missing or empty groups, and a small
batch rarely covers every group).  The group universe is fixed at
construction: a batch that introduces a group the base dataset did not
have binds a different constraint set and raises instead of silently
skewing counts.

Dataset identity is maintained as a **delta-chained fingerprint**
(:mod:`repro.store.delta`): the base dataset's full fingerprint plus an
O(batch) digest per update, so the auditor's cache/registry key evolves
in O(changed rows) just like its counts.
"""

from __future__ import annotations

import numpy as np

from ..core.dsl import parse_spec
from ..core.evaluation import max_violation_from_disparities
from ..core.exceptions import SpecificationError
from ..core.kernels import (
    CompiledEvaluator,
    count_columns,
    disparities_from_counts,
)
from ..core.spec import bind_specs
from ..datasets.schema import Dataset
from ..ml.base import check_binary_labels
from ..store.delta import append_digest, chain_fingerprint, retire_digest

__all__ = ["IncrementalAuditor"]

#: row-block size for the initial / rebase prediction passes
_PREDICT_CHUNK = 262144


class IncrementalAuditor:
    """Maintain exact fairness/accuracy state under data updates.

    Parameters
    ----------
    spec : str, FairnessSpec, SpecSet, or list
        The fairness specification(s) to audit — anything
        :func:`~repro.core.dsl.parse_spec` accepts.  Only built-in
        metrics are supported (their rates reduce to counts); a custom
        metric raises.
    model : object with ``predict``
        The (fair) model under audit — a :class:`~repro.api.FairModel`
        or any estimator.  Appended rows are predicted once, in
        O(batch).
    base : Dataset
        The initial data.  Its grouping result fixes the group
        universe; its full fingerprint seeds the delta chain.
    """

    def __init__(self, spec, model, base):
        if not isinstance(base, Dataset):
            raise SpecificationError(
                "IncrementalAuditor needs a repro.datasets.Dataset base"
            )
        if len(base) == 0:
            raise SpecificationError("base dataset has zero rows")
        self.specs = parse_spec(spec)
        if not self.specs:
            raise SpecificationError("at least one FairnessSpec is required")
        self.model = model
        self._base_meta = {
            "name": base.name,
            "group_names": base.group_names,
            "sensitive_attribute": base.sensitive_attribute,
            "feature_names": base.feature_names,
            "task": base.task,
        }
        n = len(base)

        # -- fixed group universe: labels, epsilons, count layout -------------
        constraints = bind_specs(self.specs, base)
        self._layout, mask = count_columns(constraints, base.y)
        if self._layout.fallback:
            name = constraints[self._layout.fallback[0]].metric.name
            raise SpecificationError(
                f"metric {name!r} is custom; incremental auditing needs a "
                f"count-reducible built-in metric"
            )
        self._labels = [c.label for c in constraints]
        self._epsilons = [c.epsilon for c in constraints]
        self.k = len(constraints)

        # -- witness rows: one representative per known group -----------------
        witness = np.unique([
            idx[0] for c in constraints for idx in (c.g1_idx, c.g2_idx)
        ])
        self._witness = base.subset(witness)

        # -- growable row storage ---------------------------------------------
        self._extra_keys = tuple(sorted(
            key for key, value in base.extras.items()
            if isinstance(value, np.ndarray)
            and value.ndim >= 1 and len(value) == n
        ))
        self._n = 0
        self._cap = 0
        self._cols = {}
        self._append_storage(
            base.X, base.y, base.sensitive,
            [np.asarray(base.extras[k]) for k in self._extra_keys],
            mask != 0,
            self._predict(base.X),
        )

        # -- counters + identity ----------------------------------------------
        self._recount()
        self.fingerprint = base.fingerprint()
        self.n_updates = 0

    # -- storage --------------------------------------------------------------

    def _predict(self, X):
        """Model labels for a row block, chunked to bound the transient."""
        X = np.asarray(X, dtype=np.float64)
        if len(X) <= _PREDICT_CHUNK:
            return np.asarray(self.model.predict(X), dtype=np.int64)
        parts = [
            np.asarray(self.model.predict(X[i:i + _PREDICT_CHUNK]),
                       dtype=np.int64)
            for i in range(0, len(X), _PREDICT_CHUNK)
        ]
        return np.concatenate(parts)

    def _ensure_capacity(self, extra):
        need = self._n + extra
        if need <= self._cap:
            return
        cap = max(need, 2 * self._cap, 1024)
        for key, arr in self._cols.items():
            grown = np.zeros((cap,) + arr.shape[1:], dtype=arr.dtype)
            grown[:self._n] = arr[:self._n]
            self._cols[key] = grown
        self._cap = cap

    def _append_storage(self, X, y, sensitive, extra_vals, mask, pred):
        n_b = len(y)
        if not self._cols:
            d = np.asarray(X).shape[1]
            self._cols = {
                "X": np.zeros((0, d), dtype=np.float64),
                "y": np.zeros(0, dtype=np.int64),
                "sensitive": np.zeros(0, dtype=np.int64),
                "pred": np.zeros(0, dtype=np.int64),
                "alive": np.zeros(0, dtype=bool),
                "mask": np.zeros((0, self._layout.width), dtype=bool),
            }
            for key, val in zip(self._extra_keys, extra_vals):
                self._cols["extra:" + key] = np.zeros(
                    (0,) + val.shape[1:], dtype=val.dtype
                )
        self._ensure_capacity(n_b)
        lo, hi = self._n, self._n + n_b
        self._cols["X"][lo:hi] = X
        self._cols["y"][lo:hi] = y
        self._cols["sensitive"][lo:hi] = sensitive
        self._cols["pred"][lo:hi] = pred
        self._cols["alive"][lo:hi] = True
        self._cols["mask"][lo:hi] = mask
        for key, val in zip(self._extra_keys, extra_vals):
            self._cols["extra:" + key][lo:hi] = val
        self._n = hi

    def _col(self, key):
        return self._cols[key][:self._n]

    # -- membership of new rows ----------------------------------------------

    def _coerce_batch(self, batch, X, y, sensitive, extras):
        if batch is not None:
            if not isinstance(batch, Dataset):
                raise SpecificationError(
                    "append_rows takes a Dataset batch or X/y/sensitive "
                    "arrays"
                )
            X, y, sensitive = batch.X, batch.y, batch.sensitive
            extras = batch.extras
        X = np.asarray(X, dtype=np.float64)
        y = check_binary_labels(y)
        sensitive = np.asarray(sensitive, dtype=np.int64)
        if X.ndim != 2 or X.shape[1] != self._cols["X"].shape[1]:
            raise SpecificationError(
                f"batch X must have shape (b, {self._cols['X'].shape[1]})"
            )
        if len(y) != len(X) or len(sensitive) != len(X):
            raise SpecificationError("batch X, y, sensitive lengths differ")
        if len(X) == 0:
            raise SpecificationError("empty update batch")
        extras = dict(extras or {})
        extra_vals = []
        for key in self._extra_keys:
            if key not in extras:
                raise SpecificationError(
                    f"batch is missing per-row extras[{key!r}] carried by "
                    f"the base dataset"
                )
            val = np.asarray(extras[key])
            if len(val) != len(X):
                raise SpecificationError(
                    f"batch extras[{key!r}] must have one entry per row"
                )
            extra_vals.append(val)
        return X, y, sensitive, extra_vals

    def _batch_mask(self, X, y, sensitive, extra_vals):
        """The batch rows' bool mask rows, via witness padding.

        The specs are bound to ``witness ⊕ batch`` and its count columns
        built by the same :func:`~repro.core.kernels.count_columns` as
        the base's: the witness rows (one representative per known
        group) keep every universe group non-empty, so the padded
        binding matches the base's constraint list and column order
        unless the batch adds a group.  O(batch) — independent of the
        audited row count.
        """
        w = self._witness
        extras = {}
        for j, key in enumerate(self._extra_keys):
            extras[key] = np.concatenate(
                [np.asarray(w.extras[key]), extra_vals[j]]
            )
        padded = Dataset(
            name=self._base_meta["name"],
            X=np.vstack([w.X, X]),
            y=np.concatenate([w.y, y]),
            sensitive=np.concatenate([w.sensitive, sensitive]),
            group_names=self._base_meta["group_names"],
            sensitive_attribute=self._base_meta["sensitive_attribute"],
            feature_names=self._base_meta["feature_names"],
            task=self._base_meta["task"],
            extras=extras,
        )
        constraints = bind_specs(self.specs, padded)
        labels = [c.label for c in constraints]
        if labels != self._labels:
            unknown = sorted(set(labels) - set(self._labels))
            raise SpecificationError(
                f"update batch introduces unknown group(s): it binds "
                f"{unknown}, outside the group universe fixed at "
                f"construction"
            )
        _layout, mask = count_columns(constraints, padded.y)
        return mask[len(w):] != 0

    def _add(self, mask, y, pred, sign):
        """Fold rows into (``sign=+1``) or out of (``-1``) every count.

        The one state change: each column's row count and
        positive-prediction count, the correct count and the live count.
        """
        self._rows += sign * mask.sum(axis=0)
        self._pos += sign * mask[pred == 1].sum(axis=0)
        self._correct += sign * int(np.count_nonzero(pred == y))
        self._n_live += sign * len(y)

    # -- updates --------------------------------------------------------------

    def append_rows(self, batch=None, *, X=None, y=None, sensitive=None,
                    extras=None):
        """Append a row batch; O(batch rows) count deltas + audit.

        Returns the post-update :meth:`audit` snapshot.  The batch is a
        :class:`Dataset` (or raw ``X``/``y``/``sensitive`` arrays) whose
        rows are predicted once with the audited model; its count
        columns come from each spec's own grouping function.  A batch
        that is refused (bad shape, a label outside {0, 1}, an unknown
        group) changes nothing.
        """
        X, y, sensitive, extra_vals = self._coerce_batch(
            batch, X, y, sensitive, extras
        )
        mask = self._batch_mask(X, y, sensitive, extra_vals)
        pred = self._predict(X)
        self._append_storage(X, y, sensitive, extra_vals, mask, pred)
        self._add(mask, y, pred, +1)
        self.fingerprint = chain_fingerprint(
            self.fingerprint, "append", append_digest(X, y, sensitive)
        )
        self.n_updates += 1
        return self.audit()

    def check_retire(self, idx, appended=0):
        """The unique ids of ``idx``, refused unless each names a live row.

        Row ids are append-order positions (see :meth:`retire_rows`).
        ``appended`` counts rows an update appends before it retires:
        their ids continue the numbering and are live.  Raises
        :class:`SpecificationError` on an empty, out-of-range or
        already-retired id, so a caller can check a whole update before
        it applies any part of it.
        """
        limit = self._n + appended
        out_of_range = SpecificationError(
            f"retire ids out of range [0, {limit})"
        )
        try:
            idx = np.unique(np.asarray(idx, dtype=np.int64))
        except OverflowError:
            raise out_of_range from None
        if idx.size == 0:
            raise SpecificationError("empty retire batch")
        if idx.min() < 0 or idx.max() >= limit:
            raise out_of_range
        old = idx[idx < self._n]
        alive = self._cols["alive"][old]
        if not alive.all():
            raise SpecificationError(
                f"rows already retired: {old[~alive][:8].tolist()}"
            )
        return idx

    def retire_rows(self, idx):
        """Retire rows by id; O(retired rows) count deltas + audit.

        Row ids are append-order positions: the base dataset's rows are
        ``0..n_base-1``, each appended batch continues the numbering
        (``append_rows``'s storage order).  Retiring an unknown or
        already-retired id raises (:meth:`check_retire`) and changes
        nothing.  Returns the post-update :meth:`audit` snapshot.
        """
        idx = self.check_retire(idx)
        self._add(
            self._cols["mask"][idx], self._cols["y"][idx],
            self._cols["pred"][idx], -1,
        )
        self._cols["alive"][idx] = False
        self.fingerprint = chain_fingerprint(
            self.fingerprint, "retire", retire_digest(idx)
        )
        self.n_updates += 1
        return self.audit()

    # -- audit state -----------------------------------------------------------

    @property
    def n_total(self):
        """Rows ever appended (live + retired)."""
        return self._n

    @property
    def n_live(self):
        return self._n_live

    def disparities(self):
        """``(k,)`` disparity vector, bit-identical to the evaluator's.

        The running column counts go through the evaluator's own
        :func:`~repro.core.kernels.disparities_from_counts` — the same
        float64 arithmetic, in the same order, on the same exact values
        its block loop would count.
        """
        return disparities_from_counts(
            self._layout, self._pos[None, :], self._rows
        )[0]

    def accuracy(self):
        """Live-row accuracy of the audited model (exact counts)."""
        if self._n_live == 0:
            raise SpecificationError("no live rows to audit")
        return self._correct / self._n_live

    def max_violation(self):
        """``max_k |disparity_k| − ε_k`` over the live rows."""
        return max_violation_from_disparities(
            self.disparities(), self._epsilons
        )

    def audit(self):
        """Snapshot dict: disparities, accuracy, max violation, identity."""
        disparities = self.disparities()
        max_violation = max_violation_from_disparities(
            disparities, self._epsilons
        )
        return {
            "disparities": disparities,
            "constraint_labels": list(self._labels),
            "accuracy": self.accuracy(),
            "max_violation": max_violation,
            "feasible": max_violation <= 1e-12,
            "n_live": self._n_live,
            "n_total": self._n,
            "n_updates": self.n_updates,
            "fingerprint": self.fingerprint,
        }

    # -- materialization + verification ---------------------------------------

    def live_dataset(self):
        """The live rows as a fresh :class:`Dataset` (O(live rows)).

        Used for retunes and from-scratch verification.  Its *full*
        fingerprint names the exact row content; ``self.fingerprint``
        names the update history (see :mod:`repro.store.delta`).
        """
        alive = self._col("alive")
        extras = {
            key: self._col("extra:" + key)[alive].copy()
            for key in self._extra_keys
        }
        return Dataset(
            name=self._base_meta["name"],
            X=self._col("X")[alive].copy(),
            y=self._col("y")[alive].copy(),
            sensitive=self._col("sensitive")[alive].copy(),
            group_names=self._base_meta["group_names"],
            sensitive_attribute=self._base_meta["sensitive_attribute"],
            feature_names=self._base_meta["feature_names"],
            task=self._base_meta["task"],
            extras=extras,
        )

    def live_predictions(self):
        """The stored model labels for the live rows, in storage order."""
        alive = self._col("alive")
        return self._col("pred")[alive].copy()

    def recompute(self, chunk_size=None):
        """From-scratch :class:`CompiledEvaluator` pass over the live rows.

        The verification twin of :meth:`audit`: binds the specs to the
        materialized live dataset, scores the stored predictions
        through the batched evaluator (optionally chunked), and
        returns the same snapshot fields.  Bit-identical to
        :meth:`audit` at every step — this is the property the
        incremental engine is built on.  Raises when a group has been
        retired away entirely (the bound constraint set would no
        longer match the fixed universe).
        """
        live = self.live_dataset()
        constraints = bind_specs(self.specs, live)
        labels = [c.label for c in constraints]
        if labels != self._labels:
            raise SpecificationError(
                "live dataset no longer binds the original constraint "
                "set (a group emptied?); incremental audit state cannot "
                "be verified against it"
            )
        evaluator = CompiledEvaluator(
            constraints, live.y, chunk_size=chunk_size
        )
        disparities, accuracy = evaluator.score(self.live_predictions())
        max_violation = max_violation_from_disparities(
            disparities, [c.epsilon for c in constraints]
        )
        return {
            "disparities": disparities,
            "constraint_labels": labels,
            "accuracy": accuracy,
            "max_violation": max_violation,
            "feasible": max_violation <= 1e-12,
            "n_live": len(live),
        }

    # -- model replacement (retune) -------------------------------------------

    def rebase(self, model):
        """Swap in a new model and rebuild prediction-dependent state.

        A retune changes every row's prediction, so this is inherently
        O(live rows): the new model predicts all live rows once and the
        counts are rebuilt vectorized.  The count columns, every row's
        mask row and the delta-chained fingerprint are untouched — the
        data did not change, only the model.
        """
        self.model = model
        alive = self._col("alive")
        self._cols["pred"][:self._n][alive] = self._predict(
            self._col("X")[alive]
        )
        self._recount()
        return self.audit()

    def _recount(self):
        """Rebuild every count from storage (vectorized, O(n))."""
        self._pos = np.zeros(self._layout.width, dtype=np.int64)
        self._rows = np.zeros(self._layout.width, dtype=np.int64)
        self._correct = 0
        self._n_live = 0
        alive = self._col("alive")
        self._add(
            self._col("mask")[alive], self._col("y")[alive],
            self._col("pred")[alive], +1,
        )

    def __repr__(self):
        return (
            f"IncrementalAuditor(k={self.k}, live={self._n_live}/"
            f"{self._n}, updates={self.n_updates})"
        )

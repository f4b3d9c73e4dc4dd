"""Exact incremental fairness auditing under row appends and retires.

The chunked :class:`~repro.core.kernels.CompiledEvaluator` already
reduces every supported disparity and the accuracy to exact integer
counts divided once.  :class:`IncrementalAuditor` makes those counts
first-class *updatable* state: per (spec, group) it holds the group
size, the per-label row counts, and the positive-prediction counts
split by label, and :meth:`append_rows` / :meth:`retire_rows` apply
count deltas touching only the changed rows.  Rates are then computed
through the very same :func:`~repro.core.kernels.rate_from_counts`
arithmetic the batched evaluator uses — float64 operations over exact
integers below 2**53 — so after **every** update the auditor's
disparities, accuracy, and max-violation are bit-identical to a
from-scratch :class:`~repro.core.kernels.CompiledEvaluator` pass over
the live rows (:meth:`recompute` performs that pass for verification;
the equivalence is property-tested in ``tests/test_incremental.py``).

Group membership for appended rows is decided by the spec's own
grouping function, evaluated on the batch padded with one *witness* row
per known group (grouping functions reject groupings with missing or
empty groups, and a small batch rarely covers every group).  The group
universe is fixed at construction: a batch that introduces a group the
base dataset did not have raises instead of silently skewing counts.

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
from ..core.kernels import CompiledEvaluator, _rate_kind, rate_from_counts
from ..core.spec import bind_specs
from ..datasets.schema import Dataset
from ..store.delta import append_digest, chain_fingerprint, retire_digest

__all__ = ["IncrementalAuditor"]

#: row-block size for the initial / rebase prediction passes
_PREDICT_CHUNK = 262144


class _GroupCounts:
    """The updatable integer accumulators for one (spec, group) pair.

    Every rate the evaluator computes reduces to these five integers:
    ``size`` (live rows in the group), ``n_y0`` / ``n_y1`` (label
    counts), and ``pos0`` / ``pos1`` (positive predictions split by
    label; the group's total positives are ``pos0 + pos1`` exactly).
    """

    __slots__ = ("size", "n_y0", "n_y1", "pos0", "pos1")

    def __init__(self):
        self.size = 0
        self.n_y0 = 0
        self.n_y1 = 0
        self.pos0 = 0
        self.pos1 = 0

    def add_rows(self, y, pred, sign=1):
        """Fold a batch of member rows in (``sign=+1``) or out (``-1``)."""
        n = len(y)
        n_y1 = int(np.sum(y == 1))
        self.size += sign * n
        self.n_y1 += sign * n_y1
        self.n_y0 += sign * (n - n_y1)
        pos = pred == 1
        self.pos0 += sign * int(np.sum(pos & (y == 0)))
        self.pos1 += sign * int(np.sum(pos & (y == 1)))

    def as_dict(self):
        return {
            "size": self.size, "n_y0": self.n_y0, "n_y1": self.n_y1,
            "pos0": self.pos0, "pos1": self.pos1,
        }


class _AuditConstraint:
    """One pairwise constraint tracked by name (indices are fluid here)."""

    __slots__ = ("spec_idx", "metric", "epsilon", "g1", "g2", "kind",
                 "costs", "label")

    def __init__(self, spec_idx, metric, epsilon, g1, g2, kind, costs):
        self.spec_idx = spec_idx
        self.metric = metric
        self.epsilon = float(epsilon)
        self.g1 = g1
        self.g2 = g2
        self.kind = kind
        self.costs = costs
        # matches Constraint's auto label so recompute() can align
        self.label = f"{metric.name}|{g1}-{g2}|eps={epsilon}"


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

        # -- fixed group universe + constraint list (bind order) -------------
        self._group_names = []    # per spec: tuple of group names, in order
        self._constraints = []    # flattened, bind_specs order
        memberships = []
        for s, fspec in enumerate(self.specs):
            kind, costs = _rate_kind(fspec.metric)
            if kind is None:
                raise SpecificationError(
                    f"metric {fspec.metric.name!r} is custom; incremental "
                    f"auditing needs a count-reducible built-in metric"
                )
            groups = fspec.grouping(base)
            names = tuple(groups)
            self._group_names.append(names)
            member = np.zeros((n, len(names)), dtype=bool)
            for j, name in enumerate(names):
                member[groups[name], j] = True
            memberships.append(member)
            for i1 in range(len(names)):
                for i2 in range(i1 + 1, len(names)):
                    self._constraints.append(_AuditConstraint(
                        s, fspec.metric, fspec.epsilon,
                        names[i1], names[i2], kind, costs,
                    ))
        self.k = len(self._constraints)

        # -- witness rows: one representative per known group -----------------
        witness = sorted({
            int(groups_idx[0])
            for s, fspec in enumerate(self.specs)
            for groups_idx in [
                memberships[s][:, j].nonzero()[0]
                for j in range(len(self._group_names[s]))
            ]
        })
        self._witness = base.subset(np.asarray(witness, dtype=np.int64))

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
            memberships,
            self._predict(base.X),
        )

        # -- counters + identity ----------------------------------------------
        self._counts = [
            {name: _GroupCounts() for name in names}
            for names in self._group_names
        ]
        self._n_live = 0
        self._correct = 0
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

    def _append_storage(self, X, y, sensitive, extra_vals, memberships,
                        pred):
        n_b = len(y)
        if not self._cols:
            d = np.asarray(X).shape[1]
            self._cols = {
                "X": np.zeros((0, d), dtype=np.float64),
                "y": np.zeros(0, dtype=np.int64),
                "sensitive": np.zeros(0, dtype=np.int64),
                "pred": np.zeros(0, dtype=np.int64),
                "alive": np.zeros(0, dtype=bool),
            }
            for key, val in zip(self._extra_keys, extra_vals):
                self._cols["extra:" + key] = np.zeros(
                    (0,) + val.shape[1:], dtype=val.dtype
                )
            for s, member in enumerate(memberships):
                self._cols[f"member{s}"] = np.zeros(
                    (0, member.shape[1]), dtype=bool
                )
        self._ensure_capacity(n_b)
        lo, hi = self._n, self._n + n_b
        self._cols["X"][lo:hi] = X
        self._cols["y"][lo:hi] = y
        self._cols["sensitive"][lo:hi] = sensitive
        self._cols["pred"][lo:hi] = pred
        self._cols["alive"][lo:hi] = True
        for key, val in zip(self._extra_keys, extra_vals):
            self._cols["extra:" + key][lo:hi] = val
        for s, member in enumerate(memberships):
            self._cols[f"member{s}"][lo:hi] = member
        self._n = hi
        return np.arange(lo, hi)

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
        y = np.asarray(y, dtype=np.int64)
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

    def _batch_membership(self, X, y, sensitive, extra_vals):
        """Per-spec boolean membership of batch rows, via witness padding.

        The grouping function is evaluated on ``witness ⊕ batch``: the
        witness rows (one live representative per known group) keep
        every universe group non-empty so grouping validation passes,
        and the batch rows' group assignment is read off the result.
        O(batch) — independent of the audited row count.
        """
        w = self._witness
        nw = len(w)
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
        memberships = []
        for s, fspec in enumerate(self.specs):
            names = self._group_names[s]
            order = {name: j for j, name in enumerate(names)}
            member = np.zeros((len(X), len(names)), dtype=bool)
            for name, idx in fspec.grouping(padded).items():
                if name not in order:
                    raise SpecificationError(
                        f"update batch introduces unknown group {name!r}; "
                        f"the incremental auditor's group universe is "
                        f"fixed at construction ({list(names)})"
                    )
                rows = idx[idx >= nw] - nw
                member[rows, order[name]] = True
            memberships.append(member)
        return memberships

    # -- updates --------------------------------------------------------------

    def append_rows(self, batch=None, *, X=None, y=None, sensitive=None,
                    extras=None):
        """Append a row batch; O(batch rows) count deltas + audit.

        Returns the post-update :meth:`audit` snapshot.  The batch is a
        :class:`Dataset` (or raw ``X``/``y``/``sensitive`` arrays) whose
        rows are predicted once with the audited model; group
        membership comes from each spec's own grouping function.
        """
        X, y, sensitive, extra_vals = self._coerce_batch(
            batch, X, y, sensitive, extras
        )
        memberships = self._batch_membership(X, y, sensitive, extra_vals)
        pred = self._predict(X)
        self._append_storage(X, y, sensitive, extra_vals, memberships, pred)
        for s, member in enumerate(memberships):
            for j, name in enumerate(self._group_names[s]):
                m = member[:, j]
                if m.any():
                    self._counts[s][name].add_rows(y[m], pred[m], +1)
        self._n_live += len(y)
        self._correct += int(np.sum(pred == y))
        self.fingerprint = chain_fingerprint(
            self.fingerprint, "append", append_digest(X, y, sensitive)
        )
        self.n_updates += 1
        return self.audit()

    def retire_rows(self, idx):
        """Retire rows by id; O(retired rows) count deltas + audit.

        Row ids are append-order positions: the base dataset's rows are
        ``0..n_base-1``, each appended batch continues the numbering
        (``append_rows``'s storage order).  Retiring an unknown or
        already-retired id raises.  Returns the post-update
        :meth:`audit` snapshot.
        """
        idx = np.unique(np.asarray(idx, dtype=np.int64))
        if idx.size == 0:
            raise SpecificationError("empty retire batch")
        if idx.min() < 0 or idx.max() >= self._n:
            raise SpecificationError(
                f"retire ids out of range [0, {self._n})"
            )
        alive = self._cols["alive"]
        if not alive[idx].all():
            dead = idx[~alive[idx]][:8]
            raise SpecificationError(
                f"rows already retired: {dead.tolist()}"
            )
        y = self._cols["y"][idx]
        pred = self._cols["pred"][idx]
        for s in range(len(self.specs)):
            member = self._cols[f"member{s}"][idx]
            for j, name in enumerate(self._group_names[s]):
                m = member[:, j]
                if m.any():
                    self._counts[s][name].add_rows(y[m], pred[m], -1)
        alive[idx] = False
        self._n_live -= idx.size
        self._correct -= int(np.sum(pred == y))
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

    def _side_counts(self, constraint, counts):
        kind = constraint.kind
        if kind == "sp":
            return (np.float64(counts.pos0 + counts.pos1),)
        if kind == "fpr":
            return (np.float64(counts.pos0),)
        if kind == "fnr":
            return (np.float64(counts.pos1),)
        return (np.float64(counts.pos0), np.float64(counts.pos1))

    def disparities(self):
        """``(k,)`` disparity vector, bit-identical to the evaluator's.

        Each side's rate goes through the shared
        :func:`~repro.core.kernels.rate_from_counts` with this
        auditor's integer accumulators — the same float64 arithmetic,
        in the same order, on the same exact values the batched mask
        product would produce.
        """
        out = np.empty(self.k, dtype=np.float64)
        for i, c in enumerate(self._constraints):
            group = self._counts[c.spec_idx]
            v1 = rate_from_counts(
                c.kind, self._side_counts(c, group[c.g1]),
                group[c.g1].size, group[c.g1].n_y0, group[c.g1].n_y1,
                c.costs,
            )
            v2 = rate_from_counts(
                c.kind, self._side_counts(c, group[c.g2]),
                group[c.g2].size, group[c.g2].n_y0, group[c.g2].n_y1,
                c.costs,
            )
            out[i] = v1 - v2
        return out

    def accuracy(self):
        """Live-row accuracy of the audited model (exact counts)."""
        if self._n_live == 0:
            raise SpecificationError("no live rows to audit")
        return self._correct / self._n_live

    def max_violation(self):
        """``max_k |disparity_k| − ε_k`` over the live rows."""
        return max_violation_from_disparities(
            self.disparities(), [c.epsilon for c in self._constraints]
        )

    def audit(self):
        """Snapshot dict: disparities, accuracy, max violation, identity."""
        disparities = self.disparities()
        max_violation = max_violation_from_disparities(
            disparities, [c.epsilon for c in self._constraints]
        )
        return {
            "disparities": disparities,
            "constraint_labels": [c.label for c in self._constraints],
            "accuracy": self.accuracy(),
            "max_violation": max_violation,
            "feasible": max_violation <= 1e-12,
            "n_live": self._n_live,
            "n_total": self._n,
            "n_updates": self.n_updates,
            "fingerprint": self.fingerprint,
        }

    def counts(self):
        """The raw integer accumulators, per spec per group (for tests)."""
        return [
            {name: gc.as_dict() for name, gc in per_spec.items()}
            for per_spec in self._counts
        ]

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
        if labels != [c.label for c in self._constraints]:
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
        accumulators are recounted vectorized.  Count *structure* and
        the delta-chained fingerprint are untouched — the data did not
        change, only the model.
        """
        self.model = model
        alive = self._col("alive")
        self._cols["pred"][:self._n][alive] = self._predict(
            self._col("X")[alive]
        )
        self._recount()
        return self.audit()

    def _recount(self):
        """Rebuild every accumulator from storage (vectorized, O(n))."""
        alive = self._col("alive")
        y = self._col("y")
        pred = self._col("pred")
        self._n_live = int(np.sum(alive))
        self._correct = int(np.sum((pred == y) & alive))
        for s in range(len(self.specs)):
            member = self._col(f"member{s}")
            for j, name in enumerate(self._group_names[s]):
                m = member[:, j] & alive
                gc = self._counts[s][name]
                gc.size = gc.n_y0 = gc.n_y1 = gc.pos0 = gc.pos1 = 0
                if m.any():
                    gc.add_rows(y[m], pred[m], +1)

    def __repr__(self):
        return (
            f"IncrementalAuditor(k={self.k}, live={self._n_live}/"
            f"{self._n}, updates={self.n_updates})"
        )

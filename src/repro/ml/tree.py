"""Weighted CART decision tree for binary classification.

The paper uses random forests and XGBoost as examples of ML algorithms with
no explicit loss function; both are built on this tree.  Splits minimize
weighted Gini impurity; ``sample_weight`` flows through naturally, which is
what makes the tree usable inside OmniFair unchanged.

Two builders grow **bit-for-bit identical** trees:

* the legacy builder re-sorts every feature column at every node
  (``O(d · m log m)`` per node);
* the presorted builder (default) argsorts each feature **once** for the
  whole dataset (:class:`PresortedDataset`) and thereafter only
  *partitions* the per-feature index lists at each split, evaluating
  thresholds with the same cumulative-sum scan but no per-node sort.

The equivalence is exact, not approximate: boolean-mask recursion keeps a
node's rows in original order, and a stable (mergesort) per-node sort of a
subset equals the stable partition of the full stable sort — so both
builders scan identical value/weight sequences, hence identical cumsums,
gains, tie-breaks, and thresholds (asserted in
``tests/test_batch_protocol.py``).

For λ-search batches, :meth:`DecisionTree.fit_weighted_batch` reuses one
:class:`PresortedDataset` across **all** candidates' trees — the argsort
is paid once per dataset, not once per node per candidate — and
:meth:`DecisionTree.predict_batch` descends every candidate tree over the
shared feature matrix in one stacked vectorized walk.
"""

from __future__ import annotations

import numpy as np

from .base import BaseClassifier, check_Xy, check_sample_weight

__all__ = ["DecisionTree", "PresortedDataset"]

_LEAF = -1


class PresortedDataset:
    """Per-feature stable argsort of a training matrix, computed once.

    Attributes
    ----------
    X : ndarray (n, d)
        The validated feature matrix (kept by reference; callers reuse
        the presort only when they hold the *same* array object).
    order : ndarray (n, d) of int64
        ``order[:, f]`` lists row indices sorted by feature ``f``
        (mergesort, so ties keep original row order — the invariant the
        presorted builder's equivalence proof rests on).
    """

    def __init__(self, X):
        X, _ = check_Xy(X)
        self.X = X
        self.order = np.argsort(X, axis=0, kind="mergesort")


def partition_sorted(sorted_idx, member, n_left):
    """Stable-split presorted index columns by a row-membership mask.

    ``member`` is a full-dataset boolean scratch marking the rows that go
    left; each column keeps its sorted order on both sides (stability is
    what preserves bitwise equivalence with per-node re-sorting).  Every
    column holds the same row set, so both sides have equal counts per
    column and the whole split is two boolean compactions on the
    transposed matrix instead of a per-feature loop.
    """
    st = np.ascontiguousarray(sorted_idx.T)               # (d, m)
    go_left = member[st]
    left = st[go_left].reshape(st.shape[0], n_left).T
    right = st[~go_left].reshape(st.shape[0], -1).T
    return left, right


class _TreeBuilder:
    """Grows the flat-array tree representation used for fast prediction."""

    def __init__(self, max_depth, min_samples_split, min_samples_leaf,
                 max_features, rng):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []  # weighted P(y=1) at the node

    def _new_node(self):
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(0.0)
        return len(self.feature) - 1

    def build(self, X, y, w, depth=0):
        node = self._new_node()
        w_sum = w.sum()
        p1 = float(np.dot(w, y) / w_sum) if w_sum > 0 else 0.0
        self.value[node] = p1
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or p1 <= 0.0
            or p1 >= 1.0
        ):
            return node
        split = self._best_split(X, y, w)
        if split is None:
            return node
        feat, thresh = split
        mask = X[:, feat] <= thresh
        left = self.build(X[mask], y[mask], w[mask], depth + 1)
        right = self.build(X[~mask], y[~mask], w[~mask], depth + 1)
        self.feature[node] = feat
        self.threshold[node] = thresh
        self.left[node] = left
        self.right[node] = right
        return node

    def _best_split(self, X, y, w):
        n_features = X.shape[1]
        if self.max_features is None or self.max_features >= n_features:
            candidates = np.arange(n_features)
        else:
            candidates = self.rng.choice(
                n_features, size=self.max_features, replace=False
            )
        w_total = w.sum()
        wy_total = np.dot(w, y)
        parent_gini = self._gini(wy_total, w_total)
        best = None
        best_gain = 1e-12
        for feat in candidates:
            col = X[:, feat]
            order = np.argsort(col, kind="mergesort")
            cs = col[order]
            ws = w[order]
            wys = ws * y[order]
            cum_w = np.cumsum(ws)
            cum_wy = np.cumsum(wys)
            # valid split positions: between distinct values, honoring
            # min_samples_leaf on both sides
            distinct = cs[:-1] < cs[1:]
            pos = np.nonzero(distinct)[0]
            if len(pos) == 0:
                continue
            k = self.min_samples_leaf
            pos = pos[(pos + 1 >= k) & (len(cs) - (pos + 1) >= k)]
            if len(pos) == 0:
                continue
            wl = cum_w[pos]
            wyl = cum_wy[pos]
            wr = w_total - wl
            wyr = wy_total - wyl
            child = (
                wl * self._gini_vec(wyl, wl) + wr * self._gini_vec(wyr, wr)
            ) / w_total
            gain = parent_gini - child
            idx = int(np.argmax(gain))
            if gain[idx] > best_gain:
                best_gain = float(gain[idx])
                thresh = 0.5 * (cs[pos[idx]] + cs[pos[idx] + 1])
                best = (int(feat), float(thresh))
        return best

    @staticmethod
    def _gini(wy, w_total):
        if w_total <= 0:
            return 0.0
        p = wy / w_total
        return 2.0 * p * (1.0 - p)

    @staticmethod
    def _gini_vec(wy, w_total):
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(w_total > 0, wy / np.maximum(w_total, 1e-300), 0.0)
        return 2.0 * p * (1.0 - p)


class _PresortTreeBuilder(_TreeBuilder):
    """Grows the identical tree from per-feature presorted index lists.

    Nodes are addressed by ``(node_rows, sorted_idx)``: the node's rows
    in original order, and the same rows ordered by each feature.  The
    per-node mergesort of the legacy builder is skipped entirely — every
    split scan gathers its column through the presorted indices, and
    splits partition the lists stably instead of re-sorting.
    """

    def __init__(self, max_depth, min_samples_split, min_samples_leaf,
                 max_features, rng, X, y, w):
        super().__init__(max_depth, min_samples_split, min_samples_leaf,
                         max_features, rng)
        self.X = X
        self.y = y
        self.w = w
        self._member = np.zeros(len(y), dtype=bool)  # reusable scratch

    def build(self, node_rows, sorted_idx, depth=0):
        node = self._new_node()
        w = self.w[node_rows]
        y = self.y[node_rows]
        w_sum = w.sum()
        wy = np.dot(w, y)
        p1 = float(wy / w_sum) if w_sum > 0 else 0.0
        self.value[node] = p1
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or p1 <= 0.0
            or p1 >= 1.0
        ):
            return node
        split = self._best_split(sorted_idx, w_sum, wy)
        if split is None:
            return node
        feat, thresh = split
        go_left = self.X[node_rows, feat] <= thresh
        left_rows = node_rows[go_left]
        right_rows = node_rows[~go_left]
        self._member[left_rows] = True
        left_sorted, right_sorted = partition_sorted(
            sorted_idx, self._member, len(left_rows)
        )
        self._member[left_rows] = False
        left = self.build(left_rows, left_sorted, depth + 1)
        right = self.build(right_rows, right_sorted, depth + 1)
        self.feature[node] = feat
        self.threshold[node] = thresh
        self.left[node] = left
        self.right[node] = right
        return node

    def _best_split(self, sorted_idx, w_total, wy_total):
        """All-features-at-once split scan over the presorted lists.

        The gain at every (position, feature) pair is the exact same
        elementwise expression the legacy per-feature loop evaluates
        (cumsums over identical sequences, the same ``_gini_vec``), so
        every gain value — and therefore every argmax tie-break — is
        bitwise identical; invalid positions are masked to ``-inf``
        instead of being filtered, which cannot win a strictly-greater
        comparison.  One vectorized pass replaces ``d`` per-feature
        passes of several numpy calls each.
        """
        n_features = sorted_idx.shape[1]
        if self.max_features is None or self.max_features >= n_features:
            candidates = np.arange(n_features)
            sorted_sub = sorted_idx                       # (m, c) as-is
        else:
            candidates = self.rng.choice(
                n_features, size=self.max_features, replace=False
            )
            sorted_sub = sorted_idx[:, candidates]
        m = sorted_idx.shape[0]
        CS = self.X[sorted_sub, candidates[None, :]]
        WS = self.w[sorted_sub]
        WYS = WS * self.y[sorted_sub]
        cum_w = np.cumsum(WS, axis=0)
        cum_wy = np.cumsum(WYS, axis=0)
        left_counts = np.arange(1, m)
        valid = CS[:-1] < CS[1:]                          # distinct values
        k = self.min_samples_leaf
        if k > 1:
            ok = (left_counts >= k) & (m - left_counts >= k)
            valid &= ok[:, None]
        if not valid.any():
            return None
        wl = cum_w[:-1]
        wyl = cum_wy[:-1]
        wr = w_total - wl
        wyr = wy_total - wyl
        # inlined _gini_vec, identical arithmetic without the per-call
        # errstate context (zero-weight rows were dropped before the
        # build, so every wl/wr is strictly positive here and the
        # guarded division can never actually trip)
        pl = np.where(wl > 0, wyl / np.maximum(wl, 1e-300), 0.0)
        pr = np.where(wr > 0, wyr / np.maximum(wr, 1e-300), 0.0)
        child = (
            wl * (2.0 * pl * (1.0 - pl)) + wr * (2.0 * pr * (1.0 - pr))
        ) / w_total
        gain = self._gini(wy_total, w_total) - child
        gain[~valid] = -np.inf
        best = None
        best_gain = 1e-12
        rows = np.argmax(gain, axis=0)
        col_gains = gain[rows, np.arange(gain.shape[1])]
        for ci in range(len(candidates)):
            if col_gains[ci] > best_gain:
                best_gain = float(col_gains[ci])
                j = rows[ci]
                thresh = 0.5 * (CS[j, ci] + CS[j + 1, ci])
                best = (int(candidates[ci]), float(thresh))
        return best


class DecisionTree(BaseClassifier):
    """CART binary classifier with weighted Gini splits.

    Parameters
    ----------
    max_depth : int
        Maximum tree depth (root has depth 0).
    min_samples_split : int
        Minimum rows at a node to consider splitting it.
    min_samples_leaf : int
        Minimum rows on each side of any split.
    max_features : int or None
        Features sampled per split (``None`` = all) — the random-forest hook.
    random_state : int
        Seed for feature subsampling.
    presort : bool
        Build via the presorted-index builder (default) — one stable
        argsort per dataset instead of a mergesort per node, bit-for-bit
        identical trees.  ``False`` keeps the legacy per-node-sort
        builder (for equivalence testing and benchmarking); it also
        disables the batch protocol (:attr:`supports_batch_fit`).
    """

    def __init__(
        self,
        max_depth=8,
        min_samples_split=2,
        min_samples_leaf=1,
        max_features=None,
        random_state=0,
        presort=True,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.presort = presort
        self._fitted = False

    def fit(self, X, y, sample_weight=None, presorted=None):
        """Fit the tree; optionally reuse a shared :class:`PresortedDataset`.

        ``presorted`` is honored only when it was built from the *same*
        array object as ``X`` and no zero-weight rows need dropping
        (dropping rows invalidates the presorted index lists); otherwise
        the presort is recomputed locally (``presort=True``) or the
        legacy per-node-sort builder runs (``presort=False``).
        """
        X, y = check_Xy(X, y)
        w = check_sample_weight(sample_weight, len(y))
        # drop zero-weight rows: they must not influence splits
        keep = w > 0
        dropped = not np.all(keep)
        if dropped:
            X, y, w = X[keep], y[keep], w[keep]
        if len(y) == 0:
            raise ValueError("all sample weights are zero")
        rng = np.random.default_rng(self.random_state)
        if self.presort:
            if presorted is not None and presorted.X is X and not dropped:
                order = presorted.order
            else:
                order = np.argsort(X, axis=0, kind="mergesort")
            builder = _PresortTreeBuilder(
                self.max_depth,
                self.min_samples_split,
                self.min_samples_leaf,
                self.max_features,
                rng,
                X,
                y,
                w,
            )
            builder.build(np.arange(len(y), dtype=np.int64), order)
        else:
            builder = _TreeBuilder(
                self.max_depth,
                self.min_samples_split,
                self.min_samples_leaf,
                self.max_features,
                rng,
            )
            builder.build(X, y, w)
        self.feature_ = np.asarray(builder.feature, dtype=np.int64)
        self.threshold_ = np.asarray(builder.threshold, dtype=np.float64)
        self.left_ = np.asarray(builder.left, dtype=np.int64)
        self.right_ = np.asarray(builder.right, dtype=np.int64)
        self.value_ = np.asarray(builder.value, dtype=np.float64)
        self.n_nodes_ = len(self.feature_)
        self._fitted = True
        return self

    # -- batch protocol (used by the compiled λ-search engine) ---------------

    @property
    def supports_batch_fit(self):
        """Batch fitting piggybacks on the shared presort."""
        return bool(self.presort)

    def _shared_presort(self, X):
        """One cached :class:`PresortedDataset` per training matrix.

        Keyed by array *identity* (the λ-search fitter holds one stable
        training array across every batch), so a different matrix can
        never silently reuse a stale presort.
        """
        cached = getattr(self, "_presort_cache", None)
        if cached is None or cached.X is not X:
            cached = PresortedDataset(X)
            self._presort_cache = cached
        return cached

    def fit_weighted_batch(self, X, y_batch, w_batch):
        """Fit one tree per ``(y, w)`` row pair off a shared presort.

        Parameters
        ----------
        X : ndarray (n, d)
            Shared training features — argsorted once (and cached across
            calls on the same array), not once per node per candidate.
        y_batch : ndarray (B, n)
            Per-candidate labels (negative-weight resolution may flip
            labels differently per candidate).
        w_batch : ndarray (B, n)
            Per-candidate non-negative sample weights.

        Returns
        -------
        list of fitted :class:`DecisionTree`, one per candidate — each
        **bit-for-bit identical** to ``clone().fit(X, y_b, w_b)``.
        Candidates containing zero weights fall back to the plain fit
        (zero-weight rows must be dropped, which invalidates the shared
        index lists); all-positive candidates share the presort.
        """
        X, _ = check_Xy(X)
        Y = np.asarray(y_batch, dtype=np.int64)
        W = np.asarray(w_batch, dtype=np.float64)
        if Y.shape != W.shape or Y.ndim != 2 or Y.shape[1] != len(X):
            raise ValueError(
                f"y_batch/w_batch must both be (B, {len(X)}); got "
                f"{Y.shape} and {W.shape}"
            )
        presorted = self._shared_presort(X) if self.presort else None
        models = []
        for b in range(len(Y)):
            model = self.clone()
            model.fit(X, Y[b], sample_weight=W[b], presorted=presorted)
            models.append(model)
        return models

    @staticmethod
    def predict_batch(models, X):
        """Hard labels of every fitted tree on a shared feature matrix.

        Pads all trees' flat node arrays to a common width and descends
        every (candidate, row) pair simultaneously — one vectorized walk
        of depth ``max(depth_b)`` instead of ``B`` Python-level
        traversals.  Returns an ``(B, n)`` int64 matrix whose rows equal
        ``models[b].predict(X)`` exactly (identical values and
        thresholding).
        """
        X, _ = check_Xy(X)
        B, n = len(models), len(X)
        width = max(m.n_nodes_ for m in models)
        feature = np.full((B, width), _LEAF, dtype=np.int64)
        threshold = np.zeros((B, width), dtype=np.float64)
        left = np.zeros((B, width), dtype=np.int64)
        right = np.zeros((B, width), dtype=np.int64)
        value = np.zeros((B, width), dtype=np.float64)
        for b, model in enumerate(models):
            model._check_is_fitted()
            k = model.n_nodes_
            feature[b, :k] = model.feature_
            threshold[b, :k] = model.threshold_
            left[b, :k] = model.left_
            right[b, :k] = model.right_
            value[b, :k] = model.value_
        nodes = np.zeros((B, n), dtype=np.int64)
        brow = np.arange(B)[:, None]
        active = feature[brow, nodes] != _LEAF
        while np.any(active):
            b_idx, i_idx = np.nonzero(active)
            cur = nodes[b_idx, i_idx]
            go_left = (
                X[i_idx, feature[b_idx, cur]] <= threshold[b_idx, cur]
            )
            nxt = np.where(go_left, left[b_idx, cur], right[b_idx, cur])
            nodes[b_idx, i_idx] = nxt
            active[b_idx, i_idx] = feature[b_idx, nxt] != _LEAF
        p1 = value[brow, nodes]
        return (p1 >= 0.5).astype(np.int64)

    def _apply(self, X):
        """Return the leaf index for every row (iterative descent)."""
        nodes = np.zeros(len(X), dtype=np.int64)
        active = self.feature_[nodes] != _LEAF
        while np.any(active):
            idx = np.nonzero(active)[0]
            cur = nodes[idx]
            go_left = X[idx, self.feature_[cur]] <= self.threshold_[cur]
            nodes[idx] = np.where(go_left, self.left_[cur], self.right_[cur])
            active = self.feature_[nodes] != _LEAF
        return nodes

    def predict_proba(self, X):
        self._check_is_fitted()
        X, _ = check_Xy(X)
        p1 = self.value_[self._apply(X)]
        return np.column_stack([1.0 - p1, p1])

    @property
    def depth_(self):
        """Actual depth of the fitted tree."""
        self._check_is_fitted()
        depth = np.zeros(self.n_nodes_, dtype=np.int64)
        for node in range(self.n_nodes_):
            if self.feature_[node] != _LEAF:
                depth[self.left_[node]] = depth[node] + 1
                depth[self.right_[node]] = depth[node] + 1
        return int(depth.max()) if self.n_nodes_ else 0

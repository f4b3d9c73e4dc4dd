"""Weighted CART decision tree for binary classification.

The paper uses random forests and XGBoost as examples of ML algorithms with
no explicit loss function; both are built on this tree.  Splits minimize
weighted Gini impurity; ``sample_weight`` flows through naturally, which is
what makes the tree usable inside OmniFair unchanged.

Every tree in :mod:`repro.ml` grows from one builder, :class:`_Builder`.
It argsorts each feature **once** for the whole dataset
(:class:`PresortedDataset`); each split then only *partitions* the
per-feature index lists stably (:func:`partition_sorted`) and scans
every threshold with cumulative sums, with no per-node sort.  The
builder owns the node arrays, the recursion, the per-node feature
subsampling and the argmax tie-break; the model supplies its node
statistic and split gain (weighted Gini here, the XGBoost G/H gain in
:mod:`repro.ml.boosting`).  A stable partition of a full stable sort
equals a stable sort of the node's rows, so the trees are bit for bit
those of a builder that re-sorts every node — ``tests/tree_oracle.py``
keeps that builder as the oracle the test suite checks against.

Every tree is walked by one descent, :func:`_descend`, which steps all
(tree, row) pairs down together.  For λ-search batches,
:meth:`DecisionTree.fit_weighted_batch` reuses one
:class:`PresortedDataset` across **all** candidates' trees, and
:meth:`DecisionTree.predict_batch` descends every candidate tree over the
shared feature matrix in one walk.
"""

from __future__ import annotations

import numpy as np

from .base import BaseClassifier, check_n_features, check_Xy, check_sample_weight

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
        builder's equivalence with per-node sorting rests on).
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


class _Builder:
    """Grows one tree's flat node arrays from presorted index lists.

    Nodes are addressed by ``(rows, sorted_idx)``: the node's rows in
    original order, and the same rows ordered by each feature.  The
    ``model`` supplies ``max_depth``, ``max_features`` and two hooks,
    both handed the per-row arrays ``stats``:

    * ``model._node_stat(rows, *stats)`` returns the node's value and
      the totals its split scan needs, or ``None`` totals for a node
      that must stay a leaf;
    * ``model._split_gain(sorted_sub, totals, valid, *stats)`` returns
      the gain of every ``(position, candidate)`` split, narrowing the
      distinct-value mask ``valid`` in place, or ``None`` when no
      position is valid.
    """

    def __init__(self, model, X, rng, stats):
        self.model = model
        self.X = X
        self.rng = rng
        self.stats = stats
        self._member = np.zeros(len(X), dtype=bool)  # reusable scratch
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []

    def grow(self, order):
        """Grow from the root off ``order``, the presort of ``X``; return
        ``(feature, threshold, left, right, value)`` as int64/float64
        node arrays."""
        self._grow(np.arange(len(self.X), dtype=np.int64), order, 0)
        return (
            np.asarray(self.feature, dtype=np.int64),
            np.asarray(self.threshold, dtype=np.float64),
            np.asarray(self.left, dtype=np.int64),
            np.asarray(self.right, dtype=np.int64),
            np.asarray(self.value, dtype=np.float64),
        )

    def _grow(self, rows, sorted_idx, depth):
        node = len(self.value)
        value, totals = self.model._node_stat(rows, *self.stats)
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(value)
        if totals is None or depth >= self.model.max_depth:
            return node
        split = self._split(sorted_idx, totals)
        if split is None:
            return node
        feat, thresh = split
        go_left = self.X[rows, feat] <= thresh
        left_rows = rows[go_left]
        self._member[left_rows] = True
        left_sorted, right_sorted = partition_sorted(
            sorted_idx, self._member, len(left_rows)
        )
        self._member[left_rows] = False
        self.feature[node] = feat
        self.threshold[node] = thresh
        self.left[node] = self._grow(left_rows, left_sorted, depth + 1)
        self.right[node] = self._grow(rows[~go_left], right_sorted, depth + 1)
        return node

    def _split(self, sorted_idx, totals):
        """Best ``(feature, threshold)`` over the sampled features, or None.

        One ``rng.choice`` per scan when ``max_features`` is below the
        width.  Gains of every (position, feature) pair come from one
        vectorized pass; invalid positions are masked to ``-inf``, which
        cannot beat the ``1e-12`` floor.  Ties go to the first position,
        then to the first feature in candidate order.
        """
        n_features = sorted_idx.shape[1]
        max_features = self.model.max_features
        if max_features is None or max_features >= n_features:
            candidates = np.arange(n_features)
            sorted_sub = sorted_idx                       # (m, c) as-is
        else:
            candidates = self.rng.choice(
                n_features, size=max_features, replace=False
            )
            sorted_sub = sorted_idx[:, candidates]
        CS = self.X[sorted_sub, candidates[None, :]]
        valid = CS[:-1] < CS[1:]                          # distinct values
        gain = self.model._split_gain(sorted_sub, totals, valid, *self.stats)
        if gain is None:
            return None
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


def _descend(trees, X):
    """Leaf value of every tree on every row of ``X``, as ``(B, n)``.

    ``trees`` holds ``(feature, threshold, left, right, value)`` node
    arrays.  They are laid end to end in one node space, and every
    (tree, row) pair steps down together, comparing
    ``X[row, feature] <= threshold`` at each inner node, until all reach
    a leaf.
    """
    columns = list(zip(*trees))                # each node array, per tree
    sizes = [len(feature) for feature in columns[0]]
    roots = np.cumsum([0] + sizes[:-1], dtype=np.int64)
    feature, threshold, left, right, value = map(np.concatenate, columns)
    shift = np.repeat(roots, sizes)
    left = left + shift
    right = right + shift
    n = len(X)
    node = np.repeat(roots, n)                 # flat (tree, row) pairs
    live = np.flatnonzero(feature[node] != _LEAF)
    rows = live % n
    while live.size:
        cur = node[live]
        go_left = X[rows, feature[cur]] <= threshold[cur]
        nxt = np.where(go_left, left[cur], right[cur])
        node[live] = nxt
        inner = feature[nxt] != _LEAF
        live = live[inner]
        rows = rows[inner]
    return value[node].reshape(len(sizes), n)


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
    """

    n_features_in_ = None   # models pickled before 6.0.0 skip the check

    def __init__(
        self,
        max_depth=8,
        min_samples_split=2,
        min_samples_leaf=1,
        max_features=None,
        random_state=0,
    ):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self._fitted = False

    def fit(self, X, y, sample_weight=None, presorted=None):
        """Fit the tree; optionally reuse a shared :class:`PresortedDataset`.

        ``presorted`` is honored only when it was built from the *same*
        array object as ``X`` and no zero-weight rows need dropping
        (dropping rows copies ``X``, so the identity check fails);
        otherwise the presort is computed here.
        """
        X, y = check_Xy(X, y)
        w = check_sample_weight(sample_weight, len(y))
        # drop zero-weight rows: they must not influence splits
        keep = w > 0
        if not np.all(keep):
            X, y, w = X[keep], y[keep], w[keep]
        if len(y) == 0:
            raise ValueError("all sample weights are zero")
        if presorted is not None and presorted.X is X:
            order = presorted.order
        else:
            order = np.argsort(X, axis=0, kind="mergesort")
        rng = np.random.default_rng(self.random_state)
        (self.feature_, self.threshold_, self.left_, self.right_,
         self.value_) = _Builder(self, X, rng, (y, w)).grow(order)
        self.n_nodes_ = len(self.feature_)
        self.n_features_in_ = X.shape[1]
        self._fitted = True
        return self

    def _node_stat(self, rows, y, w):
        """Weighted ``P(y=1)`` of a node; totals ``(Σw, Σwy)`` unless pure
        or below ``min_samples_split``."""
        w = w[rows]
        w_sum = w.sum()
        wy = np.dot(w, y[rows])
        p1 = float(wy / w_sum) if w_sum > 0 else 0.0
        if len(rows) < self.min_samples_split or p1 <= 0.0 or p1 >= 1.0:
            return p1, None
        return p1, (w_sum, wy)

    def _split_gain(self, sorted_sub, totals, valid, y, w):
        """Weighted Gini decrease of every split, honoring
        ``min_samples_leaf``.

        Zero-weight rows were dropped before the build, so every child
        weight is positive and the guarded divisions never trip.
        """
        w_total, wy_total = totals
        m = len(sorted_sub)
        k = self.min_samples_leaf
        if k > 1:
            left_counts = np.arange(1, m)
            valid &= ((left_counts >= k) & (m - left_counts >= k))[:, None]
        if not valid.any():
            return None
        WS = w[sorted_sub]
        wl = np.cumsum(WS, axis=0)[:-1]
        wyl = np.cumsum(WS * y[sorted_sub], axis=0)[:-1]
        wr = w_total - wl
        wyr = wy_total - wyl
        pl = np.where(wl > 0, wyl / np.maximum(wl, 1e-300), 0.0)
        pr = np.where(wr > 0, wyr / np.maximum(wr, 1e-300), 0.0)
        child = (
            wl * (2.0 * pl * (1.0 - pl)) + wr * (2.0 * pr * (1.0 - pr))
        ) / w_total
        p = wy_total / w_total
        return 2.0 * p * (1.0 - p) - child

    # -- batch protocol (used by the compiled λ-search engine) ---------------

    def fit_weighted_batch(self, X, y_batch, w_batch):
        """Fit one tree per ``(y, w)`` row pair off a shared presort.

        Parameters
        ----------
        X : ndarray (n, d)
            Shared training features — argsorted once per call, not
            once per candidate.  The presort lives only for the call,
            so this estimator keeps no reference to ``X``.
        y_batch : ndarray (B, n)
            Per-candidate labels (negative-weight resolution may flip
            labels differently per candidate).
        w_batch : ndarray (B, n)
            Per-candidate non-negative sample weights.

        Returns
        -------
        list of fitted :class:`DecisionTree`, one per candidate — each
        **bit-for-bit identical** to ``clone().fit(X, y_b, w_b)``.
        Candidates containing zero weights presort their own rows
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
        presorted = PresortedDataset(X)
        models = []
        for b in range(len(Y)):
            model = self.clone()
            model.fit(X, Y[b], sample_weight=W[b], presorted=presorted)
            models.append(model)
        return models

    @staticmethod
    def predict_batch(models, X):
        """Hard labels of every fitted tree on a shared feature matrix.

        One :func:`_descend` over all ``B`` trees.  Returns an ``(B, n)``
        int64 matrix whose rows equal ``models[b].predict(X)`` exactly
        (identical values and thresholding).
        """
        X, _ = check_Xy(X)
        p1 = _descend([model._nodes(X) for model in models], X)
        return (p1 >= 0.5).astype(np.int64)

    def _nodes(self, X):
        """The node arrays, once the tree is fitted on ``X``'s width."""
        self._check_is_fitted()
        check_n_features(self, X)
        return (self.feature_, self.threshold_, self.left_, self.right_,
                self.value_)

    def predict_proba(self, X):
        X, _ = check_Xy(X)
        p1 = _descend([self._nodes(X)], X)[0]
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

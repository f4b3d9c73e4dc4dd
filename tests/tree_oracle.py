"""The tree oracle: CART and boosting trees grown by per-node sorting.

This is the reference :mod:`repro.ml.tree` and :mod:`repro.ml.boosting`
are checked against bit for bit (``tests/test_batch_protocol.py``).
Each builder recurses on boolean-masked copies of the node's rows and
mergesorts every candidate feature at every node, one feature at a
time, ``O(d · m log m)`` per node.  The library argsorts once per
dataset and partitions the sorted index lists stably at each split; a
stable partition of a full stable sort equals a stable sort of the
subset, so both scan the same value/weight sequences and agree on every
gain, tie-break and threshold.  Deliberately naive — the tests and the
``tree_grid`` serial arm of ``benchmarks/perf/bench_fits.py`` import it;
the library never does.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_Xy, check_sample_weight
from repro.ml.logistic import sigmoid
from repro.ml.tree import DecisionTree

__all__ = ["PerNodeSortTree", "boosted_rounds", "tree_arrays"]

_LEAF = -1


class _Nodes:
    """Flat node lists, grown in preorder."""

    def __init__(self):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []

    def _new_node(self):
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _link(self, node, feat, thresh, left, right):
        self.feature[node] = feat
        self.threshold[node] = thresh
        self.left[node] = left
        self.right[node] = right

    def _candidates(self, n_features):
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        return self.rng.choice(n_features, size=self.max_features,
                               replace=False)

    def arrays(self):
        """``(feature, threshold, left, right, value)`` as the library's
        int64/float64 node arrays."""
        return (
            np.asarray(self.feature, dtype=np.int64),
            np.asarray(self.threshold, dtype=np.float64),
            np.asarray(self.left, dtype=np.int64),
            np.asarray(self.right, dtype=np.int64),
            np.asarray(self.value, dtype=np.float64),
        )

    def predict(self, X):
        """Leaf value per row, one row set per level."""
        feature, threshold, left, right, value = self.arrays()
        nodes = np.zeros(len(X), dtype=np.int64)
        active = feature[nodes] != _LEAF
        while np.any(active):
            idx = np.nonzero(active)[0]
            cur = nodes[idx]
            go_left = X[idx, feature[cur]] <= threshold[cur]
            nodes[idx] = np.where(go_left, left[cur], right[cur])
            active = feature[nodes] != _LEAF
        return value[nodes]


class _GiniTree(_Nodes):
    """Weighted-Gini CART tree; a node's value is its weighted P(y=1)."""

    def __init__(self, max_depth, min_samples_split, min_samples_leaf,
                 max_features, rng):
        super().__init__()
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = rng

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
        self._link(node, feat, thresh, left, right)
        return node

    def _best_split(self, X, y, w):
        candidates = self._candidates(X.shape[1])
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


class _BoostTree(_Nodes):
    """Regression tree on (gradient, hessian) pairs, exact greedy splits."""

    def __init__(self, max_depth, min_child_weight, reg_lambda, gamma,
                 max_features, rng):
        super().__init__()
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.max_features = max_features
        self.rng = rng

    def build(self, X, g, h, depth=0):
        node = self._new_node()
        G, H = g.sum(), h.sum()
        self.value[node] = float(-G / (H + self.reg_lambda))
        if depth >= self.max_depth or len(g) < 2:
            return node
        split = self._best_split(X, g, h, G, H)
        if split is None:
            return node
        feat, thresh = split
        mask = X[:, feat] <= thresh
        left = self.build(X[mask], g[mask], h[mask], depth + 1)
        right = self.build(X[~mask], g[~mask], h[~mask], depth + 1)
        self._link(node, feat, thresh, left, right)
        return node

    def _best_split(self, X, g, h, G, H):
        candidates = self._candidates(X.shape[1])
        lam = self.reg_lambda
        parent_score = G * G / (H + lam)
        best, best_gain = None, 1e-12
        for feat in candidates:
            col = X[:, feat]
            order = np.argsort(col, kind="mergesort")
            cs = col[order]
            GL = np.cumsum(g[order])[:-1]
            HL = np.cumsum(h[order])[:-1]
            valid = cs[:-1] < cs[1:]
            HR = H - HL
            valid &= (HL >= self.min_child_weight) & (HR >= self.min_child_weight)
            if not np.any(valid):
                continue
            GR = G - GL
            gain = 0.5 * (
                GL**2 / (HL + lam) + GR**2 / (HR + lam) - parent_score
            ) - self.gamma
            gain[~valid] = -np.inf
            idx = int(np.argmax(gain))
            if gain[idx] > best_gain:
                best_gain = float(gain[idx])
                best = (int(feat), float(0.5 * (cs[idx] + cs[idx + 1])))
        return best


def tree_arrays(X, y, sample_weight=None, max_depth=8, min_samples_split=2,
                min_samples_leaf=1, max_features=None, random_state=0):
    """The node arrays ``DecisionTree(**params).fit(X, y, sample_weight)``
    must grow: ``(feature, threshold, left, right, value)``."""
    X, y = check_Xy(X, y)
    w = check_sample_weight(sample_weight, len(y))
    keep = w > 0       # zero-weight rows must not influence splits
    X, y, w = X[keep], y[keep], w[keep]
    if len(y) == 0:
        raise ValueError("all sample weights are zero")
    tree = _GiniTree(max_depth, min_samples_split, min_samples_leaf,
                     max_features, np.random.default_rng(random_state))
    tree.build(X, y, w)
    return tree.arrays()


def boosted_rounds(X, y, sample_weight=None, n_estimators=30,
                   learning_rate=0.3, max_depth=4, reg_lambda=1.0, gamma=0.0,
                   min_child_weight=1e-3, max_features=None, random_state=0):
    """What ``GradientBoostedTrees(**params).fit(X, y, sample_weight)``
    must produce: ``(base_score, rounds, raw)``, with each round's node
    arrays and the training rows' final raw scores."""
    X, y = check_Xy(X, y)
    w = check_sample_weight(sample_weight, len(y))
    w = w / w.mean()
    rng = np.random.default_rng(random_state)
    p0 = float(np.clip(np.dot(w, y) / w.sum(), 1e-6, 1 - 1e-6))
    base_score = float(np.log(p0 / (1.0 - p0)))
    raw = np.full(len(y), base_score)
    yf = y.astype(np.float64)
    rounds = []
    for _ in range(n_estimators):
        p = sigmoid(raw)
        g = w * (p - yf)
        h = np.maximum(w * p * (1.0 - p), 1e-16)
        tree = _BoostTree(max_depth, min_child_weight, reg_lambda, gamma,
                          max_features, rng)
        tree.build(X, g, h)
        raw = raw + learning_rate * tree.predict(X)
        rounds.append(tree.arrays())
    return base_score, rounds, raw


class PerNodeSortTree(DecisionTree):
    """A :class:`DecisionTree` grown by the oracle, batch protocol hidden.

    The seed-state tree fit path: one per-node-sort ``fit`` and one
    ``predict`` per candidate.  Predicts through the library's descent.
    """

    fit_weighted_batch = None
    predict_batch = None

    def fit(self, X, y, sample_weight=None):
        (self.feature_, self.threshold_, self.left_, self.right_,
         self.value_) = tree_arrays(X, y, sample_weight, **self.get_params())
        self.n_nodes_ = len(self.feature_)
        self.n_features_in_ = check_Xy(X)[0].shape[1]
        self._fitted = True
        return self

"""Random forest built on :class:`repro.ml.tree.DecisionTree`.

Stands in for scikit-learn's ``RandomForestClassifier`` in the paper's
"RF" column.  Bagging draws weighted bootstrap samples: resampling
probabilities are proportional to ``sample_weight``, which is the standard
way a forest consumes example weights and keeps OmniFair model-agnostic.
"""

from __future__ import annotations

import numpy as np

from .base import BaseClassifier, check_n_features, check_Xy, check_sample_weight
from .tree import DecisionTree, PresortedDataset

__all__ = ["RandomForest"]


class RandomForest(BaseClassifier):
    """Bootstrap-aggregated decision trees.

    Parameters
    ----------
    n_estimators : int
        Number of trees.
    max_depth : int
        Depth limit per tree.
    max_features : int, "sqrt", or None
        Features considered per split.
    min_samples_leaf : int
        Leaf size floor per tree.
    bootstrap : bool
        Draw a weighted bootstrap per tree (True) or reuse the full
        weighted dataset (False).
    random_state : int
        Master seed; per-tree seeds are derived from it.
    """

    n_features_in_ = None   # models pickled before 6.0.0 skip the check

    def __init__(
        self,
        n_estimators=25,
        max_depth=8,
        max_features="sqrt",
        min_samples_leaf=1,
        bootstrap=True,
        random_state=0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.max_features = max_features
        self.min_samples_leaf = min_samples_leaf
        self.bootstrap = bootstrap
        self.random_state = random_state
        self._fitted = False

    def _resolve_max_features(self, n_features):
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        return self.max_features

    def fit(self, X, y, sample_weight=None):
        X, y = check_Xy(X, y)
        w = check_sample_weight(sample_weight, len(y))
        rng = np.random.default_rng(self.random_state)
        n = len(y)
        probs = w / w.sum()
        max_features = self._resolve_max_features(X.shape[1])
        # without bootstrapping every tree trains on the same weighted
        # matrix, so the per-feature presort is computed once and shared
        # across all trees (only the split-time feature subsampling
        # differs per tree); zero-weight rows are dropped here so the
        # shared presort matches what each tree would build on (a tree
        # ignores a presort whose rows it must filter); bootstrap draws
        # need per-tree matrices
        shared = None
        X_fit, y_fit, w_fit = X, y, w
        if not self.bootstrap:
            keep = w > 0
            if not np.all(keep):
                X_fit, y_fit, w_fit = X[keep], y[keep], w[keep]
            shared = PresortedDataset(X_fit)
            X_fit = shared.X
        self.trees_ = []
        for t in range(self.n_estimators):
            seed = int(rng.integers(0, 2**31 - 1))
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                random_state=seed,
            )
            if self.bootstrap:
                idx = rng.choice(n, size=n, replace=True, p=probs)
                tree.fit(X[idx], y[idx])
            else:
                tree.fit(X_fit, y_fit, sample_weight=w_fit,
                         presorted=shared)
            self.trees_.append(tree)
        self.n_features_in_ = X.shape[1]
        self._fitted = True
        return self

    def predict_proba(self, X):
        self._check_is_fitted()
        X, _ = check_Xy(X)
        check_n_features(self, X)
        p1 = np.mean([t.predict_proba(X)[:, 1] for t in self.trees_], axis=0)
        return np.column_stack([1.0 - p1, p1])

"""Gradient-boosted trees with the XGBoost second-order objective.

Stands in for XGBoost in the paper's "XGB" column.  Each round fits a
regression tree to the first/second-order gradients of the weighted
logistic loss; leaf values and split gains use the regularized XGBoost
formulas::

    leaf   = -G / (H + reg_lambda)
    gain   = 0.5 * (GL^2/(HL+λ) + GR^2/(HR+λ) - G^2/(H+λ)) - gamma

``sample_weight`` multiplies the per-example gradients and hessians, which
is exactly how the real library consumes weights — so OmniFair's example
weighting works unchanged.

The rounds grow from the one tree builder of :mod:`repro.ml.tree`, off
one presort per ``fit`` (only ``g``/``h`` change round to round), and
are walked by its one descent.  A fitted model keeps each round as its
five node arrays, never the round's training arrays.
"""

from __future__ import annotations

import numpy as np

from .base import (
    BaseClassifier,
    check_n_features,
    check_sample_weight,
    check_Xy,
    sigmoid,
    sigmoid_of_log_odds,
)
from .tree import _Builder, _descend

__all__ = ["GradientBoostedTrees"]

_NODE_LISTS = ("feature", "threshold", "left", "right", "value")


class _BoostTreeBuilder:
    """A boosting round as a 5.x pickle names it.

    5.x kept each round's builder, training arrays included; loading
    keeps only its five node lists, and the round then unpacks like the
    node-array tuple a round is now.
    """

    def __setstate__(self, state):
        self.__dict__.update((key, state[key]) for key in _NODE_LISTS)

    def __iter__(self):
        return (getattr(self, key) for key in _NODE_LISTS)


class _PresortBoostTreeBuilder(_BoostTreeBuilder):
    """The presorted 5.x round; loads like :class:`_BoostTreeBuilder`."""


class GradientBoostedTrees(BaseClassifier):
    """XGBoost-style boosted trees for binary classification.

    Parameters
    ----------
    n_estimators : int
        Boosting rounds.
    learning_rate : float
        Shrinkage applied to each tree's contribution.
    max_depth : int
        Depth limit per tree.
    reg_lambda : float
        L2 regularization on leaf values.
    gamma : float
        Minimum split gain.
    min_child_weight : float
        Minimum hessian mass per child.
    max_features : int or None
        Feature subsampling per split.
    random_state : int
        Seed for feature subsampling.
    """

    n_features_in_ = None   # models pickled before 6.0.0 skip the check

    def __init__(
        self,
        n_estimators=30,
        learning_rate=0.3,
        max_depth=4,
        reg_lambda=1.0,
        gamma=0.0,
        min_child_weight=1e-3,
        max_features=None,
        random_state=0,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        self.max_features = max_features
        self.random_state = random_state
        self._fitted = False

    def fit(self, X, y, sample_weight=None):
        X, y = check_Xy(X, y)
        w = check_sample_weight(sample_weight, len(y))
        w = w / w.mean()
        rng = np.random.default_rng(self.random_state)
        # base score: weighted log-odds of the positive class
        p0 = float(np.clip(np.dot(w, y) / w.sum(), 1e-6, 1 - 1e-6))
        self.base_score_ = float(np.log(p0 / (1.0 - p0)))
        raw = np.full(len(y), self.base_score_)
        self.trees_ = []
        yf = y.astype(np.float64)
        # boosting refits on the same X every round: one argsort serves
        # all rounds (only g/h change round to round)
        order = np.argsort(X, axis=0, kind="mergesort")
        for _ in range(self.n_estimators):
            p = sigmoid(raw)
            g = w * (p - yf)
            h = np.maximum(w * p * (1.0 - p), 1e-16)
            nodes = _Builder(self, X, rng, (g, h)).grow(order)
            raw = raw + self.learning_rate * _descend([nodes], X)[0]
            self.trees_.append(nodes)
        self.n_features_in_ = X.shape[1]
        self._fitted = True
        return self

    def _node_stat(self, rows, g, h):
        """Leaf value ``-G/(H+λ)`` of a node; totals ``(G, H)`` unless it
        holds fewer than two rows."""
        G, H = g[rows].sum(), h[rows].sum()
        value = float(-G / (H + self.reg_lambda))
        return value, ((G, H) if len(rows) >= 2 else None)

    def _split_gain(self, sorted_sub, totals, valid, g, h):
        """XGBoost gain of every split, honoring ``min_child_weight``."""
        G, H = totals
        lam = self.reg_lambda
        GL = np.cumsum(g[sorted_sub], axis=0)[:-1]
        HL = np.cumsum(h[sorted_sub], axis=0)[:-1]
        HR = H - HL
        valid &= (HL >= self.min_child_weight) & (HR >= self.min_child_weight)
        if not valid.any():
            return None
        GR = G - GL
        return 0.5 * (
            GL**2 / (HL + lam) + GR**2 / (HR + lam) - G * G / (H + lam)
        ) - self.gamma

    def decision_function(self, X):
        self._check_is_fitted()
        X, _ = check_Xy(X)
        check_n_features(self, X)
        raw = np.full(len(X), self.base_score_)
        for tree in self.trees_:
            raw = raw + self.learning_rate * _descend([tree], X)[0]
        return raw

    def _log_odds(self, X):
        """``decision_function`` (a method, so an override holds)."""
        return self.decision_function(X)

    @sigmoid_of_log_odds
    def predict_proba(self, X):
        p1 = sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])

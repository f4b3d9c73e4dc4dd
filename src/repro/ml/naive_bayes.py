"""Weighted Gaussian Naive Bayes.

A third *training paradigm* (generative, no loss function, no trees) for
exercising OmniFair's model-agnostic claim: per-class feature means and
variances are weighted moments, so ``sample_weight`` integrates exactly.

Because the fit is closed-form in the weights, this estimator also
implements the optional **batch protocol** the compiled λ-search engine
probes for (:meth:`GaussianNaiveBayes.fit_weighted_batch` /
:meth:`GaussianNaiveBayes.predict_batch`): a whole batch of
``(labels, weights)`` candidates is fitted through a handful of matrix
products instead of one Python-level fit per candidate, and the fitted
batch predicts on a shared matrix through two more.  Results match the
scalar path to floating-point round-off (the summation order differs).
"""

from __future__ import annotations

import numpy as np

from .base import (
    BaseClassifier,
    check_binary_labels,
    check_sample_weight,
    check_Xy,
    sigmoid_of_log_odds,
)

__all__ = ["GaussianNaiveBayes"]

#: Bytes of scratch one row tile may fill: half of a 2 MB L2 cache, so
#: a tile's scratch and its input rows stay cached across the passes
#: over them instead of streaming through memory once per pass
_TILE_BYTES = 1 << 20


def _tile_rows(row_bytes):
    """Rows per tile when each row needs ``row_bytes`` of scratch."""
    return max(1, _TILE_BYTES // max(row_bytes, 1))


def _tiles(n, rows):
    """``(lo, hi)`` bounds of row tiles of at most ``rows + 1`` rows.

    A lone trailing row joins the tile before it: numpy hands a one-row
    matrix product to gemv and reduces a one-row sum along other
    strides, and both round differently from the same row inside a
    larger tile, so a one-row tile only occurs when ``n`` is 1.
    """
    lo = 0
    while lo < n:
        hi = n if n - lo <= rows + 1 else lo + rows
        yield lo, hi
        lo = hi


class GaussianNaiveBayes(BaseClassifier):
    """Gaussian NB with weighted class priors and feature moments.

    Parameters
    ----------
    var_smoothing : float
        Portion of the largest feature variance added to all variances for
        numerical stability (scikit-learn's convention).
    """

    def __init__(self, var_smoothing=1e-9):
        self.var_smoothing = var_smoothing
        self._fitted = False

    def fit(self, X, y, sample_weight=None):
        X, y = check_Xy(X, y)
        w = check_sample_weight(sample_weight, len(y))
        if w.sum() <= 0:
            raise ValueError("sample weights sum to zero")
        self.classes_ = np.array([0, 1])
        n_features = X.shape[1]
        self.theta_ = np.zeros((2, n_features))
        self.var_ = np.zeros((2, n_features))
        self.class_prior_ = np.zeros(2)
        for k in (0, 1):
            mask = y == k
            wk = w[mask]
            if wk.sum() <= 0:
                # absent class: keep a vanishing prior, neutral moments
                self.class_prior_[k] = 1e-12
                self.theta_[k] = 0.0
                self.var_[k] = 1.0
                continue
            self.class_prior_[k] = wk.sum() / w.sum()
            mean = np.average(X[mask], axis=0, weights=wk)
            var = np.average((X[mask] - mean) ** 2, axis=0, weights=wk)
            self.theta_[k] = mean
            self.var_[k] = var
        eps = self.var_smoothing * max(float(self.var_.max()), 1e-12)
        self.var_ = self.var_ + eps
        self._fitted = True
        return self

    def _joint_log_likelihood(self, X):
        X, _ = check_Xy(X)
        jll = np.empty((len(X), 2))
        consts = []
        for k in (0, 1):
            log_prior = np.log(max(self.class_prior_[k], 1e-300))
            log_det = -0.5 * np.sum(np.log(2.0 * np.pi * self.var_[k]))
            consts.append(log_prior + log_det)
        rows = _tile_rows(X.shape[1] * 8)
        # ``(X - θ)² / v`` one row tile at a time, in one cache-sized
        # scratch of X's layout, so the row sums reduce in the order
        # they would over the plain temporaries
        buf = np.empty_like(X[:rows + 1])
        for lo, hi in _tiles(len(X), rows):
            tile = buf[:hi - lo]
            for k in (0, 1):
                np.subtract(X[lo:hi], self.theta_[k], out=tile)
                np.square(tile, out=tile)
                np.divide(tile, self.var_[k], out=tile)
                jll[lo:hi, k] = consts[k] + -0.5 * np.sum(tile, axis=1)
        return jll

    def _log_odds(self, X):
        """``t = jll[:, 1] - jll[:, 0]``, whose ``sigmoid`` is
        ``predict_proba[:, 1]`` bit for bit.

        Less the row maximum, a ``jll`` row is ``[0, t]`` or ``[-t, 0]``,
        and ``predict_proba``'s ``exp``, sum and divide of it are then
        ``sigmoid``'s own operations on ``t``.
        """
        self._check_is_fitted()
        jll = self._joint_log_likelihood(X)
        return jll[:, 1] - jll[:, 0]

    @sigmoid_of_log_odds
    def predict_proba(self, X):
        self._check_is_fitted()
        jll = self._joint_log_likelihood(X)
        jll -= jll.max(axis=1, keepdims=True)
        probs = np.exp(jll)
        return probs / probs.sum(axis=1, keepdims=True)

    # -- batch protocol (used by the compiled λ-search engine) ---------------

    def fit_weighted_batch(self, X, y_batch, w_batch):
        """Fit one model per ``(y, w)`` row pair via stacked moments.

        Parameters
        ----------
        X : ndarray (n, d)
            Shared training features.
        y_batch : ndarray (B, n)
            Per-candidate labels (negative-weight resolution may flip
            labels differently per candidate).
        w_batch : ndarray (B, n)
            Per-candidate finite, non-negative sample weights (anything
            else raises ``ValueError``, as serial :meth:`fit` does).

        Returns
        -------
        list of fitted :class:`GaussianNaiveBayes`, one per candidate —
        numerically equivalent to ``clone().fit(X, y_b, w_b)`` up to
        summation order.

        Every per-class weighted mean/variance is a weight-matrix /
        feature-matrix product, so the whole batch costs a few BLAS
        calls instead of ``B`` Python-level fits.
        """
        X, _ = check_Xy(X)
        Y = check_binary_labels(y_batch)
        W = np.asarray(w_batch, dtype=np.float64)
        if Y.shape != W.shape or Y.ndim != 2 or Y.shape[1] != len(X):
            raise ValueError(
                f"y_batch/w_batch must both be (B, {len(X)}); got "
                f"{Y.shape} and {W.shape}"
            )
        if not np.all(np.isfinite(W)) or np.any(W < 0):
            raise ValueError("w_batch must be finite and non-negative")
        B, _n = Y.shape
        # moments are taken around per-feature centers: the raw
        # E[x²]−E[x]² form cancels catastrophically for large-offset
        # columns, while E[(x−c)²]−(E[x]−c)² with c ≈ the column mean is
        # stable (and exact in the same sense as the scalar two-pass fit)
        center = X.mean(axis=0)
        Xc = X - center
        Xc2 = Xc * Xc
        total = W.sum(axis=1)
        if np.any(total <= 0):
            raise ValueError("sample weights sum to zero")
        theta = np.zeros((B, 2, X.shape[1]))
        var = np.zeros((B, 2, X.shape[1]))
        prior = np.zeros((B, 2))
        # both classes' weights go through one (B, n) buffer: for finite,
        # non-negative W, ``W · [Y == k]`` differs from
        # ``np.where(Y == k, W, 0.0)`` at most in the sign of a zero,
        # which no moment below can see
        Wk = np.empty_like(W)
        for k in (0, 1):
            np.multiply(W, Y == k, out=Wk)
            sw = Wk.sum(axis=1)                      # (B,)
            present = sw > 0
            m1 = Wk @ Xc                             # (B, d)
            m2 = Wk @ Xc2
            safe = np.where(present, sw, 1.0)[:, None]
            mean_c = m1 / safe
            theta[:, k] = np.where(present[:, None], center + mean_c, 0.0)
            second = np.maximum(m2 / safe - mean_c * mean_c, 0.0)
            var[:, k] = np.where(present[:, None], second, 1.0)
            prior[:, k] = np.where(present, sw / total, 1e-12)
        eps = self.var_smoothing * np.maximum(
            var.reshape(B, -1).max(axis=1), 1e-12
        )
        var = var + eps[:, None, None]
        models = []
        for b in range(B):
            model = type(self)(var_smoothing=self.var_smoothing)
            model.classes_ = np.array([0, 1])
            model.theta_ = theta[b]
            model.var_ = var[b]
            model.class_prior_ = prior[b]
            model._fitted = True
            models.append(model)
        return models

    @staticmethod
    def predict_batch(models, X):
        """Hard labels of every fitted model on a shared feature matrix.

        Expands the per-class Gaussian quadratic form so the joint
        log-likelihoods of all ``B`` models reduce to two
        ``(rows, d) @ (d, 2B)`` products per row tile:
        ``jll = X²·(-1/2v) + X·(θ/v) + const``.  The tiles reuse two
        cache-sized ``(rows, 2B)`` score buffers and write their
        labels straight into the result.

        Returns an ``(B, n)`` int64 prediction matrix; rows equal
        ``models[b].predict(X)`` up to floating-point round-off.
        """
        X, _ = check_Xy(X)
        B = len(models)
        theta = np.stack([m.theta_ for m in models])        # (B, 2, d)
        var = np.stack([m.var_ for m in models])
        prior = np.stack([m.class_prior_ for m in models])  # (B, 2)
        n, d = X.shape
        # expand (x−θ)²/v around the whole call's center so large
        # feature offsets cancel before squaring (same stabilization as
        # the batch fit)
        center = X.mean(axis=0)
        theta_c = theta - center
        quad = (-0.5 / var).reshape(B * 2, d)
        lin = (theta_c / var).reshape(B * 2, d)
        const = (
            np.log(np.maximum(prior, 1e-300))
            - 0.5 * np.sum(np.log(2.0 * np.pi * var), axis=2)
            - 0.5 * np.sum(theta_c * theta_c / var, axis=2)
        ).reshape(B * 2)
        labels = np.empty((n, B), dtype=np.int64)
        rows = _tile_rows((2 * B + d) * 2 * 8)
        size = min(n, rows + 1)
        xc, xc2 = np.empty((size, d)), np.empty((size, d))
        scores, cross = np.empty((size, 2 * B)), np.empty((size, 2 * B))
        for lo, hi in _tiles(n, rows):
            m = hi - lo
            np.subtract(X[lo:hi], center, out=xc[:m])
            np.multiply(xc[:m], xc[:m], out=xc2[:m])
            np.matmul(xc2[:m], quad.T, out=scores[:m])
            np.matmul(xc[:m], lin.T, out=cross[:m])
            scores[:m] += cross[:m]
            scores[:m] += const
            pair = scores[:m].reshape(m, B, 2)
            np.greater_equal(pair[:, :, 1], pair[:, :, 0], out=labels[lo:hi])
        return labels.T

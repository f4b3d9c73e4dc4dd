"""The Naive Bayes oracle: the batch moments, joint log-likelihood and
batch predict of :mod:`repro.ml.naive_bayes` as of 12.0.0.

Each works on the whole matrix at once, with one ``np.where`` weight
matrix per class and a fresh temporary per operation.  The library fits
both classes through one reused weight buffer and scores in cache-sized
row tiles; ``tests/test_batch_protocol.py`` checks it against this
reference bit for bit.  The tests import it; the library never does.
"""

from __future__ import annotations

import numpy as np

__all__ = ["batch_moments", "joint_log_likelihood", "predict_batch"]


def batch_moments(X, Y, W, var_smoothing=1e-9):
    """``(theta (B, 2, d), var (B, 2, d), prior (B, 2))`` of a batch fit."""
    B = len(Y)
    center = X.mean(axis=0)
    Xc = X - center
    Xc2 = Xc * Xc
    total = W.sum(axis=1)
    theta = np.zeros((B, 2, X.shape[1]))
    var = np.zeros((B, 2, X.shape[1]))
    prior = np.zeros((B, 2))
    for k in (0, 1):
        Wk = np.where(Y == k, W, 0.0)
        sw = Wk.sum(axis=1)
        present = sw > 0
        m1 = Wk @ Xc
        m2 = Wk @ Xc2
        safe = np.where(present, sw, 1.0)[:, None]
        mean_c = m1 / safe
        theta[:, k] = np.where(present[:, None], center + mean_c, 0.0)
        second = np.maximum(m2 / safe - mean_c * mean_c, 0.0)
        var[:, k] = np.where(present[:, None], second, 1.0)
        prior[:, k] = np.where(present, sw / total, 1e-12)
    eps = var_smoothing * np.maximum(var.reshape(B, -1).max(axis=1), 1e-12)
    return theta, var + eps[:, None, None], prior


def joint_log_likelihood(model, X):
    """``(n, 2)`` per-class log prior plus Gaussian log density."""
    jll = np.zeros((len(X), 2))
    buf = np.empty_like(X)
    for k in (0, 1):
        log_prior = np.log(max(model.class_prior_[k], 1e-300))
        log_det = -0.5 * np.sum(np.log(2.0 * np.pi * model.var_[k]))
        np.subtract(X, model.theta_[k], out=buf)
        np.square(buf, out=buf)
        np.divide(buf, model.var_[k], out=buf)
        quad = -0.5 * np.sum(buf, axis=1)
        jll[:, k] = log_prior + log_det + quad
    return jll


def predict_batch(models, X):
    """``(B, n)`` int64 labels from two whole-matrix products."""
    B = len(models)
    theta = np.stack([m.theta_ for m in models])
    var = np.stack([m.var_ for m in models])
    prior = np.stack([m.class_prior_ for m in models])
    d = X.shape[1]
    center = X.mean(axis=0)
    Xc = X - center
    theta_c = theta - center
    quad = (-0.5 / var).reshape(B * 2, d)
    lin = (theta_c / var).reshape(B * 2, d)
    const = (
        np.log(np.maximum(prior, 1e-300))
        - 0.5 * np.sum(np.log(2.0 * np.pi * var), axis=2)
        - 0.5 * np.sum(theta_c * theta_c / var, axis=2)
    ).reshape(B * 2)
    scores = (Xc * Xc) @ quad.T
    scores += Xc @ lin.T
    scores += const
    scores = scores.reshape(len(X), B, 2)
    return (scores[:, :, 1] >= scores[:, :, 0]).T.astype(np.int64)

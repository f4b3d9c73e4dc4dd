"""The fit oracle: the logistic-regression kernels as plain expressions.

This is the reference :mod:`repro.ml.logistic` is checked against bit
for bit (``tests/test_logistic_kernels.py``): the two-branch
``sigmoid`` and the two-log weighted cross-entropy objective of the
``"lbfgs"``/``"gd"`` solvers, written the direct way with a fresh
temporary per operation.  The library evaluates the same per-element
operations in place, with a branch-free numerator select and one log
per element.  Deliberately naive — the tests import it; the library
never does.
"""

from __future__ import annotations

import numpy as np

__all__ = ["loss_grad", "sigmoid"]


def sigmoid(z):
    """Logistic function: ``1/(1+e)`` for ``z >= 0``, else ``e/(1+e)``,
    with ``e = exp(-|z|)``."""
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def loss_grad(l2, X, y, w, coef, intercept):
    """Weighted mean cross-entropy plus ``l2/2·|coef|²``, and its gradient.

    Returns ``(loss, grad_coef, grad_intercept)``.
    """
    z = X @ coef + intercept
    p = sigmoid(z)
    eps = 1e-12
    loss = -np.sum(
        w * (y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps))
    ) / w.sum()
    loss += 0.5 * l2 * np.dot(coef, coef)
    resid = w * (p - y) / w.sum()
    grad_coef = X.T @ resid + l2 * coef
    grad_intercept = resid.sum()
    return loss, grad_coef, grad_intercept

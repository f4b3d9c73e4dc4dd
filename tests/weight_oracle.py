"""The weight oracle: Eq. 12 / Eq. 21 as a plain loop over constraints.

This is the reference the compiled kernels
(:class:`repro.core.kernels.CompiledConstraints`) are checked against
bit for bit: a Python loop over constraints and group sides that
recomputes every coefficient vector per call, accumulating each side's
contribution in the same order and with the same operation nesting,
``(sign·λ) · (N·c)``, as the kernels.  It is deliberately naive — the
tests import it; the library never does.
"""

from __future__ import annotations

import numpy as np

__all__ = ["compute_weights", "sides_overlap"]


def sides_overlap(g1_idx, g2_idx):
    """Whether two group sides share a row, as a sorted set intersection.

    The kernels keep overlapping sides as separate accumulation terms
    (see :class:`repro.core.kernels.CompiledConstraints`); this is the
    reference for their overlap test.
    """
    return np.intersect1d(g1_idx, g2_idx).size > 0


def compute_weights(n, constraints, lambdas, y, predictions=None):
    """Compute OmniFair example weights for a Λ setting.

    Parameters
    ----------
    n : int
        Number of training examples (``N`` in the paper; weights default
        to 1 for rows in no group).
    constraints : list of Constraint
        Bound constraints whose ``g1_idx``/``g2_idx`` index into the
        training set.
    lambdas : array-like of shape (k,)
        One multiplier per constraint.
    y : ndarray (n,)
        Training labels (coefficients depend on them — Table 2).
    predictions : ndarray (n,) or None
        Current-model predictions on the training set; required iff any
        constraint's metric is parameterized by the model (FOR/FDR).

    Returns
    -------
    w : ndarray (n,)
        Raw weights; may contain negative entries (see
        :func:`repro.core.weights.resolve_negative_weights`).
    """
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if lambdas.shape != (len(constraints),):
        raise ValueError(
            f"lambdas has shape {lambdas.shape}, expected ({len(constraints)},)"
        )
    y = np.asarray(y)
    if len(y) != n:
        raise ValueError(f"y has length {len(y)}, expected {n}")
    w = np.ones(n, dtype=np.float64)
    for lam, constraint in zip(lambdas, constraints):
        if lam == 0.0:
            continue
        metric = constraint.metric
        for sign, idx in ((+1.0, constraint.g1_idx), (-1.0, constraint.g2_idx)):
            pred_group = None
            if metric.parameterized_by_model:
                if predictions is None:
                    raise ValueError(
                        f"constraint {constraint.label} needs model "
                        "predictions to derive weights (FOR/FDR path)"
                    )
                pred_group = np.asarray(predictions)[idx]
            c, _c0 = metric.coefficients(y[idx], pred_group)
            # operation nesting (sign·λ)·(N·c) matches the compiled
            # kernels, keeping both implementations bit-for-bit identical
            w[idx] += (sign * lam) * (n * c)
    return w

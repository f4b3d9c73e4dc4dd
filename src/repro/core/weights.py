"""Example-weight derivation (§5.2 Eq. 12, Table 3; §6 Eq. 21).

Expanding ``AP(θ) + Σ_k λ_k · FP_k(θ)`` as a linear combination of the
correctness indicator gives per-example weights

    w_i = 1 + N · Σ_k λ_k · ( [i ∈ g1_k]·c^{g1_k}_i − [i ∈ g2_k]·c^{g2_k}_i )

(points in both groups of a constraint receive both contributions, points
in neither receive none — the overlapping-groups case §5.2 spells out).
The weights themselves come from the compiled kernels
(:class:`repro.core.kernels.CompiledConstraints`); the plain Python loop
over constraints that spells out the formula above lives in the test
suite as the oracle they are checked against bit for bit
(``tests/weight_oracle.py``).

Large λ can push weights negative.  Maximizing ``w·1(h(x)=y)`` with
``w < 0`` is identical (up to an additive constant) to maximizing
``|w|·1(h(x)=1−y)``, so :func:`resolve_negative_weights` flips the label
and weights by ``|w|`` — the exact identity, and the same device Agarwal
et al.'s reduction uses.  A clipping strategy is kept for the ablation
benchmark (DESIGN.md §5).
"""

from __future__ import annotations

import numpy as np

__all__ = ["resolve_negative_weights"]


def resolve_negative_weights(w, y, strategy="flip"):
    """Make weights non-negative so any black-box learner accepts them.

    Parameters
    ----------
    w : ndarray (n,) or (B, n)
        Raw weights for one candidate, or one row per candidate.
    y : ndarray (n,)
        Labels aligned with the last axis of ``w``.
    strategy : {"flip", "clip"}
        ``"flip"`` (default, exact): negative-weight rows get ``|w|`` and a
        flipped label.  ``"clip"`` (lossy, for ablation): negative weights
        become zero.

    Returns
    -------
    (w_out, y_out) : non-negative weights and (possibly adjusted) labels,
    both shaped like ``w`` (a batch of labels may be a read-only
    broadcast view of ``y``).
    """
    if strategy not in ("flip", "clip"):
        raise ValueError(
            f"unknown strategy {strategy!r}; use 'flip' or 'clip'"
        )
    w = np.asarray(w, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    negative = w < 0
    if np.any(negative):
        if strategy == "flip":
            return np.abs(w), np.where(negative, 1 - y, y)
        w = np.where(negative, 0.0, w)
    return w, (y if y.shape == w.shape else np.broadcast_to(y, w.shape))

"""Drift policy: when and how to re-search λ after data updates.

The :class:`~repro.incremental.auditor.IncrementalAuditor` makes the
max-violation of the deployed model exact and cheap after every update
batch; this module turns that signal into action.  A
:class:`DriftPolicy` compares the updated max-violation against a
tolerance, and :func:`warm_retune` runs the λ re-search **warm**: the
deployed model's fitted λ (or λ-vector) and swap are the solve's warm
seed, ``Engine.solve(..., warm=(lambdas, swapped))``, which binary
search (k = 1) turns into a bracket probe and hill climbing (k > 1)
into its starting point, so a small drift re-converges in a handful of
fits instead of a cold search — the planner's own stop predicates are
reused unchanged.
"""

from __future__ import annotations

import numpy as np

from ..api import Engine
from ..core.exceptions import SpecificationError

__all__ = ["DriftPolicy", "warm_retune"]


class DriftPolicy:
    """Decide when an updated audit warrants a λ re-search.

    Parameters
    ----------
    tolerance : float
        Retune when ``max_violation > tolerance``.  The natural choice
        is ``0.0`` (retune the moment any constraint is violated beyond
        its own ε, since ε is already inside max-violation), but a
        small positive slack avoids thrashing on noise batches.
    min_updates : int
        Minimum update batches between retunes (cooldown); ``0``
        disables the cooldown.
    """

    def __init__(self, tolerance=0.0, min_updates=0):
        if not np.isfinite(tolerance):
            raise SpecificationError("drift tolerance must be finite")
        self.tolerance = float(tolerance)
        self.min_updates = int(min_updates)
        self._last_retune = None

    def should_retune(self, audit):
        """True when the snapshot's max-violation breaches the tolerance."""
        if audit["max_violation"] <= self.tolerance:
            return False
        if (
            self.min_updates
            and self._last_retune is not None
            and audit["n_updates"] - self._last_retune < self.min_updates
        ):
            return False
        return True

    def note_retune(self, audit):
        """Record that a retune happened at this snapshot's update count."""
        self._last_retune = audit["n_updates"]


def warm_retune(auditor, estimator=None, *, strategy="auto", store=None,
                seed=0, val_fraction=0.25, rebase=True, engine_options=None):
    """Re-search λ on the auditor's live rows, warm-started from its model.

    Materializes the live dataset and solves the auditor's own spec set
    with ``warm=(lambdas, swapped)`` from the currently audited model's
    report (``None``, a cold solve, when it has no report).  Only
    ``binary_search`` and ``hill_climb`` read the seed (``grid``, for
    one, runs cold), and a FOR/FDR spec set searches cold under every
    strategy, since its first fit at a nonzero λ would need a model's
    predictions to chain from.  On success the
    auditor is rebased onto the new model (predictions re-scored,
    accumulators recounted — inherently O(live rows), since every
    prediction may change).

    Returns the new :class:`~repro.api.FairModel`; its
    ``report.n_fits`` against a cold solve is the headline measurement
    of ``benchmarks/perf/bench_updates.py``.
    """
    if estimator is None:
        estimator = getattr(auditor.model, "model", None)
        if estimator is None:
            raise SpecificationError(
                "warm_retune needs an estimator: the audited model does "
                "not expose one (pass estimator=...)"
            )
    report = getattr(auditor.model, "report", None)
    warm = None if report is None else (report.lambdas, report.swapped)
    engine = Engine(strategy, store=store, **(engine_options or {}))
    live = auditor.live_dataset()
    fair = engine.solve(
        auditor.specs, estimator, live, seed=seed,
        val_fraction=val_fraction, warm=warm,
    )
    if rebase:
        auditor.rebase(fair)
    return fair

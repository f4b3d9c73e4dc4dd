"""Drift policy: when and how to re-search λ after data updates.

The :class:`~repro.incremental.auditor.IncrementalAuditor` makes the
max-violation of the deployed model exact and cheap after every update
batch; this module turns that signal into action.  A
:class:`DriftPolicy` compares the updated max-violation against a
tolerance, and :func:`warm_retune` runs the λ re-search **warm**: the
deployed model's fitted λ (or λ-vector) seeds the planner through the
``warm_lambda``/``warm_swapped`` bracket injection (binary search,
k = 1) or the ``warm_lambdas`` starting point (hill climb, k > 1), so
a small drift re-converges in a handful of fits instead of a cold
search — the planner's own stop predicates are reused unchanged.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from ..api import Engine
from ..core.exceptions import SpecificationError
from ..core.strategies import get_strategy, resolve_strategy_name

__all__ = ["DriftPolicy", "warm_options", "warm_retune"]


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


def warm_options(model):
    """Engine options that seed the λ search from a fitted model.

    Maps a :class:`~repro.api.FairModel`'s report onto the planners'
    warm entries: a single λ becomes ``warm_lambda``/``warm_swapped``
    (binary search resumes its doubling bracket from there), a
    λ-vector becomes ``warm_lambdas`` (hill climb starts its rounds at
    the previous optimum).  Models without a report (or without fitted
    λs) warm nothing — the returned dict is empty and the search runs
    cold.  The planners themselves ignore both entries on FOR/FDR
    constraints, whose first fit at a nonzero λ would need a model's
    predictions to chain from.
    """
    report = getattr(model, "report", None)
    lambdas = None if report is None else getattr(report, "lambdas", None)
    if lambdas is None:
        return {}
    lambdas = np.asarray(lambdas, dtype=np.float64).reshape(-1)
    if lambdas.size == 0 or not np.all(np.isfinite(lambdas)):
        return {}
    if lambdas.size == 1:
        return {
            "warm_lambda": float(lambdas[0]),
            "warm_swapped": bool(getattr(report, "swapped", False)),
        }
    return {"warm_lambdas": tuple(float(x) for x in lambdas)}


def warm_retune(auditor, estimator=None, *, strategy="auto", store=None,
                seed=0, val_fraction=0.25, rebase=True, engine_options=None):
    """Re-search λ on the auditor's live rows, warm-started from its model.

    Materializes the live dataset, builds an :class:`~repro.api.Engine`
    whose options include :func:`warm_options` of the currently audited
    model, and solves the auditor's own spec set.  Only the warm fields
    that the resolved strategy's config declares are added (``grid``,
    for one, has none and runs cold), and a FOR/FDR spec set searches
    cold under every strategy (see
    :class:`~repro.core.strategies.HillClimbConfig`).  On success the
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
    # "auto" resolves on the constraint count, which the auditor's
    # fixed group universe already knows
    name = resolve_strategy_name(strategy, auditor.k)
    declared = {f.name for f in fields(get_strategy(name).config_cls)}
    options = dict(engine_options or {})
    options.update(
        (key, value) for key, value in warm_options(auditor.model).items()
        if key in declared
    )
    engine = Engine(strategy, store=store, **options)
    live = auditor.live_dataset()
    fair = engine.solve(
        auditor.specs, estimator, live, seed=seed,
        val_fraction=val_fraction,
    )
    if rebase:
        auditor.rebase(fair)
    return fair

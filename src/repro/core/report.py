"""Structured fit result shared by the engine, the CLI and the service.

:class:`FitReport` gathers the outcome of a solve — selected λs,
history, validation audit, cache counters — into one picklable
dataclass with a uniform shape regardless of which search strategy ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["FitReport"]


@dataclass
class FitReport:
    """Everything a fit produced besides the model itself.

    Attributes
    ----------
    strategy : str
        Name of the registered search strategy that actually ran
        (``"auto"`` is resolved before this is recorded).
    lambdas : ndarray, shape (k,)
        Tuned hyperparameters, one per induced constraint — always a
        vector, even for single-constraint fits.
    feasible : bool
        Whether every constraint held on the validation split.
    n_fits : int
        Total model fits spent by the search.
    n_rounds : int
        Hill-climbing rounds (0 for single-constraint strategies).
    history : list of HistoryPoint
        Every fit as ``(lam, disparity, accuracy)`` named tuples.
    constraint_labels : tuple of str
        Labels of the induced constraints, ordered like ``lambdas``.
    validation : dict
        :func:`~repro.core.evaluation.evaluate_model` output on the
        validation split (accuracy, disparities, violations, feasible).
    swapped : bool
        Whether Algorithm 1 reversed the group pair (single only): the
        search then ran with the pair's sign flipped, so ``lambdas``
        are in the reversed orientation.
    fit_cache_hits, fit_cache_lookups : int
        Fit-memoization traffic: ``n_fits`` counts logical fits, of
        which ``fit_cache_hits`` were served from the resolved-weight
        cache instead of retraining (see
        :class:`~repro.core.fitter.WeightedFitter`).
    eval_cache_hits, eval_cache_lookups : int
        Always 0: validation scores are not memoized.  Kept so readers
        of these two fields keep working.
    store_hits, store_lookups : int
        Persistent-store traffic when the solve ran with
        ``Engine(store_dir=...)``: fit blobs, or one hit for a solve
        served whole by the solution cache.  A store hit means the
        artifact was produced by an earlier process or solve.  Both 0
        when no store is configured.
    fit_paths : dict
        Logical fits by where their model came from (see
        :attr:`~repro.core.fitter.WeightedFitter.fit_paths`):
        ``"cached"`` (memory hit), ``"store"`` (persistent fit-store
        hit), or the path that trained it (``"batch_protocol"``,
        ``"serial"``, ``"single"``, ``"warm"``); the entries sum to
        ``n_fits``.  A solve served whole by the solution cache
        (``Engine(store_dir=...)``) spent no fits and reads
        ``{"solution": 1}``.  Records, e.g., that ``warm_start``
        bypassed an estimator's batch hook.
    train_constraints, val_constraints : list of Constraint
        The bound constraints, both in the declared orientation
        (``swapped`` says whether the search reversed it); kept for
        audit/debug, excluded from ``repr``.
    """

    strategy: str
    lambdas: np.ndarray
    feasible: bool
    n_fits: int
    n_rounds: int
    history: list
    constraint_labels: tuple
    validation: dict
    swapped: bool = False
    fit_cache_hits: int = 0
    fit_cache_lookups: int = 0
    eval_cache_hits: int = 0
    eval_cache_lookups: int = 0
    store_hits: int = 0
    store_lookups: int = 0
    fit_paths: dict = field(default_factory=dict, repr=False)
    train_constraints: list = field(default_factory=list, repr=False)
    val_constraints: list = field(default_factory=list, repr=False)

    @property
    def accuracy(self):
        """Validation accuracy of the selected model."""
        return self.validation["accuracy"]

    @property
    def fits_trained(self):
        """Models actually trained: logical fits minus every cache layer.

        ``n_fits`` counts logical fits, so a search's budget reads the
        same whatever the caches served (the cache is off only under
        ``warm_start``); this subtracts memory-cache hits and
        persistent fit-store hits to give the training runs that
        really executed in this process.
        """
        return self.n_fits - self.fit_cache_hits - self.fit_store_hits

    @property
    def fit_store_hits(self):
        """Persistent-store hits that short-circuited a model fit.

        ``store_hits`` also counts a solution-cache hit;
        :attr:`fit_paths`' ``"store"`` entry isolates the fit side.
        """
        return self.fit_paths.get("store", 0)

    @property
    def disparities(self):
        """Validation disparity per constraint label."""
        return self.validation["disparities"]

    @property
    def violations(self):
        """Validation ``max(0, |FP| − ε)`` per constraint label."""
        return self.validation["violations"]

    def summary(self):
        """Human-readable multi-line summary (used by the CLI)."""
        lines = [
            f"strategy:   {self.strategy}"
            f" ({self.n_fits} fits, {self.n_rounds} rounds)",
            f"lambdas:    {np.round(self.lambdas, 6).tolist()}",
            f"feasible:   {self.feasible}",
            f"accuracy:   {self.accuracy:.4f} (validation)",
            f"caches:     fit {self.fit_cache_hits}/"
            f"{self.fit_cache_lookups} hits, "
            f"store {self.store_hits}/{self.store_lookups} hits",
        ]
        for label, value in self.disparities.items():
            lines.append(f"disparity:  {label} = {value:+.4f}")
        return "\n".join(lines)

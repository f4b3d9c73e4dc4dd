"""Ask/tell strategy kernel: candidate *generation* behind a narrow IR.

Every solver drives the same fit/evaluate/history loop, so each
engine capability — compiled batching, the fit caches, chunked
evaluation — composes once, here.  The loop has two layers:

* a **Strategy** *asks* for candidates by yielding
  :class:`CandidateBatch` objects from its :meth:`~repro.core.strategies.
  SearchStrategy.plan` generator, and is *told* the outcomes as a list
  of :class:`EvalResult` (the value sent back into the generator);
* the :class:`~repro.core.executor.ExecutionBackend` consumes the
  batches and drives the fit/score machinery in-process, in order.

A strategy's reported result sequence (and therefore its history and
selected λ) depends only on the batches it yields.

A batch is one of two kinds:

``kind="fit"``
    Candidates are evaluated one at a time, in order: one
    :meth:`WeightedFitter.fit` per candidate, scored against the
    validation split when the score is first read (a recorded batch and
    a ``stop`` predicate read it at once).  ``chain=True`` feeds each
    fitted model to the next candidate as ``prev_model`` (the §5.2
    continuation approximation for θ-parameterized weights); ``stop`` is
    a predicate over the last :class:`EvalResult` that ends the batch
    early (a doubling ladder stops at the first candidate past the
    constraint band).

``kind="population"``
    All candidates are always evaluated and reported in order (a grid,
    a CMA-ES generation).  With constant-coefficient metrics the whole
    batch is fitted by one :meth:`WeightedFitter.fit_batch` call and
    scored by one
    :meth:`~repro.core.kernels.CompiledEvaluator.score_models_batch`
    pass, and ``prev_model``/``chain`` are unused.  When the weights
    need a model's predictions (FOR/FDR), the executor runs the batch
    as a ``"fit"`` batch instead, so ``prev_model`` and ``chain``
    apply; a plan asks for a population the same way either way.

Strategies record their search history through
:meth:`PlanContext.record` / the executor (``record=True`` batches);
every :class:`~repro.core.history.HistoryPoint` carries the executing
batch's ``batch_id`` and its share of the round's wall-clock time, which
``analysis/timing.py`` aggregates per evaluation round.

Algorithm 1's swap of the group pair (lines 4–5) only negates λ's
effect on the weights and the sign of FP, so it is a sign in the
:class:`PlanContext`, applied to every λ the context hands the fitter
and every disparity it reports.  No constraint list is rewritten, so
one fitter can serve several contexts.  :func:`run_plan` is the one
driver; every plan returns a :class:`TuneResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .history import HistoryPoint
from .kernels import CompiledEvaluator

__all__ = [
    "CandidateBatch",
    "EvalResult",
    "PlanContext",
    "TuneResult",
    "run_plan",
]

BATCH_KINDS = ("fit", "population")


@dataclass
class TuneResult:
    """What every plan returns: the selected model and its Λ.

    ``lambdas`` is the (k,) vector in the plan's orientation, and
    ``swapped`` says whether Algorithm 1 reversed the group pair.  The
    fit count is the fitter's ``n_fits``.
    """

    model: object
    lambdas: np.ndarray
    feasible: bool
    swapped: bool = False
    n_rounds: int = 0
    history: list = field(default_factory=list)  # list of HistoryPoint

    def __post_init__(self):
        self.lambdas = np.atleast_1d(
            np.asarray(self.lambdas, dtype=np.float64)
        )


class CandidateBatch:
    """One *ask*: a matrix of λ candidates plus execution directives.

    Parameters
    ----------
    lambdas : array-like (B, k) or (B,) for k = 1
        Candidate multiplier vectors, in evaluation order.
    kind : {"fit", "population"}
        Sequential per-candidate fits vs one vectorized batch pass.
    prev_model : fitted estimator, optional
        ``prev_model`` for the first (``chain=True``) or every
        (``chain=False``) candidate's fit — the predictions source for
        θ-parameterized weights (a population uses it only then).
    chain : bool
        Update ``prev_model`` to each candidate's fitted model before
        fitting the next (a sequential recurrence).
    record : bool
        Append one history point per reported candidate.
    stop : callable(EvalResult) -> bool, optional
        Evaluated after each candidate of a ``"fit"`` batch; truthy ends
        the batch (the triggering candidate is still reported).
    """

    __slots__ = ("lambdas", "kind", "prev_model", "chain", "record", "stop")

    def __init__(self, lambdas, kind="fit", prev_model=None, chain=False,
                 record=True, stop=None):
        self.lambdas = np.atleast_2d(np.asarray(lambdas, dtype=np.float64))
        if self.lambdas.ndim != 2 or self.lambdas.shape[0] == 0:
            raise ValueError(
                f"CandidateBatch needs a non-empty (B, k) matrix, got "
                f"shape {self.lambdas.shape}"
            )
        if kind not in BATCH_KINDS:
            raise ValueError(
                f"unknown batch kind {kind!r}; use one of {BATCH_KINDS}"
            )
        self.kind = kind
        self.prev_model = prev_model
        self.chain = bool(chain)
        self.record = bool(record)
        self.stop = stop

    def __len__(self):
        return self.lambdas.shape[0]

    def __repr__(self):
        return (
            f"CandidateBatch(n={len(self)}, kind={self.kind!r}, "
            f"chain={self.chain})"
        )


class EvalResult:
    """One *tell*: a fitted, scored candidate.

    Built with its score, ``(disparities, accuracy)``, or with a
    ``score`` thunk returning them, which runs once, when ``disparities``
    or ``accuracy`` is first read; its time is added to ``wall_time_s``.
    An error it raises surfaces at that read.

    Attributes
    ----------
    lam : ndarray (k,)
        The candidate's multiplier vector, in the plan's orientation.
    model : fitted estimator
    disparities : ndarray (k,)
        Validation disparity per bound constraint, in the plan's
        orientation.
    accuracy : float
        Validation accuracy.
    index : int
        Position within the asking batch.
    batch_id : int
        Monotone id of the executed batch (shared by all its
        candidates; stamped onto history points).
    wall_time_s : float
        This candidate's share of the batch's fit+score wall time.
    """

    __slots__ = ("lam", "model", "index", "batch_id", "wall_time_s",
                 "_disparities", "_accuracy", "_score")

    def __init__(self, lam, model, disparities=None, accuracy=None, index=0,
                 batch_id=None, wall_time_s=None, score=None):
        self.lam = np.atleast_1d(np.asarray(lam, dtype=np.float64))
        self.model = model
        self.index = index
        self.batch_id = batch_id
        self.wall_time_s = wall_time_s
        self._score = score
        if score is None:
            self._set_score(disparities, accuracy)

    def _set_score(self, disparities, accuracy):
        self._disparities = np.atleast_1d(
            np.asarray(disparities, dtype=np.float64)
        )
        self._accuracy = float(accuracy)

    def _scored(self):
        if self._score is not None:
            t0 = time.perf_counter()
            self._set_score(*self._score())
            self._score = None
            if self.wall_time_s is not None:
                self.wall_time_s += time.perf_counter() - t0
        return self

    @property
    def disparities(self):
        return self._scored()._disparities

    @property
    def accuracy(self):
        return self._scored()._accuracy

    @property
    def fp(self):
        """First (or only) constraint's disparity as a scalar."""
        return float(self.disparities[0])

    def history_point(self, style="vector"):
        """This result as a :class:`HistoryPoint` (scalar or vector λ)."""
        self._scored()   # before wall_time_s is read: it adds its time
        if style == "scalar":
            return HistoryPoint(
                float(self.lam[0]), float(self.disparities[0]),
                self.accuracy, wall_time_s=self.wall_time_s,
                batch_id=self.batch_id,
            )
        return HistoryPoint(
            self.lam.copy(), self.disparities.copy(), self.accuracy,
            wall_time_s=self.wall_time_s, batch_id=self.batch_id,
        )

    def __repr__(self):
        return (
            f"EvalResult(lam={self.lam.tolist()}, "
            f"disparities={self.disparities.tolist()}, "
            f"accuracy={self.accuracy:.4f})"
        )


def _warm_seed(warm, k):
    """``warm`` as ``(float64 array (k,), bool)``, or ``None`` unless
    it is a pair whose first item is k finite numbers."""
    try:
        lambdas, swapped = warm
        lambdas = np.asarray(lambdas, dtype=np.float64).reshape(-1)
    except (TypeError, ValueError):
        return None
    if lambdas.shape != (k,) or not np.all(np.isfinite(lambdas)):
        return None
    return lambdas, bool(swapped)


class PlanContext:
    """Everything a strategy's ``plan`` generator can see and touch.

    Owns the validation-side scoring (one
    :class:`~repro.core.kernels.CompiledEvaluator` per constraint
    binding, scoring through its one block loop), the history list, and
    the plan's orientation: ``signs``, a (k,) vector of ±1.0 that
    Algorithm 1's swap step flips.  Every λ the context hands the
    fitter, and every disparity it reports, is multiplied by ``signs``
    (:meth:`orient`); neither constraint list is ever rewritten, so the
    fitter's kernels and the evaluator are built once.

    ``warm`` is an earlier solve's ``(lambdas, swapped)`` (the
    :class:`~repro.core.report.FitReport` fields of the same name), a
    seed that a plan may start its search from.  It is kept as
    ``(float64 array (k,), bool)`` only when ``lambdas`` is k finite
    numbers; anything else reads as ``None`` (a cold start), since
    warmth is an optimization, never a correctness dependency.
    """

    def __init__(self, fitter, val_constraints, X_val, y_val, warm=None):
        self.fitter = fitter
        self.val_constraints = list(val_constraints)
        self.X_val = np.asarray(X_val, dtype=np.float64)
        self.y_val = np.asarray(y_val, dtype=np.int64)
        self.record_style = "vector"
        self.signs = np.ones(len(fitter.constraints))
        self.history = []
        self.next_batch_id = 0
        self.warm = _warm_seed(warm, len(self.signs))
        self._kernel = None

    # -- problem shape --------------------------------------------------------

    @property
    def k(self):
        """Number of bound constraints."""
        return len(self.fitter.constraints)

    @property
    def epsilons(self):
        """Per-constraint allowance vector (validation binding)."""
        return np.array([c.epsilon for c in self.val_constraints])

    # -- orientation (Algorithm 1 lines 4-5) ----------------------------------

    def swap_constraint(self, j=0):
        """Reverse constraint ``j``'s group pair for this plan."""
        self.signs[j] = -self.signs[j]

    def orient(self, values, signs=None):
        """``values`` (..., k) times ``signs`` (default: the current
        ones): a plan's λ to the declared binding's, or a declared
        disparity to the plan's.  Adding 0.0 keeps a flipped exact tie
        at +0.0, as ``rate(g2) − rate(g1)`` is.
        """
        return values * (self.signs if signs is None else signs) + 0.0

    # -- scoring --------------------------------------------------------------

    def compiled_scorer(self):
        """The shared evaluator of the validation binding."""
        if self._kernel is None:
            self._kernel = CompiledEvaluator(
                self.val_constraints, self.y_val,
                chunk_size=getattr(self.fitter, "eval_chunk_size", None),
            )
        return self._kernel

    def score(self, model, signs=None):
        """``(disparities (k,), accuracy)`` of ``model`` on validation,
        the disparities oriented by ``signs`` (default: the current
        ones; a deferred score passes those of its fit)."""
        d, a = self.compiled_scorer().score_models_batch([model], self.X_val)
        return self.orient(d[0], signs), float(a[0])

    def violations(self, disparities):
        """``|FP| − ε`` per constraint (positive = violated)."""
        return np.abs(np.atleast_1d(disparities)) - self.epsilons

    # -- history --------------------------------------------------------------

    def record(self, point):
        """Append a result (converted per ``record_style``) or a point."""
        if isinstance(point, EvalResult):
            point = point.history_point(self.record_style)
        self.history.append(point)


def run_plan(strategy, fitter, val_constraints, X_val, y_val, config,
             warm=None):
    """Drive a strategy's ask/tell generator through the executor.

    The one driver of every solve.  ``plan(ctx, config)`` yields
    :class:`CandidateBatch` objects and receives ``list[EvalResult]``
    for each; its return value, a :class:`TuneResult`, becomes this
    function's.  ``warm`` becomes the context's :attr:`PlanContext.warm`
    seed.
    """
    from .executor import ExecutionBackend  # runtime dep, not import-time

    backend = ExecutionBackend()
    ctx = PlanContext(fitter, val_constraints, X_val, y_val, warm=warm)
    gen = strategy.plan(ctx, config)
    results = None
    try:
        while True:
            try:
                batch = gen.send(results)
            except StopIteration as stop:
                return stop.value
            if not isinstance(batch, CandidateBatch):
                raise TypeError(
                    f"strategy {strategy.name!r} yielded "
                    f"{type(batch).__name__}, expected CandidateBatch"
                )
            results = backend.run(batch, ctx)
    finally:
        gen.close()

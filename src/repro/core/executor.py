"""The executor: how ask/tell candidate batches get fitted.

The planner (:mod:`repro.core.planner`) separates candidate *generation*
from candidate *execution*; this module owns the execution half.  The
:class:`ExecutionBackend` consumes :class:`~repro.core.planner.
CandidateBatch` objects and drives the engine machinery —
:meth:`WeightedFitter.fit` / :meth:`WeightedFitter.fit_batch`, the fit
memoization caches, and the chunked scoring pass
(:meth:`~repro.core.kernels.CompiledEvaluator.score_models_batch`) —
uniformly for every strategy.  It runs in-process and in order: one
fit per candidate of a ``"fit"`` batch; one ``fit_batch`` call and one
scoring pass per ``"population"`` batch.  A ``"fit"`` candidate is
scored only when its score is read — at once when the batch records it
or its ``stop`` predicate reads it, later or never by the plan (``grid``
reads only the model of its Λ = 0 fit) — in the orientation its fit
had.  The executor alone decides how a population is fitted: when the
fitter's weights need a model's predictions (FOR/FDR), each
candidate's weights chain through the previous candidate's model
(§5.2), so the population runs as a ``"fit"`` batch, from
``prev_model`` and as ``chain`` says.  The search, not the executor,
keeps the fit count small (Algorithms 1 and 2 use the monotonicity of
FP in λ).  Each candidate is fitted at
``ctx.orient(λ)`` and reports ``ctx.orient`` of its disparities, so a
plan sees Algorithm 1's swap only as a sign
(:meth:`~repro.core.planner.PlanContext.orient`).

:func:`submit_job` runs a callable (a serving retune) on a daemon thread
behind a :class:`JobHandle` state machine.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import traceback
import warnings

from .exceptions import SpecificationError
from .planner import EvalResult

__all__ = [
    "ExecutionBackend",
    "JobHandle",
    "JOB_TERMINAL",
    "submit_job",
]


class ExecutionBackend:
    """Consumes candidate batches; produces ordered ``EvalResult`` lists."""

    def run(self, batch, ctx):
        """Fit and score ``batch``; one result per reported candidate."""
        ctx.next_batch_id += 1
        if batch.kind == "population" and not ctx.fitter.parameterized:
            return self._run_population(batch, ctx)
        return self._run_fit(batch, ctx)

    def _run_population(self, batch, ctx):
        t0 = time.perf_counter()
        models = ctx.fitter.fit_batch(ctx.orient(batch.lambdas))
        disparities, accuracies = ctx.compiled_scorer().score_models_batch(
            models, ctx.X_val
        )
        disparities = ctx.orient(disparities)
        share = (time.perf_counter() - t0) / max(len(models), 1)
        results = []
        for b in range(len(models)):
            res = EvalResult(
                batch.lambdas[b], models[b],
                disparities[b], float(accuracies[b]),
                index=b, batch_id=ctx.next_batch_id, wall_time_s=share,
            )
            if batch.record:
                ctx.record(res)
            results.append(res)
        return results

    def _run_fit(self, batch, ctx):
        prev = batch.prev_model
        results = []
        for i in range(len(batch)):
            t0 = time.perf_counter()
            model = ctx.fitter.fit(
                ctx.orient(batch.lambdas[i]), prev_model=prev,
            )
            # scored when first read, in the orientation of its fit: at
            # once by the history point or the stop predicate, else by
            # the plan, or never
            res = EvalResult(
                batch.lambdas[i], model, index=i, batch_id=ctx.next_batch_id,
                wall_time_s=time.perf_counter() - t0,
                score=functools.partial(ctx.score, model, ctx.signs.copy()),
            )
            if batch.record:
                ctx.record(res)
            results.append(res)
            if batch.chain:
                prev = model
            if batch.stop is not None and batch.stop(res):
                break
        return results


# -- background job submission -------------------------------------------------


_JOB_COUNTER = itertools.count(1)


#: statuses a job can never leave; exactly one terminal transition wins
JOB_TERMINAL = frozenset({"done", "error", "timeout", "cancelled"})


class JobHandle:
    """A background solve (or any callable) running off the request path.

    The serving layer's ``POST /retune`` endpoint answers with a job id
    immediately and runs the actual :meth:`Engine.solve` on a worker
    thread; clients poll ``GET /jobs/<id>`` until the handle reports a
    terminal status.  The handle is the synchronization point:
    ``status``/``result``/``error`` are published under a lock and
    :meth:`wait` blocks on an event, so it is safe to share between the
    submitting thread, the worker, any number of pollers, a timeout
    timer, and a canceller.

    Lifecycle: ``pending`` → ``running`` → one of the terminal states
    ``done`` / ``error`` / ``timeout`` / ``cancelled``.  The *first*
    terminal transition wins — a job cancelled (or timed out) while its
    function is still running keeps that status, and the function's
    eventual return value or exception is discarded.  The worker thread
    itself cannot be interrupted mid-call (Python threads can't be
    killed), so ``cancel()``/timeout are *publication* guarantees, not
    preemption: pollers see the terminal status immediately.
    """

    def __init__(self, job_id, name=None, on_done=None):
        self.id = job_id
        self.name = name or f"job-{job_id}"
        self._lock = threading.Lock()
        self._finished = threading.Event()
        self._status = "pending"
        self._result = None
        self._error = None
        self._traceback = None
        self._timer = None
        self._on_done = on_done
        self.submitted_at = time.time()
        self.started_at = None
        self.finished_at = None

    @property
    def status(self):
        """``pending``/``running`` or a :data:`JOB_TERMINAL` status."""
        with self._lock:
            return self._status

    @property
    def result(self):
        """The callable's return value once ``status == "done"``
        (``None`` before completion and on every other terminal
        status)."""
        with self._lock:
            return self._result

    @property
    def error(self):
        """The captured exception on ``error``/``timeout``/``cancelled``."""
        with self._lock:
            return self._error

    def wait(self, timeout=None):
        """Block until the job is terminal; True unless the wait timed
        out.  Safe to call repeatedly — the event stays set."""
        return self._finished.wait(timeout)

    def cancel(self):
        """Move the job to ``cancelled`` unless already terminal.

        A pending job never runs its function (the worker checks before
        starting); a running job keeps executing but its outcome is
        discarded.  Returns True when this call performed the
        transition.
        """
        return self._finish(
            "cancelled", error=RuntimeError("job cancelled"),
        )

    def describe(self):
        """JSON-friendly snapshot (the ``GET /jobs/<id>`` payload core)."""
        with self._lock:
            out = {
                "id": self.id,
                "name": self.name,
                "status": self._status,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
            }
            if self._error is not None:
                out["error"] = f"{type(self._error).__name__}: {self._error}"
            if self._traceback is not None:
                out["traceback"] = self._traceback
        return out

    # -- state machine -------------------------------------------------------

    def _finish(self, status, result=None, error=None, tb=None):
        """Publish a terminal status; False when one already won."""
        with self._lock:
            if self._status in JOB_TERMINAL:
                return False
            self._status = status
            self._result = result
            self._error = error
            self._traceback = tb
            self.finished_at = time.time()
            timer, self._timer = self._timer, None
            on_done, self._on_done = self._on_done, None
        if timer is not None:
            timer.cancel()
        # observers run before waiters unblock: anyone released by
        # wait() sees their side effects (e.g. breaker state) applied
        if on_done is not None:
            try:
                on_done(self)
            except Exception:  # observer bugs must not poison the job
                warnings.warn(
                    f"job {self.name!r} on_done callback raised:\n"
                    f"{traceback.format_exc()}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        self._finished.set()
        return True

    def _arm_timeout(self, timeout_s):
        """Start the daemon timer that force-finishes a slow job."""
        timer = threading.Timer(
            float(timeout_s),
            self._finish,
            args=("timeout",),
            kwargs={
                "error": TimeoutError(
                    f"job exceeded its {float(timeout_s):g}s budget"
                ),
            },
        )
        timer.daemon = True
        with self._lock:
            if self._status in JOB_TERMINAL:
                return
            self._timer = timer
        timer.start()

    # -- worker side --------------------------------------------------------

    def _run(self, fn, args, kwargs):
        with self._lock:
            if self._status != "pending":  # cancelled before starting
                return
            self._status = "running"
            self.started_at = time.time()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:  # published, not swallowed
            self._finish("error", error=exc, tb=traceback.format_exc())
        else:
            self._finish("done", result=result)


def submit_job(fn, *args, name=None, timeout_s=None, on_done=None, **kwargs):
    """Run ``fn(*args, **kwargs)`` on a daemon thread; return its handle.

    Exceptions are captured on the handle (``status == "error"``, with
    the formatted traceback in :meth:`JobHandle.describe`) instead of
    killing the worker, so a failed retune surfaces through polling
    rather than a dead server thread.

    Parameters
    ----------
    timeout_s : float or None
        Wall-clock budget: seconds in ``(0, threading.TIMEOUT_MAX]``,
        the longest wait its timer thread can arm.  When it elapses
        first the handle publishes
        ``status == "timeout"`` and the function's eventual outcome is
        discarded (the thread itself is not preempted).
    on_done : callable or None
        ``on_done(handle)`` invoked exactly once, on whichever thread
        performs the terminal transition (the serving layer feeds its
        per-model circuit breakers this way).
    """
    handle = JobHandle(next(_JOB_COUNTER), name=name, on_done=on_done)
    if timeout_s is not None:
        if not 0.0 < float(timeout_s) <= threading.TIMEOUT_MAX:
            raise SpecificationError(
                f"timeout_s must be in (0, {threading.TIMEOUT_MAX:g}] "
                f"or None, got {timeout_s}"
            )
        handle._arm_timeout(timeout_s)
    worker = threading.Thread(
        target=handle._run, args=(fn, args, kwargs),
        name=handle.name, daemon=True,
    )
    worker.start()
    return handle


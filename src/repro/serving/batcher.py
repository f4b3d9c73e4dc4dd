"""Micro-batching: coalesce concurrent predict calls into one pass.

Production prediction traffic is many small concurrent requests against
one model; per-request model invocation pays the fixed Python/numpy
dispatch cost every time.  A :class:`MicroBatcher` puts an asyncio queue
in front of each model and is work-conserving: a free worker takes the
request that woke it plus whatever is queued (up to ``max_batch_size``)
and runs the pass at once, so requests that arrive during a pass form
the next batch.  A batch runs as **one** :meth:`FairModel.predict_batch`
call per row width — a stack, a single ``predict`` pass, a split.
Results are bit-identical to per-request ``predict`` because
predictions are per-row.

Each batcher owns a small thread pool (the *per-model worker pool*) so
one model's slow predict cannot head-of-line-block another model, and
``n_workers`` batches of the same model may overlap.  A batch-size
histogram and queue-depth gauge feed the service's ``/stats``.

``max_batch_size=1`` degrades to exactly the unbatched pipeline (still
one executor hop per request) — that is the serving benchmark's
batching-off arm, so on/off compare the same code path.

Resilience hooks (see ``docs/resilience.md``):

* requests may carry a :class:`~repro.resilience.Deadline`; entries
  whose budget expired while queued are failed with
  :class:`~repro.resilience.DeadlineExceeded` *before* the batch runs,
  so a congested queue never spends model time on answers nobody is
  waiting for (counted under ``expired`` in :meth:`stats`);
* a failing pass fails only its own waiters — the worker loop
  survives a poisoned request and keeps serving the next batch, and a
  request of the wrong width fails alone, because each width runs its
  own pass;
* ``close(drain=True)`` flushes queued and in-flight work before
  cancelling the workers (the service's graceful-stop path);
* the ``batcher.predict`` fault-injection site fires inside the batch
  try-block, so injected chaos exercises the same only-this-batch
  failure containment as an organic predict error.
"""

from __future__ import annotations

import asyncio
import concurrent.futures

from ..resilience.faults import inject

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Per-model request coalescing over an asyncio queue.

    Parameters
    ----------
    predict_batch : callable(list of row-blocks) -> list of label arrays
        Typically ``FairModel.predict_batch`` (or a registry-resolving
        wrapper so evict/reload and re-registration take effect
        mid-flight).  Called once per row width in a batch.
    max_batch_size : int
        Largest number of requests coalesced into one pass; 1 disables
        coalescing while keeping the identical pipeline.
    n_workers : int
        Worker tasks (and pool threads) for this model; >1 lets batches
        overlap.
    """

    def __init__(self, predict_batch, *, max_batch_size=32, n_workers=1,
                 name="model"):
        if int(max_batch_size) < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if int(n_workers) < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.predict_batch = predict_batch
        self.max_batch_size = int(max_batch_size)
        self.n_workers = int(n_workers)
        self.name = name
        self._queue = None
        self._workers = []
        self._pool = None
        self._inflight = 0
        # touched only on the event loop (workers) / read cross-thread
        self._histogram = {}
        self._n_requests = 0
        self._n_batches = 0
        self._n_expired = 0
        self._n_batch_errors = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self):
        """Bind the queue and worker tasks to the running event loop."""
        if self._queue is not None:
            return self
        self._queue = asyncio.Queue()
        self._pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.n_workers,
            thread_name_prefix=f"batch-{self.name}",
        )
        self._workers = [
            asyncio.ensure_future(self._worker())
            for _ in range(self.n_workers)
        ]
        return self

    async def close(self, drain=False, drain_timeout_s=5.0):
        """Stop the batcher; optionally flush in-flight work first.

        ``drain=False`` (default) cancels the workers immediately and
        fails every still-queued request.  ``drain=True`` first waits —
        up to ``drain_timeout_s`` — for the queue to empty and running
        batches to complete, so accepted requests get real answers
        (the service's graceful-stop path); whatever is still pending
        when the budget runs out is failed as in the immediate path.

        Returns
        -------
        dict
            ``{"drained": bool, "failed_queued": int}`` — whether the
            flush completed in budget and how many queued requests were
            failed without an answer.
        """
        report = {"drained": not drain, "failed_queued": 0}
        if drain and self._queue is not None:
            loop = asyncio.get_running_loop()
            deadline = loop.time() + float(drain_timeout_s)
            while self._queue.qsize() or self._inflight:
                if loop.time() >= deadline:
                    break
                await asyncio.sleep(0.005)
            else:
                report["drained"] = True
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers = []
        if self._queue is not None:
            while not self._queue.empty():
                _, fut, _ = self._queue.get_nowait()
                if not fut.done():
                    report["failed_queued"] += 1
                    fut.set_exception(
                        RuntimeError(f"batcher {self.name!r} closed")
                    )
            self._queue = None
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None
        return report

    # -- request path --------------------------------------------------------

    async def submit(self, rows, deadline=None):
        """Enqueue one request's row block; await its label array.

        ``deadline`` (a :class:`~repro.resilience.Deadline` or None)
        rides along with the entry; if it expires while the request is
        still queued, the worker fails it with
        :class:`~repro.resilience.DeadlineExceeded` instead of spending
        a batch slot on it.
        """
        if self._queue is None:
            await self.start()
        fut = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((rows, fut, deadline))
        return await fut

    @property
    def queue_depth(self):
        return 0 if self._queue is None else self._queue.qsize()

    def stats(self):
        coalesced = self._n_requests - self._n_batches
        return {
            "requests": self._n_requests,
            "batches": self._n_batches,
            "coalesced": max(coalesced, 0),
            "mean_batch_size": (
                round(self._n_requests / self._n_batches, 3)
                if self._n_batches else None
            ),
            "histogram": {
                str(size): count
                for size, count in sorted(self._histogram.items())
            },
            "max_batch_size": self.max_batch_size,
            "queue_depth": self.queue_depth,
            "expired": self._n_expired,
            "batch_errors": self._n_batch_errors,
        }

    # -- worker side ---------------------------------------------------------

    def _drop_expired(self, batch):
        """Fail entries whose deadline lapsed while queued; keep the rest."""
        from ..resilience.policy import DeadlineExceeded

        live = []
        for entry in batch:
            _, fut, deadline = entry
            if deadline is not None and deadline.expired:
                self._n_expired += 1
                if not fut.done():
                    fut.set_exception(DeadlineExceeded(
                        f"request expired in {self.name!r} queue"
                    ))
                continue
            live.append(entry)
        return live

    async def _worker(self):
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.max_batch_size and self._queue.qsize():
                batch.append(self._queue.get_nowait())
            batch = self._drop_expired(batch)
            if not batch:
                continue
            self._inflight += 1
            try:
                await self._run_batch(loop, batch)
            finally:
                self._inflight -= 1

    async def _run_batch(self, loop, batch):
        # one pass per row width: a block of another width would fail
        # the stack it joins, so it runs (and fails) on its own
        by_width = {}
        for entry in batch:
            width = getattr(entry[0], "shape", ())[1:]
            by_width.setdefault(width, []).append(entry)
        for group in by_width.values():
            await self._run_pass(loop, group)

    async def _run_pass(self, loop, batch):
        chunks = [rows for rows, _, _ in batch]
        try:
            # chaos site: an injected raise lands in the same handler
            # as an organic predict failure — only this batch's waiters
            # fail, the worker loop survives.  (A delay fault blocks
            # the loop briefly, modelling an event-loop stall.)
            inject("batcher.predict")
            outputs = await loop.run_in_executor(
                self._pool, self.predict_batch, chunks,
            )
            if len(outputs) != len(batch):
                raise RuntimeError(
                    f"predict_batch returned {len(outputs)} blocks for "
                    f"{len(batch)} requests"
                )
        except Exception as exc:
            self._n_batch_errors += 1
            for _, fut, _ in batch:
                if not fut.done():
                    fut.set_exception(exc)
            return
        self._n_requests += len(batch)
        self._n_batches += 1
        self._histogram[len(batch)] = self._histogram.get(len(batch), 0) + 1
        for (_, fut, _), out in zip(batch, outputs):
            if not fut.done():
                fut.set_result(out)

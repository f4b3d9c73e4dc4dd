"""The asyncio HTTP front end: fairness-as-a-service.

A :class:`FairnessService` owns a :class:`~repro.serving.registry.
ModelRegistry`, one :class:`~repro.serving.batcher.MicroBatcher` per
served model, and a table of background retune jobs.  The transport is a
minimal HTTP/1.1 layer over ``asyncio.start_server`` (keep-alive,
JSON bodies, no dependencies) — enough for the stdlib ``http.client``
side in :mod:`~repro.serving.client` and any curl.

Endpoints
---------
``POST /predict``
    ``{"model": name, "rows": [[...], ...]}`` → hard labels.  Requests
    for the same model coalesce through the micro-batcher: each pass
    starts as soon as a worker is free and takes whatever queued during
    the previous pass, as one :meth:`FairModel.predict_batch` call
    (bit-identical to per-request ``predict``).
``POST /audit``
    ``{"model": name, "dataset": "adult"|"scenario:...", "n": ..,
    "seed": ..}`` or inline ``{"data": {"X": .., "y": ..,
    "sensitive": ..}}`` → the full audit dict.
``POST /retune``
    ``{"spec": .., "dataset": .., "estimator": "NB", "name": ..,
    "strategy": .., "options": {..}}`` → ``{"job_id": ..}``.  The solve
    runs **off the request path** on a worker thread
    (:func:`~repro.core.executor.submit_job`); canonically-equivalent
    requests on the same data, with the same estimator, strategy and
    options, hit the registry instead of re-solving.
    ``options`` carries strategy knobs only (``tau``, ``grid_steps``,
    ...); any other key answers 400 before an engine is built.
``POST /update``
    The incremental engine's front door.  The first call for a model
    seeds an :class:`~repro.incremental.IncrementalAuditor` from a
    ``base`` dataset spec; subsequent calls carry ``append`` (inline
    rows) and/or ``retire`` (row ids) deltas, are audited in O(batch)
    via exact count maintenance, and answer with the updated audit —
    disparities, accuracy, max-violation, and the delta-chained
    fingerprint.  When the updated max-violation breaches the drift
    ``tolerance``, a **warm** λ re-search is submitted as a background
    job (seeded from the deployed model's fitted λ) and the refit model
    replaces the served one under the same name.
``GET /jobs/<id>``
    Poll a retune job (status / result / error / timeout / cancelled).
``GET /models`` / ``GET /healthz`` / ``GET /stats``
    Registry rows; liveness; queue depth, admission counts, per-route
    counts (known routes plus ``other``), batch-size histograms,
    registry/dedup hit counters, job table, breaker states,
    shed/deadline counters, fault-plan schedule.

Resilience semantics (see ``docs/resilience.md``):

* ``POST /predict`` takes an optional ``timeout_ms``; the minted
  :class:`~repro.resilience.Deadline` propagates into the micro-batcher
  (queued entries past their budget are dropped) and an expired request
  answers **504** instead of occupying a batch slot.
* Admission is bounded: more than ``max_inflight`` concurrent predicts
  or ``max_jobs`` active retunes sheds with **429** + ``Retry-After``
  instead of queueing doomed work.
* Each retune target has a circuit breaker: consecutive failed solves
  open it and further retunes answer **503** ``{"state": "open"}``
  until a half-open probe succeeds.
* ``stop()`` drains: the socket closes first, batchers flush in-flight
  batches, and still-pending jobs are cancelled to a terminal status.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import itertools
import json
import math
import threading
import time
import warnings

import numpy as np

from ..api import Engine, Problem
from ..core.exceptions import (
    InfeasibleConstraintError,
    OmniFairError,
    SpecificationError,
)
from ..core.executor import JOB_TERMINAL, submit_job
from ..core.strategies import check_option_names, get_strategy, resolve_strategy_name
from ..datasets import load
from ..datasets.schema import Dataset
from ..incremental import DriftPolicy, IncrementalAuditor, warm_retune
from ..ml.adapters import resolve_model
from ..ml.base import check_binary_labels
from ..resilience.faults import current_plan, inject
from ..resilience.policy import BreakerBoard, Deadline, DeadlineExceeded
from .batcher import MicroBatcher
from .registry import SOLVER_METADATA, ModelRegistry, solver_key

__all__ = ["FairnessService", "ServerHandle", "serve_in_thread"]

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Content Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: every route the service answers; ``/stats`` counts any other
#: method/path pair under ``other``, so clients cannot grow its keys
_ROUTES = frozenset({
    "GET /healthz", "GET /models", "GET /stats", "GET /jobs/*",
    "POST /predict", "POST /audit", "POST /retune", "POST /update",
})
_PATHS = frozenset(route.split(" ")[1] for route in _ROUTES)

#: bound on inline payload sizes (rows × features) — a serving layer
#: should reject absurd requests instead of allocating for them
MAX_BODY_BYTES = 64 * 1024 * 1024

#: header lines one request may carry
MAX_HEADER_LINES = 100

#: the longest ``timeout_ms`` a job's timer thread can wait
MAX_TIMEOUT_MS = threading.TIMEOUT_MAX * 1e3


def _jsonable(obj):
    """Recursively convert numpy scalars/arrays for json.dumps."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


class _BadRequest(SpecificationError):
    """Client-side request error → HTTP 400."""


class _FramingError(Exception):
    """Bytes that cannot be framed as a request → one answer, then close."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status


async def _read_line(reader):
    try:
        return await reader.readline()
    except ValueError as exc:  # the line overran the reader's limit
        raise _FramingError(431, "request line or header too long") from exc


async def _discard_input(reader, writer):
    """Half-close, then drop client input until EOF, for at most 1 s.

    Closing with unread input resets the connection, which can destroy
    the last response before the client reads it.
    """
    async def drain():
        while await reader.read(65536):
            pass

    writer.write_eof()
    try:
        await asyncio.wait_for(drain(), 1.0)
    except (asyncio.TimeoutError, ConnectionError):
        pass


class _Shed(Exception):
    """Admission bound exceeded → HTTP 429 with a Retry-After hint."""

    def __init__(self, what, retry_after_s=0.1):
        super().__init__(what)
        self.what = what
        self.retry_after_s = float(retry_after_s)


class _BreakerOpen(Exception):
    """Per-model circuit breaker is open → HTTP 503."""

    def __init__(self, name, retry_after_s):
        super().__init__(name)
        self.name = name
        self.retry_after_s = float(retry_after_s)


def _is_finite_number(value):
    """Whether a JSON value is a finite number (a bool is not one)."""
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _timeout_ms(body):
    """A request's ``timeout_ms``: ``None``, or a number in
    ``(0, MAX_TIMEOUT_MS]`` (a bool is not one)."""
    timeout_ms = body.get("timeout_ms")
    if timeout_ms is not None and not (
        _is_finite_number(timeout_ms) and 0 < timeout_ms <= MAX_TIMEOUT_MS
    ):
        raise _BadRequest(
            f"timeout_ms must be a number in (0, {MAX_TIMEOUT_MS:g}], "
            f"got {timeout_ms!r}"
        )
    return timeout_ms


def _dataset_size_and_seed(body):
    """A named-dataset request's ``(n, seed)``: ``n`` absent, ``null``
    or a JSON integer >= 1, ``seed`` absent or a JSON integer >= 0 (a
    bool is neither).  Shared by ``/audit``, ``/retune`` and
    ``/update``'s ``base``, so a bad value is a 400 before any job,
    auditor or breaker state exists."""
    n = body.get("n")
    if n is not None and not (type(n) is int and n >= 1):
        raise _BadRequest(f"n must be a JSON integer >= 1, got {n!r}")
    seed = body.get("seed", 0)
    if not (type(seed) is int and seed >= 0):
        raise _BadRequest(f"seed must be a JSON integer >= 0, got {seed!r}")
    return n, seed


def _already_seeded(name):
    return _BadRequest(
        f"auditor for model {name!r} is already seeded; send "
        f"append/retire deltas without 'base'"
    )


def _require(body, key, kind=None):
    if key not in body:
        raise _BadRequest(f"request body is missing required key {key!r}")
    value = body[key]
    if kind is not None and not isinstance(value, kind):
        raise _BadRequest(
            f"request key {key!r} must be {kind.__name__}, got "
            f"{type(value).__name__}"
        )
    return value


class FairnessService:
    """Serving state + HTTP dispatch (transport-agnostic core).

    Parameters
    ----------
    registry : ModelRegistry or None
        Model ownership; a fresh in-memory registry by default.
    max_batch_size, n_workers
        Micro-batcher knobs, applied per model.  ``max_batch_size=1``
        runs every predict on its own pass through the identical
        pipeline, without coalescing (the benchmark's off arm), and
        ``/healthz`` and ``/stats`` then report batching off.
    store_dir : path-like or None
        Root of the persistent cross-run cache
        (:class:`~repro.store.CacheStore`).  Every retune Engine shares
        this one store, so fits and evaluations survive both across
        retune jobs and across server restarts.  The registry's spool
        files and the store's blob tree coexist in the same directory.
    max_inflight : int
        Concurrent ``POST /predict`` admission bound; request
        ``max_inflight + 1`` sheds with 429 + ``Retry-After`` instead
        of queueing (counted under ``shed_predict``).
    max_jobs : int
        Active (pending + running) retune job bound; excess ``POST
        /retune`` requests shed with 429 (``shed_retune``).
    breaker_threshold, breaker_cooldown_s
        Per-model retune circuit breakers: ``breaker_threshold``
        consecutive failed/timed-out solves open a model's breaker
        (503 until ``breaker_cooldown_s`` admits a half-open probe).
    """

    def __init__(self, registry=None, *, max_batch_size=32,
                 n_workers=1, store_dir=None, max_inflight=256, max_jobs=32,
                 breaker_threshold=5, breaker_cooldown_s=30.0):
        for knob, value in (("max_batch_size", max_batch_size),
                            ("n_workers", n_workers),
                            ("max_inflight", max_inflight)):
            if int(value) < 1:
                raise SpecificationError(f"{knob} must be >= 1, got {value}")
        if int(max_jobs) < 0:
            raise SpecificationError(
                f"max_jobs must be >= 0, got {max_jobs}"
            )
        self.registry = registry if registry is not None else ModelRegistry()
        self.store = None
        if store_dir is not None:
            from ..store import CacheStore

            self.store = CacheStore(store_dir)
        self.max_batch_size = int(max_batch_size)
        self.n_workers = int(n_workers)
        self.max_inflight = int(max_inflight)
        self.max_jobs = int(max_jobs)
        self.breakers = BreakerBoard(
            threshold=breaker_threshold, cooldown_s=breaker_cooldown_s,
        )
        self._inflight = 0  # event-loop only: concurrent predicts
        self._batchers = {}
        self._jobs = {}
        self._job_ids = itertools.count(1)
        self._auditors = {}  # event-loop only: name -> auditor entry
        self._counter_lock = threading.Lock()
        self._counters = {
            "admitted": 0, "completed": 0, "errors": 0,
            "solves": 0, "retune_registry_hits": 0,
            "shed_predict": 0, "shed_retune": 0, "deadline_expired": 0,
            "breaker_rejected": 0, "retune_failures": 0,
            "updates": 0, "update_rows": 0, "drift_retunes": 0,
        }
        self._routes = {}
        self._started_at = time.time()
        self._server = None
        self._closing = None
        self.host = None
        self.port = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host="127.0.0.1", port=0):
        """Bind the listening socket; returns the actual port."""
        self._closing = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.port

    async def serve_until_stopped(self):
        """Block until :meth:`stop` (the thread/CLI runner's body)."""
        await self._closing.wait()

    async def stop(self, drain_timeout_s=5.0):
        """Graceful drain: stop accepting, flush, fail what remains.

        In order: (1) close the listening socket so no new connection
        is accepted; (2) drain every batcher — queued and in-flight
        batches get real answers, bounded by ``drain_timeout_s``;
        (3) cancel retune jobs that are not yet terminal, so pollers
        (and the job table) see ``cancelled`` rather than a job frozen
        in ``running`` forever.

        Returns
        -------
        dict
            Drain report: per-batcher flush outcomes, number of jobs
            cancelled, and an overall ``drained`` flag.
        """
        report = {"drained": True, "batchers": {}, "cancelled_jobs": 0}
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for name, batcher in self._batchers.items():
            flush = await batcher.close(
                drain=True, drain_timeout_s=drain_timeout_s,
            )
            report["batchers"][name] = flush
            report["drained"] = report["drained"] and flush["drained"]
        self._batchers = {}
        for handle, _meta in self._jobs.values():
            if handle.status not in JOB_TERMINAL and handle.cancel():
                report["cancelled_jobs"] += 1
        if self._closing is not None:
            self._closing.set()
        return report

    # -- transport -----------------------------------------------------------

    async def _handle_connection(self, reader, writer):
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _FramingError as exc:
                    # the stream cannot be re-synchronised: answer, close
                    self._count("admitted")
                    await self._respond(
                        writer, exc.status, {"error": str(exc)}, {},
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                self._count("admitted")
                status, payload, extra = await self._dispatch(
                    method, path, body,
                )
                keep_alive = headers.get("connection", "").lower() != "close"
                await self._respond(writer, status, payload, extra, keep_alive)
                if not keep_alive:
                    break
            await _discard_input(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        except asyncio.CancelledError:
            pass  # service shutdown with the connection parked on readline
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, writer, status, payload, extra, keep_alive):
        data = json.dumps(_jsonable(payload)).encode()
        extra_lines = "".join(
            f"{key}: {value}\r\n" for key, value in extra.items()
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"{extra_lines}"
            f"Connection: {'keep-alive' if keep_alive else 'close'}"
            f"\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + data)
        await writer.drain()
        self._count("completed" if status < 400 else "errors")

    @staticmethod
    async def _read_request(reader):
        """One request off the stream, or None at its end.

        Raises :class:`_FramingError` (answered with ``Connection:
        close``): 400 for a malformed request line or a
        ``Content-Length`` that is not one plain decimal, 431 for a line
        over the reader's limit or more than :data:`MAX_HEADER_LINES`
        header lines, 413 for a body over :data:`MAX_BODY_BYTES`, 501
        for any ``Transfer-Encoding``.
        """
        line = await _read_line(reader)
        if not line or not line.strip():
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            raise _FramingError(400, "malformed request line")
        method, path = parts[0].upper(), parts[1]
        headers = {}
        for _ in range(MAX_HEADER_LINES + 1):
            raw = await _read_line(reader)
            if raw in (b"\r\n", b"\n", b""):
                break
            key, _, value = raw.decode("latin-1").partition(":")
            key, value = key.strip().lower(), value.strip()
            if key == "content-length" and headers.get(key, value) != value:
                raise _FramingError(400, "conflicting Content-Length headers")
            headers[key] = value
        else:
            raise _FramingError(
                431, f"more than {MAX_HEADER_LINES} header lines",
            )
        if "transfer-encoding" in headers:
            raise _FramingError(501, "Transfer-Encoding is not supported")
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            raise _FramingError(400, f"non-decimal Content-Length {length!r}")
        length = length.lstrip("0") or "0"
        # count digits first: int() refuses absurdly long strings
        too_long = len(length) > len(str(MAX_BODY_BYTES))
        if too_long or int(length) > MAX_BODY_BYTES:
            raise _FramingError(413, f"body over {MAX_BODY_BYTES} bytes")
        return method, path, headers, await reader.readexactly(int(length))

    # -- dispatch ------------------------------------------------------------

    async def _dispatch(self, method, path, raw_body):
        """Route one request; returns ``(status, payload, headers)``.

        Degradation statuses map 1:1 to resilience policies: 429 for
        admission sheds (with ``Retry-After``), 503 for an open
        circuit breaker, 504 for a spent deadline.  The generic
        ``Exception`` arm keeps every failure — organic or injected at
        the ``service.dispatch`` fault site — inside the connection
        loop.
        """
        target = "/jobs/*" if path.startswith("/jobs/") else path
        route = f"{method} {target}"
        label = route if route in _ROUTES else "other"
        self._routes[label] = self._routes.get(label, 0) + 1
        try:
            inject("service.dispatch")
            body = {}
            if raw_body:
                try:
                    body = json.loads(raw_body)
                except ValueError as exc:
                    raise _BadRequest(f"request body is not JSON: {exc}")
                if not isinstance(body, dict):
                    raise _BadRequest("request body must be a JSON object")
            if route == "GET /healthz":
                return 200, self._healthz(), {}
            if route == "GET /models":
                return 200, {"models": self.registry.describe()}, {}
            if route == "GET /stats":
                return 200, self._stats(), {}
            if route == "GET /jobs/*":
                return 200, self._job_status(path[len("/jobs/"):]), {}
            if route == "POST /predict":
                return 200, await self._predict(body), {}
            if route == "POST /audit":
                return 200, await self._audit(body), {}
            if route == "POST /retune":
                return 200, self._retune(body), {}
            if route == "POST /update":
                return 200, await self._update(body), {}
            if target in _PATHS:
                return 405, {"error": f"{method} not allowed on {path}"}, {}
            return 404, {"error": f"no route {method} {path}"}, {}
        except KeyError as exc:
            return 404, {"error": str(exc.args[0] if exc.args else exc)}, {}
        except _BadRequest as exc:
            return 400, {"error": str(exc)}, {}
        except _Shed as exc:
            retry_after = max(exc.retry_after_s, 0.001)
            return (
                429,
                {"error": f"overloaded: {exc.what}", "shed": True,
                 "retry_after_s": retry_after},
                {"Retry-After": f"{retry_after:.3f}"},
            )
        except _BreakerOpen as exc:
            return (
                503,
                {"error": f"retune breaker open for model {exc.name!r}",
                 "state": "open", "model": exc.name,
                 "retry_after_s": exc.retry_after_s},
                {"Retry-After": f"{max(exc.retry_after_s, 0.001):.3f}"},
            )
        except DeadlineExceeded as exc:
            return 504, {"error": str(exc), "deadline_exceeded": True}, {}
        except (SpecificationError, ValueError, TypeError) as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}, {}
        except Exception as exc:  # never kill the connection loop
            return 500, {"error": f"{type(exc).__name__}: {exc}"}, {}

    # -- endpoint bodies -----------------------------------------------------

    def _healthz(self):
        return {
            "ok": True,
            "models": len(self.registry),
            "uptime_s": round(time.time() - self._started_at, 3),
            "batching": self.max_batch_size > 1,
        }

    def _stats(self):
        with self._counter_lock:
            counters = dict(self._counters)
        jobs = {}
        for handle, _meta in self._jobs.values():
            jobs[handle.status] = jobs.get(handle.status, 0) + 1
        batchers = {
            name: batcher.stats() for name, batcher in self._batchers.items()
        }
        return {
            "uptime_s": round(time.time() - self._started_at, 3),
            "admission": counters,
            "routes": dict(self._routes),
            "queue_depth": sum(b.queue_depth for b in self._batchers.values()),
            "batching": {
                "enabled": self.max_batch_size > 1,
                "max_batch_size": self.max_batch_size,
                "per_model": batchers,
            },
            "registry": self.registry.stats(),
            "store": None if self.store is None else self.store.stats(),
            "jobs": {"total": len(self._jobs), "by_status": jobs},
            "incremental": {
                name: {
                    "n_live": entry["auditor"].n_live,
                    "n_total": entry["auditor"].n_total,
                    "n_updates": entry["auditor"].n_updates,
                    "fingerprint": entry["auditor"].fingerprint,
                    "tolerance": entry["policy"].tolerance,
                }
                for name, entry in self._auditors.items()
            },
            "resilience": {
                "inflight": self._inflight,
                "max_inflight": self.max_inflight,
                "max_jobs": self.max_jobs,
                "breakers": self.breakers.stats(),
                "faults": (
                    None if current_plan() is None
                    else current_plan().stats()
                ),
            },
        }

    def _batcher_for(self, name):
        batcher = self._batchers.get(name)
        if batcher is None:
            # resolve through the registry at call time, so eviction /
            # reload / re-registration take effect on in-flight traffic
            def predict_chunks(chunks, _name=name):
                return self.registry.get(_name).predict_batch(chunks)

            batcher = MicroBatcher(
                predict_chunks,
                max_batch_size=self.max_batch_size,
                n_workers=self.n_workers,
                name=name,
            )
            self._batchers[name] = batcher
        return batcher

    async def _predict(self, body):
        name = _require(body, "model", str)
        rows = _require(body, "rows", list)
        if not rows:
            raise _BadRequest("rows must be a non-empty list of rows")
        timeout_ms = _timeout_ms(body)
        deadline = None if timeout_ms is None else Deadline.after_ms(
            timeout_ms
        )
        if self._inflight >= self.max_inflight:
            # shed instead of queueing work the client will give up on;
            # Retry-After scales with how deep the backlog runs
            self._count("shed_predict")
            raise _Shed(
                f"{self._inflight} predicts in flight "
                f"(max_inflight={self.max_inflight})",
                retry_after_s=0.05 * max(
                    self._inflight / self.max_inflight, 1.0,
                ),
            )
        self.registry.get(name)  # 404 before enqueueing
        X = np.asarray(rows, dtype=np.float64)
        if X.ndim != 2:
            raise _BadRequest(
                f"rows must be a list of equal-length feature rows; got "
                f"shape {X.shape}"
            )
        self._inflight += 1
        try:
            submit = self._batcher_for(name).submit(X, deadline=deadline)
            if deadline is None:
                labels = await submit
            else:
                try:
                    labels = await asyncio.wait_for(
                        submit, max(deadline.remaining(), 0.0),
                    )
                except (DeadlineExceeded, asyncio.TimeoutError) as exc:
                    self._count("deadline_expired")
                    if isinstance(exc, DeadlineExceeded):
                        raise
                    raise DeadlineExceeded(
                        f"predict on {name!r} missed its "
                        f"{float(timeout_ms):g}ms budget"
                    ) from exc
        finally:
            self._inflight -= 1
        return {
            "model": name,
            "n_rows": len(labels),
            "predictions": labels,
        }

    async def _audit(self, body):
        name = _require(body, "model", str)
        model = self.registry.get(name)
        dataset = await self._resolve_dataset(body, what="audit")
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(None, model.audit, dataset)
        return {
            "model": name,
            "dataset": dataset.name,
            "n_rows": len(dataset),
            "audit": report,
        }

    @staticmethod
    async def _resolve_dataset(body, what):
        """The request's inline ``data``, or its named ``dataset``.

        The arguments are checked on the event loop, so a bad one is a
        400 before any work; a named dataset is then generated on the
        executor, and every other request is served while it builds.
        """
        if "data" in body:
            data = _require(body, "data", dict)
            try:
                return Dataset(
                    name=str(data.get("name", f"inline-{what}")),
                    X=np.asarray(_require(data, "X", list), dtype=np.float64),
                    y=check_binary_labels(_require(data, "y", list)),
                    sensitive=np.asarray(_require(data, "sensitive", list)),
                )
            except ValueError as exc:
                raise _BadRequest(f"bad inline dataset: {exc}") from exc
        name = _require(body, "dataset", str)
        n, seed = _dataset_size_and_seed(body)
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                None, functools.partial(load, name, n=n, seed=seed),
            )
        except KeyError as exc:
            raise _BadRequest(str(exc.args[0])) from exc

    def _retune(self, body):
        spec = _require(body, "spec", str)
        Problem(spec)  # fail fast (400) on an unparseable spec
        estimator = body.get("estimator", "NB")
        try:
            resolved = resolve_model(estimator)  # fail fast if unknown
        except (KeyError, ImportError) as exc:
            raise _BadRequest(
                str(exc.args[0] if exc.args else exc)
            ) from exc
        n, seed = _dataset_size_and_seed(body)
        dataset_args = {
            "dataset": _require(body, "dataset", str), "n": n, "seed": seed,
        }
        strategy = body.get("strategy", "auto")
        options = body.get("options") or {}
        if not isinstance(options, dict):
            raise _BadRequest("options must be a JSON object")
        # the client's options reach Engine(**options): only strategy
        # knobs may pass, never constructor parameters like store_dir
        check_option_names(options)
        timeout_ms = _timeout_ms(body)
        # construct the Engine eagerly so bad strategies / options come
        # back as a 400 now, not a failed job later
        engine = Engine(strategy, store=self.store, **options)
        name = body.get("name") or f"retune-{next(self._job_ids)}"
        active = sum(
            1 for handle, _meta in self._jobs.values()
            if handle.status not in JOB_TERMINAL
        )
        if active >= self.max_jobs:
            self._count("shed_retune")
            raise _Shed(
                f"{active} retune jobs active (max_jobs={self.max_jobs})",
                retry_after_s=1.0,
            )
        # the breaker gate runs last: every earlier exit is a 4xx that
        # never consumed the half-open probe slot
        breaker = self.breakers.get(name)
        if not breaker.allow():
            self._count("breaker_rejected")
            raise _BreakerOpen(name, breaker.retry_after_s())

        handle = submit_job(
            self._run_retune, name, spec, resolved, dataset_args, engine,
            name=f"retune-{name}",
            timeout_s=None if timeout_ms is None else timeout_ms / 1e3,
            on_done=functools.partial(self._feed_breaker, breaker),
        )
        self._jobs[str(handle.id)] = (handle, {"model": name, "spec": spec})
        return {"job_id": str(handle.id), "status": handle.status,
                "model": name}

    def _feed_breaker(self, breaker, handle):
        """``on_done`` of both retune paths: a finished job feeds the
        breaker of the model it retuned.

        An infeasible spec ran the solver to completion, and a
        :class:`SpecificationError` refused the request's own spec,
        data or options (a grouping with too few rows, say): the
        request failed, not the model, so both count as a success, like
        ``done``.  Any other error (an unknown dataset name among them)
        and a timeout are failures; a cancel says nothing about the
        model's health.
        """
        if handle.status == "done" or isinstance(
            handle.error, (InfeasibleConstraintError, SpecificationError)
        ):
            breaker.record_success()
        elif handle.status in ("error", "timeout"):
            breaker.record_failure()
            self._count("retune_failures")

    def _run_retune(self, name, spec, estimator, dataset_args, engine):
        """Worker-thread body: dedup through the registry, else solve.

        A hit needs a model the same solver tuned: the
        :func:`solver_key` of the strategy as it will run (``"auto"``
        resolved on the bound constraint count) and its validated
        config.  A solver without a key never dedups.
        """
        data = load(
            dataset_args["dataset"], n=dataset_args["n"],
            seed=dataset_args["seed"],
        )
        problem = Problem(spec)
        strategy = resolve_strategy_name(
            engine.strategy, len(problem.bind(data)),
        )
        solver = solver_key(
            estimator, strategy,
            get_strategy(strategy).make_config(engine.options),
        )
        fingerprint = data.fingerprint()
        hit = None if solver is None else self.registry.lookup(
            spec, fingerprint, solver,
        )
        if hit is not None:
            self._count("retune_registry_hits")
            return {
                "registry_hit": True,
                "model": hit,
                "solves": 0,
                "spec_canonical": problem.canonical(),
            }
        fair = engine.solve(
            problem, estimator, data, seed=dataset_args["seed"],
        )
        if solver is not None:
            fair.metadata[SOLVER_METADATA] = solver
        self.registry.register(
            name, fair, dataset_fingerprint=fingerprint, source="retune",
        )
        self._count("solves")
        return {
            "registry_hit": False,
            "model": name,
            "solves": 1,
            "spec_canonical": fair.spec_canonical(),
            "feasible": fair.report.feasible,
            "lambdas": fair.report.lambdas,
            "n_fits": fair.report.n_fits,
        }

    async def _update(self, body):
        """Apply an append/retire delta and answer the updated audit.

        The first call for a model must carry ``base`` (a dataset spec
        or inline data) to seed the auditor; later calls must not.
        Count maintenance runs on a worker thread under the model's
        auditor lock, so updates serialize against a concurrent drift
        retune but never block the event loop.  A triggered retune is
        reported in the response, not awaited — poll its job id.
        """
        name = _require(body, "model", str)
        model = self.registry.get(name)  # 404 before any state change
        # the whole body is validated before the first delta: a refused
        # request changes nothing, so a client may fix it and resend
        tolerance = body.get("tolerance")
        if tolerance is not None and not _is_finite_number(tolerance):
            raise _BadRequest(
                f"tolerance must be a finite number, got {tolerance!r}"
            )
        append = body.get("append")
        retire = body.get("retire")
        if append is not None and not isinstance(append, dict):
            raise _BadRequest("'append' must be {\"X\": .., \"y\": .., "
                              "\"sensitive\": ..}")
        if retire is not None:
            if not isinstance(retire, list):
                raise _BadRequest("'retire' must be a list of row ids")
            bad = [i for i in retire if type(i) is not int][:3]
            if bad:
                raise _BadRequest(
                    f"'retire' row ids must be JSON integers, got {bad!r}"
                )
        loop = asyncio.get_running_loop()
        entry = self._auditors.get(name)
        if entry is None:
            base = body.get("base")
            if not isinstance(base, dict):
                raise _BadRequest(
                    f"no auditor for model {name!r} yet; the first "
                    f"/update must carry 'base' (a dataset spec or "
                    f"inline data) to seed it"
                )
            dataset = await self._resolve_dataset(base, what="update-base")
            auditor = await loop.run_in_executor(
                None, IncrementalAuditor, model.specs, model, dataset,
            )
            if name in self._auditors:   # a concurrent seed came first
                raise _already_seeded(name)
            entry = {
                "auditor": auditor,
                "policy": DriftPolicy(
                    tolerance=0.0 if tolerance is None else float(tolerance)
                ),
                "lock": threading.Lock(),
            }
            self._auditors[name] = entry
        elif "base" in body:
            raise _already_seeded(name)

        def _apply():
            auditor = entry["auditor"]
            with entry["lock"]:
                ops, rows = [], 0
                snapshot = auditor.audit()
                if append is not None:
                    X = np.asarray(
                        _require(append, "X", list), dtype=np.float64,
                    )
                    y = np.asarray(_require(append, "y", list))
                    sensitive = np.asarray(_require(append, "sensitive", list))
                if retire is not None:
                    # checked before the append lands; appended rows
                    # continue the id numbering
                    retire_ids = auditor.check_retire(
                        retire, appended=0 if append is None else len(X),
                    )
                if append is not None:
                    snapshot = auditor.append_rows(
                        X=X, y=y, sensitive=sensitive,
                        extras=append.get("extras"),
                    )
                    ops.append("append")
                    rows += len(X)
                if retire is not None:
                    snapshot = auditor.retire_rows(retire_ids)
                    ops.append("retire")
                    rows += len(retire)
                return snapshot, ops, rows

        snapshot, ops, rows = await loop.run_in_executor(None, _apply)
        if tolerance is not None:
            entry["policy"].tolerance = float(tolerance)
        with self._counter_lock:
            self._counters["updates"] += 1
            self._counters["update_rows"] += rows
        retune = {"triggered": False}
        policy = entry["policy"]
        if policy.should_retune(snapshot):
            if body.get("retune", True):
                retune = self._submit_drift_retune(name, entry, body)
                if retune["triggered"]:
                    policy.note_retune(snapshot)
            else:
                retune = {"triggered": False, "reason": "disabled"}
            retune["max_violation"] = snapshot["max_violation"]
            retune["tolerance"] = policy.tolerance
        return {
            "model": name,
            "ops": ops,
            "rows": rows,
            "audit": snapshot,
            "retune": retune,
        }

    def _submit_drift_retune(self, name, entry, body):
        """Queue a warm λ re-search; degrade to a reported reason.

        Unlike ``POST /retune``, the update that got us here has
        already been applied — shedding or an open breaker must not
        fail the request, so both come back as ``triggered: False``
        with a reason instead of a 429/503.
        """
        estimator = body.get("estimator")
        if estimator is not None:
            try:
                estimator = resolve_model(estimator)
            except (KeyError, ImportError) as exc:
                raise _BadRequest(
                    str(exc.args[0] if exc.args else exc)
                ) from exc
        active = sum(
            1 for handle, _meta in self._jobs.values()
            if handle.status not in JOB_TERMINAL
        )
        if active >= self.max_jobs:
            self._count("shed_retune")
            return {
                "triggered": False,
                "reason": f"shed: {active} jobs active "
                          f"(max_jobs={self.max_jobs})",
            }
        breaker = self.breakers.get(name)
        if not breaker.allow():
            self._count("breaker_rejected")
            return {
                "triggered": False,
                "reason": "breaker open",
                "retry_after_s": breaker.retry_after_s(),
            }

        handle = submit_job(
            self._run_drift_retune, name, entry, estimator,
            name=f"drift-retune-{name}",
            on_done=functools.partial(self._feed_breaker, breaker),
        )
        self._jobs[str(handle.id)] = (
            handle, {"model": name, "spec": "drift-retune"},
        )
        self._count("drift_retunes")
        return {
            "triggered": True,
            "job_id": str(handle.id),
            "status": handle.status,
        }

    def _run_drift_retune(self, name, entry, estimator):
        """Worker-thread body: warm re-search on the auditor's live rows.

        Holds the auditor lock for the whole solve so concurrent
        updates serialize behind a consistent snapshot; on success the
        auditor is rebased onto the refit model and the registry entry
        is replaced under the same name, keyed by the delta-chained
        fingerprint of the update history.
        """
        auditor = entry["auditor"]
        with entry["lock"]:
            fair = warm_retune(auditor, estimator=estimator,
                               store=self.store)
            fingerprint = auditor.fingerprint
            audit = auditor.audit()
        self.registry.register(
            name, fair, dataset_fingerprint=fingerprint,
            source="drift-retune",
        )
        self._count("solves")
        return {
            "model": name,
            "warm": True,
            "n_fits": fair.report.n_fits,
            "lambdas": fair.report.lambdas,
            "feasible": fair.report.feasible,
            "max_violation": audit["max_violation"],
            "dataset_fingerprint": fingerprint,
        }

    def _job_status(self, job_id):
        entry = self._jobs.get(job_id)
        if entry is None:
            raise KeyError(f"no job {job_id!r}; known: {sorted(self._jobs)}")
        handle, meta = entry
        out = handle.describe()
        out.update(meta)
        if handle.status == "done":
            out["result"] = handle.result
        elif handle.status == "error":
            err = handle.error
            if isinstance(err, InfeasibleConstraintError):
                out["infeasible"] = True
        return out

    def _count(self, key):
        with self._counter_lock:
            self._counters[key] += 1


# -- running the service -------------------------------------------------------


class ServerHandle:
    """A service running on a dedicated thread + event loop."""

    def __init__(self, service, thread, loop):
        self.service = service
        self.thread = thread
        self.loop = loop

    @property
    def host(self):
        return self.service.host

    @property
    def port(self):
        return self.service.port

    def stop(self, timeout=10):
        """Stop the service; escalate instead of hanging.

        The happy path awaits the service's graceful drain.  If that
        does not finish within ``timeout`` seconds the coroutine is
        abandoned and every task on the serving loop is cancelled
        (``forced: True`` in the report) — a stop must never wedge the
        caller on a stuck drain.  A worker thread that *still* refuses
        to die is reported under ``unjoined_threads`` rather than
        joined forever.
        """
        report = {"forced": False, "unjoined_threads": []}
        future = asyncio.run_coroutine_threadsafe(
            self.service.stop(), self.loop,
        )
        try:
            drain = future.result(timeout)
            if isinstance(drain, dict):
                report.update(drain)
        except concurrent.futures.TimeoutError:
            report["forced"] = True
            future.cancel()

            def _cancel_all():
                for task in asyncio.all_tasks():
                    task.cancel()

            try:
                self.loop.call_soon_threadsafe(_cancel_all)
            except RuntimeError:
                pass  # loop already closed on its own
        self.thread.join(timeout)
        if self.thread.is_alive():
            report["unjoined_threads"].append(self.thread.name)
            warnings.warn(
                f"serving thread {self.thread.name!r} did not exit "
                f"within {timeout}s of stop(); leaking it as a daemon",
                RuntimeWarning,
                stacklevel=2,
            )
        return report

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def serve_in_thread(service, host="127.0.0.1", port=0, ready_timeout=30):
    """Boot ``service`` on a daemon thread; returns a :class:`ServerHandle`.

    The handle exposes the bound host/port (``port=0`` picks a free one)
    and ``stop()``; it also works as a context manager.  Used by the
    tests and the load-generator benchmark.
    """
    ready = threading.Event()
    box = {}

    def runner():
        async def main():
            try:
                await service.start(host, port)
            except Exception as exc:
                box["error"] = exc
                ready.set()
                return
            box["loop"] = asyncio.get_running_loop()
            ready.set()
            await service.serve_until_stopped()

        try:
            asyncio.run(main())
        except asyncio.CancelledError:
            pass  # forced stop() cancelled the main task

    thread = threading.Thread(target=runner, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(ready_timeout):
        raise OmniFairError("serving thread failed to start in time")
    if "error" in box:
        raise box["error"]
    return ServerHandle(service, thread, box["loop"])

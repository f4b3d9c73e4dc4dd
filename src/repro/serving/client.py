"""Blocking stdlib client for the fairness service.

One :class:`ServingClient` wraps one keep-alive
``http.client.HTTPConnection``; it is **not** thread-safe — give every
load-generator worker its own client, which is also what a real
connection-pooled caller would do.

Transport failures retry under a :class:`~repro.resilience.RetryPolicy`
(capped exponential backoff, full jitter), but only when a retry cannot
duplicate work:

* requests whose *send* failed never reached the server — always safe;
* requests that failed after the send (connection dropped mid-response)
  retry only when the method + path is idempotent: every ``GET``, plus
  ``POST /predict`` and ``POST /audit``, which are pure reads of model
  state.  ``POST /retune`` submits a job, so a lost *response* must
  surface to the caller instead of silently submitting twice.

:meth:`wait_job` polls on the same policy's backoff schedule (no
jitter, so the interval grows monotonically from a tight first probe to
a relaxed steady state) and raises :class:`JobFailedError` when the job
lands on a terminal ``error`` / ``timeout`` / ``cancelled`` status, so
callers cannot mistake a failed retune for a slow one.
"""

from __future__ import annotations

import http.client
import json
import time

import numpy as np

from ..resilience.policy import RetryPolicy

__all__ = ["ServingClient", "ServingError", "JobFailedError"]

#: ``(method, path)`` routes safe to retry after the request was sent
_IDEMPOTENT_POSTS = ("/predict", "/audit")

#: job statuses that will never change again (mirror of the executor's)
_TERMINAL = ("done", "error", "timeout", "cancelled")


class ServingError(Exception):
    """Non-2xx response from the service (carries status + payload)."""

    def __init__(self, status, payload):
        message = payload.get("error") if isinstance(payload, dict) else None
        super().__init__(f"HTTP {status}: {message or payload}")
        self.status = status
        self.payload = payload


class JobFailedError(ServingError):
    """A polled job reached ``error``/``timeout``/``cancelled``."""

    def __init__(self, job_id, status):
        job_status = status.get("status", "error")
        detail = status.get("error") or "no error detail"
        Exception.__init__(
            self, f"job {job_id} finished {job_status}: {detail}",
        )
        self.status = 200  # the *transport* succeeded; the job did not
        self.payload = status
        self.job_id = job_id
        self.job_status = job_status


class ServingClient:
    """Typed wrappers over the service's JSON endpoints.

    Parameters
    ----------
    host, port, timeout
        Socket parameters for the underlying ``HTTPConnection``.
    retry : repro.resilience.RetryPolicy, None, or False
        Transport retry policy.  ``None`` (default) builds a 3-attempt
        policy (base 50 ms, cap 1 s, full jitter); ``False`` disables
        retries entirely.  Tests inject a policy with a seeded RNG for
        deterministic schedules.
    """

    def __init__(self, host="127.0.0.1", port=8000, timeout=30.0,
                 retry=None):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        if retry is None:
            retry = RetryPolicy(max_attempts=3, base_s=0.05, cap_s=1.0)
        self.retry = retry or None
        self._conn = None

    # -- transport -----------------------------------------------------------

    def _connection(self):
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout,
            )
        return self._conn

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _request(self, method, path, payload=None):
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode()
            headers["Content-Type"] = "application/json"
        idempotent = method == "GET" or (
            method == "POST" and path in _IDEMPOTENT_POSTS
        )
        attempts = 1 if self.retry is None else self.retry.max_attempts
        for attempt in range(attempts):
            conn = self._connection()
            sent = False
            try:
                conn.request(method, path, body=body, headers=headers)
                sent = True
                response = conn.getresponse()
                raw = response.read()
            except (http.client.HTTPException, ConnectionError,
                    OSError):
                # the socket is unusable either way; drop it so the
                # next attempt (or next call) dials fresh
                self.close()
                retryable = not sent or idempotent
                if not retryable or attempt + 1 >= attempts:
                    raise
                time.sleep(self.retry.backoff(attempt))
                continue
            data = json.loads(raw) if raw else {}
            if response.status >= 400:
                raise ServingError(response.status, data)
            return data
        raise AssertionError("unreachable")  # pragma: no cover

    # -- endpoints -----------------------------------------------------------

    def healthz(self):
        return self._request("GET", "/healthz")

    def models(self):
        return self._request("GET", "/models")["models"]

    def stats(self):
        return self._request("GET", "/stats")

    def predict(self, model, rows, timeout_ms=None):
        """Hard labels for ``rows`` (list-of-rows or 2-D array).

        ``timeout_ms`` is the server-side deadline: past it the request
        answers 504 (surfaced here as a :class:`ServingError`) instead
        of holding a batch slot.
        """
        rows = np.asarray(rows, dtype=np.float64)
        payload = {"model": model, "rows": rows.tolist()}
        if timeout_ms is not None:
            payload["timeout_ms"] = float(timeout_ms)
        out = self._request("POST", "/predict", payload)
        return np.asarray(out["predictions"], dtype=np.int64)

    def audit(self, model, dataset=None, n=None, seed=0, data=None):
        """Server-side audit on a named dataset or an inline one."""
        payload = {"model": model}
        if data is not None:
            payload["data"] = data
        else:
            payload["dataset"] = dataset
            if n is not None:
                payload["n"] = int(n)
            payload["seed"] = int(seed)
        return self._request("POST", "/audit", payload)

    def retune(self, spec, dataset, *, name=None, estimator="NB", n=None,
               seed=0, strategy="auto", options=None,
               timeout_ms=None):
        """Submit a retune job; returns ``{"job_id": ..., ...}``.

        ``timeout_ms`` bounds the *job's* wall clock server-side: a
        solve still running past it is published as ``timeout`` and its
        eventual result discarded.
        """
        payload = {
            "spec": spec, "dataset": dataset, "estimator": estimator,
            "seed": int(seed), "strategy": strategy,
        }
        if name is not None:
            payload["name"] = name
        if n is not None:
            payload["n"] = int(n)
        if options:
            payload["options"] = options
        if timeout_ms is not None:
            payload["timeout_ms"] = float(timeout_ms)
        return self._request("POST", "/retune", payload)

    def update(self, model, *, base=None, append=None, retire=None,
               tolerance=None, retune=True, estimator=None):
        """Apply an append/retire delta to a model's incremental auditor.

        The first call for ``model`` must carry ``base`` (a dataset
        spec dict like ``{"dataset": "adult", "n": 1000}`` or inline
        ``{"data": {...}}``) to seed the auditor.  ``append`` is a dict
        with ``X``/``y``/``sensitive`` rows; ``retire`` a list of row
        ids.  Returns the updated audit plus the drift-retune decision.
        Not retried after a successful send — an update applies a
        delta, so a lost response must surface rather than double-apply.
        """
        payload = {"model": model}
        if base is not None:
            payload["base"] = base
        if append is not None:
            payload["append"] = {
                key: (
                    {k: np.asarray(v).tolist() for k, v in value.items()}
                    if key == "extras"
                    else np.asarray(value).tolist()
                )
                for key, value in append.items()
            }
        if retire is not None:
            payload["retire"] = np.asarray(retire).tolist()
        if tolerance is not None:
            payload["tolerance"] = float(tolerance)
        if not retune:
            payload["retune"] = False
        if estimator is not None:
            payload["estimator"] = estimator
        return self._request("POST", "/update", payload)

    def job(self, job_id):
        return self._request("GET", f"/jobs/{job_id}")

    def wait_job(self, job_id, timeout=120.0, poll=None):
        """Poll a job to completion; returns the final ``done`` status.

        The poll interval follows ``poll`` (a
        :class:`~repro.resilience.RetryPolicy`; jitter off by default
        so the schedule is monotone: tight early probes for fast jobs,
        relaxed steady-state for slow ones, capped at 1 s).

        Raises
        ------
        JobFailedError
            The job reached ``error``, ``timeout``, or ``cancelled`` —
            with the server-reported error message, so a failed retune
            reads as *what* failed rather than a bare non-done status.
        TimeoutError
            The job is still live after ``timeout`` seconds.
        """
        if poll is None:
            poll = RetryPolicy(
                max_attempts=2, base_s=0.02, cap_s=1.0, jitter=False,
            )
        deadline = time.monotonic() + timeout
        attempt = 0
        while True:
            status = self.job(job_id)
            state = status["status"]
            if state == "done":
                return status
            if state in _TERMINAL:
                raise JobFailedError(job_id, status)
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {state} after {timeout:.0f}s"
                )
            time.sleep(min(
                poll.backoff(attempt), max(deadline - time.monotonic(), 0),
            ))
            attempt += 1

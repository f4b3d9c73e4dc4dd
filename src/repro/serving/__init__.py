"""Fairness-as-a-service: a long-lived serving layer over the Engine.

The library's solving stack (compiled kernels, batched fits, the
ask/tell planner) is process-oriented: every prediction
or audit pays a cold :class:`~repro.api.Engine`.  This package turns it
into a service:

* :mod:`~repro.serving.registry` — a thread-safe :class:`ModelRegistry`
  owning named fitted :class:`~repro.api.FairModel` artifacts with a
  load/save/evict lifecycle (persistence-envelope backed) and
  spec-canonical dedup keys (``SpecSet.canonical() ×
  Dataset.fingerprint()``);
* :mod:`~repro.serving.batcher` — a per-model, work-conserving
  micro-batching queue: each :meth:`FairModel.predict_batch` pass starts
  as soon as a worker is free and takes whatever ``predict`` calls
  queued during the previous pass;
* :mod:`~repro.serving.service` — the asyncio HTTP front end
  (``/predict``, ``/audit``, ``/retune`` + job polling, ``/models``,
  ``/healthz``, ``/stats``);
* :mod:`~repro.serving.client` — a stdlib blocking client (retrying
  under :class:`~repro.resilience.RetryPolicy` where idempotent);
* :mod:`~repro.serving.loadgen` — the closed-loop load generator behind
  ``repro bench-serve`` and ``benchmarks/perf/bench_serving.py``.

Everything is stdlib + numpy: ``asyncio.start_server`` with a minimal
HTTP/1.1 layer, no new dependencies.  Degradation behavior — deadlines
(504), load shedding (429), per-model retune breakers (503), graceful
drain, deterministic fault injection — is documented in
``docs/resilience.md`` and implemented on :mod:`repro.resilience`.
"""

from .batcher import MicroBatcher
from .client import JobFailedError, ServingClient, ServingError
from .loadgen import LoadReport, run_load
from .registry import ModelRegistry, canonical_key
from .service import FairnessService, serve_in_thread

__all__ = [
    "ModelRegistry",
    "canonical_key",
    "MicroBatcher",
    "FairnessService",
    "serve_in_thread",
    "ServingClient",
    "ServingError",
    "JobFailedError",
    "LoadReport",
    "run_load",
]

"""Cross-run semantic cache: the persistent layer under the in-memory caches.

The in-memory caches — the fit-memoization cache keyed on resolved
weight vectors (:class:`~repro.core.fitter.WeightedFitter`) and the
serving registry's canonical dedup index
(:class:`~repro.serving.registry.ModelRegistry`) — die with the
process.  This package gives them a durable floor:

* :class:`~repro.store.blob.CacheStore` — a content-addressed on-disk
  blob store.  Blobs are keyed by SHA1 hex digests (the same digests the
  in-memory caches already compute), written atomically (tmp + rename),
  wrapped in the :mod:`repro.ml.persistence` envelope, bounded by an
  optional byte budget with least-recently-used eviction, and loaded
  corruption-tolerantly: a truncated or garbage blob warns and counts as
  a miss, never crashes a solve.
* :class:`~repro.store.solution.SolutionCache` — the semantic layer
  above the blobs.  Finished :class:`~repro.api.FairModel` artifacts are
  keyed on ``SpecSet.canonical()`` × ``Dataset.fingerprint()`` × model
  parameters × strategy config, so a canonically-equivalent re-solve in
  a *fresh process* returns the stored artifact with **zero** model
  fits; a near-hit (same spec shape, tightened threshold) returns the
  previous feasible λ as a warm-start bracket the planner resumes from.

Wiring: ``Engine(store_dir=...)`` (or the CLI's ``--store-dir``) builds
one :class:`CacheStore` and threads it through the
:class:`~repro.core.fitter.WeightedFitter` (persistent fit artifacts)
and the :class:`SolutionCache`; ``repro serve --store-dir``
shares the same directory with the model registry's spool files, so a
restarted server comes back warm.  See ``docs/caching.md`` for the full
key anatomy and invalidation rules.
"""

from .blob import CacheStore
from .delta import append_digest, chain_fingerprint, retire_digest
from .solution import SolutionCache

__all__ = [
    "CacheStore",
    "SolutionCache",
    "append_digest",
    "retire_digest",
    "chain_fingerprint",
]

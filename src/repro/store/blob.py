"""Content-addressed on-disk blob store (the persistence floor).

One :class:`CacheStore` owns a directory tree of envelope-wrapped
pickles (:func:`repro.ml.persistence.save_model`), fanned out as
``<root>/<namespace>/<digest[:2]>/<digest>.blob``.  Keys are SHA1 hex
digests computed by the callers — the fitter's resolved-weight digests,
the evaluator's prediction digests, the solution cache's canonical-spec
digests — so identical content lands on identical paths regardless of
which process produced it.

Design constraints, in order:

* **never corrupt a reader** — every write goes to a private temp file
  in the destination directory and is published with ``os.replace``
  (atomic on POSIX), so concurrent writers race benignly (last writer
  wins, both wrote identical content anyway) and readers only ever see
  complete blobs;
* **never crash a solve** — a blob that fails to unpickle (truncated by
  a kill, bit-rotted, or simply written by an incompatible revision) is
  a warning plus a cache miss, and the offending file is removed;
* **bounded footprint** — with ``max_bytes`` set, the store evicts
  least-recently-*used* blobs (access refreshes the file mtime) until
  the tree fits the budget.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import pathlib
import threading
import time
import warnings

from ..ml.persistence import load_model, save_model
from ..resilience.faults import inject
from ..resilience.policy import CircuitBreaker

__all__ = ["CacheStore", "content_key"]

#: blob file suffix; everything else in the tree is ignored by scans
BLOB_SUFFIX = ".blob"


def content_key(*parts):
    """SHA1 hex digest over ``parts`` (each ``bytes`` or ``str``).

    The helper callers use to derive blob keys from heterogeneous
    content (array bytes, canonical strings, parameter reprs).

    Parameters
    ----------
    *parts : bytes or str
        Digested in order; strings are UTF-8 encoded.

    Returns
    -------
    str
        40-character lowercase hex digest.
    """
    digest = hashlib.sha1()
    for part in parts:
        if isinstance(part, str):
            part = part.encode("utf-8")
        digest.update(part)
    return digest.hexdigest()


class CacheStore:
    """A namespaced, size-bounded, corruption-tolerant blob store.

    Parameters
    ----------
    root : path-like
        Directory holding the blob tree (created lazily on first put).
        Safe to share with the serving registry's spool files — the
        store only ever touches ``*.blob`` paths under its namespace
        subdirectories.
    max_bytes : int or None
        Total byte budget across all namespaces.  Exceeding it after a
        put evicts least-recently-used blobs (by mtime, which reads
        refresh) until the tree fits.  ``None`` (default) means
        unbounded.
    breaker : repro.resilience.CircuitBreaker, None, or False
        Circuit breaker around the store's disk I/O.  Consecutive
        I/O errors (a full disk, a yanked network mount, injected
        chaos) trip it open, after which gets answer as immediate
        misses and puts are dropped — no syscalls — until the cooldown
        admits a half-open probe.  ``None`` (default) builds one with
        ``threshold=8, cooldown_s=30``; ``False`` disables the gate.

    Attributes
    ----------
    counters : dict
        ``hits`` / ``misses`` / ``puts`` / ``evictions`` / ``corrupt``
        / ``io_errors`` / ``breaker_skips`` traffic counters for this
        store instance (per process — the on-disk tree itself is
        shared between processes).
    """

    def __init__(self, root, max_bytes=None, breaker=None):
        self.root = pathlib.Path(root)
        if max_bytes is not None and int(max_bytes) < 1:
            raise ValueError(f"max_bytes must be >= 1 or None, got {max_bytes}")
        self.max_bytes = None if max_bytes is None else int(max_bytes)
        if breaker is None:
            breaker = CircuitBreaker(threshold=8, cooldown_s=30.0)
        self.breaker = breaker or None
        self._lock = threading.Lock()
        self._tmp_ids = itertools.count()
        # strictly-increasing mtime clock: filesystem timestamp
        # resolution is too coarse to order the accesses of a fast
        # test or a tight solve loop, so LRU order is driven by this
        self._clock = time.time()
        self.counters = {
            "hits": 0, "misses": 0, "puts": 0, "evictions": 0, "corrupt": 0,
            "io_errors": 0, "breaker_skips": 0,
        }

    # -- paths ---------------------------------------------------------------

    def _path(self, namespace, key):
        key = str(key)
        if not key or any(ch not in "0123456789abcdef" for ch in key):
            raise ValueError(
                f"blob keys are lowercase hex digests, got {key!r}"
            )
        return self.root / str(namespace) / key[:2] / (key + BLOB_SUFFIX)

    def _touch(self, path):
        """Refresh ``path``'s mtime from the monotone store clock."""
        with self._lock:
            self._clock = max(self._clock + 1e-4, time.time())
            stamp = self._clock
        try:
            os.utime(path, (stamp, stamp))
        except OSError:
            pass  # concurrently evicted; the loaded value is still good

    def _iter_blobs(self):
        """Yield ``(path, size, mtime)`` for every blob in the tree."""
        if not self.root.is_dir():
            return
        for path in self.root.glob("*/??/*" + BLOB_SUFFIX):
            try:
                stat = path.stat()
            except OSError:
                continue  # raced with an eviction/replace
            yield path, stat.st_size, stat.st_mtime

    # -- I/O degradation -----------------------------------------------------

    def _breaker_allows(self):
        """False when the I/O breaker is open (callers degrade to miss)."""
        if self.breaker is None or self.breaker.allow():
            return True
        with self._lock:
            self.counters["breaker_skips"] += 1
        return False

    def _io_failure(self, op, path, exc):
        """Count + warn one disk failure; feeds the breaker.

        A cache must never turn a flaky disk into a crashed solve: every
        I/O error (organic or injected) degrades to a miss/dropped put.
        """
        with self._lock:
            self.counters["io_errors"] += 1
        if self.breaker is not None:
            self.breaker.record_failure()
        warnings.warn(
            f"cache store {op} failed on {path} ({exc}); degrading to a "
            f"cache {'miss' if op == 'get' else 'drop'}",
            RuntimeWarning,
            stacklevel=3,
        )

    def _io_ok(self):
        if self.breaker is not None:
            self.breaker.record_success()

    # -- blob lifecycle ------------------------------------------------------

    def put(self, namespace, key, obj, extra=None):
        """Publish ``obj`` under ``namespace``/``key`` atomically.

        The payload is wrapped in the persistence envelope
        (:func:`repro.ml.persistence.save_model`), written to a temp
        file in the destination directory, and moved into place with
        ``os.replace`` — readers never observe a partial blob, and
        concurrent writers of the same key are harmless (content-
        addressing means they wrote the same bytes).

        Parameters
        ----------
        namespace : str
            Blob family (``"fit"``, ``"solution-v2"``, ...).
        key : str
            SHA1 hex digest (see :func:`content_key`).
        obj : object
            Any picklable payload.
        extra : dict, optional
            Caller metadata embedded in the envelope.

        A disk failure (no space, permissions, injected chaos) is a
        warning plus a dropped put — the blob simply is not published —
        never a crashed solve.  Returns ``None`` in that case, and
        immediately when the I/O circuit breaker is open.

        Returns
        -------
        str or None
            The published blob path (``None`` when the put was dropped).
        """
        path = self._path(namespace, key)
        if not self._breaker_allows():
            return None
        tmp = path.parent / (
            f".{key}.{os.getpid()}.{next(self._tmp_ids)}.tmp"
        )
        try:
            inject("store.put", path=path)
            path.parent.mkdir(parents=True, exist_ok=True)
            save_model(obj, tmp, extra=extra)
            os.replace(tmp, path)
        except OSError as exc:
            self._io_failure("put", path, exc)
            return None
        finally:
            tmp.unlink(missing_ok=True)
        self._io_ok()
        self._touch(path)
        with self._lock:
            self.counters["puts"] += 1
        self._evict_over_budget(keep=path)
        return str(path)

    def get(self, namespace, key, default=None):
        """Load the blob at ``namespace``/``key``; ``default`` on miss.

        A hit refreshes the blob's recency.  A blob that exists but
        fails to load — truncated, garbage, or an incompatible envelope
        — emits a :class:`RuntimeWarning`, is deleted, counts under
        ``counters["corrupt"]``, and reads as a miss; a disk error on
        the way to it (or an open I/O circuit breaker) likewise reads
        as a miss — a cache must never turn disk rot into a crashed
        solve.
        """
        path = self._path(namespace, key)
        if not self._breaker_allows():
            with self._lock:
                self.counters["misses"] += 1
            return default
        try:
            inject("store.get", path=path)
            exists = path.is_file()
        except OSError as exc:
            self._io_failure("get", path, exc)
            with self._lock:
                self.counters["misses"] += 1
            return default
        if not exists:
            self._io_ok()
            with self._lock:
                self.counters["misses"] += 1
            return default
        try:
            obj = load_model(path)
        except OSError as exc:
            self._io_failure("get", path, exc)
            with self._lock:
                self.counters["misses"] += 1
            return default
        except Exception as exc:
            warnings.warn(
                f"dropping corrupt cache blob {path} ({exc}); "
                f"treating as a miss",
                RuntimeWarning,
                stacklevel=2,
            )
            path.unlink(missing_ok=True)
            with self._lock:
                self.counters["corrupt"] += 1
                self.counters["misses"] += 1
            return default
        self._io_ok()
        self._touch(path)
        with self._lock:
            self.counters["hits"] += 1
        return obj

    def delete(self, namespace, key):
        """Remove one blob; returns True when a file was deleted."""
        path = self._path(namespace, key)
        try:
            path.unlink()
            return True
        except OSError:
            return False

    # -- eviction ------------------------------------------------------------

    def _evict_over_budget(self, keep=None):
        """Drop least-recently-used blobs until the tree fits the budget.

        ``keep`` protects the just-published path so a put can never
        evict its own blob (a budget smaller than one blob otherwise
        churns forever).
        """
        if self.max_bytes is None:
            return
        blobs = sorted(self._iter_blobs(), key=lambda item: item[2])
        total = sum(size for _, size, _ in blobs)
        for path, size, _ in blobs:
            if total <= self.max_bytes:
                break
            if keep is not None and path == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue  # lost the race to another evictor
            total -= size
            with self._lock:
                self.counters["evictions"] += 1

    # -- introspection -------------------------------------------------------

    def stats(self):
        """Counters plus the current on-disk blob count and byte total."""
        blobs = list(self._iter_blobs())
        with self._lock:
            out = dict(self.counters)
        out["blobs"] = len(blobs)
        out["bytes"] = sum(size for _, size, _ in blobs)
        out["max_bytes"] = self.max_bytes
        out["breaker"] = None if self.breaker is None else self.breaker.stats()
        return out

    def __repr__(self):
        """Path and budget, for logs."""
        return f"CacheStore({str(self.root)!r}, max_bytes={self.max_bytes})"

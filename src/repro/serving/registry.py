"""Thread-safe registry of named fitted :class:`~repro.api.FairModel`\\ s.

The registry is the serving layer's source of truth: request handlers
resolve model names through it, retune jobs register their results in
it, and — the semantic-caching move — retune requests whose spec is
*canonically equivalent* to an already-registered model's spec **on the
same dataset, by the same solver** hit the registry instead of
re-solving.  The dedup key is ``(SpecSet.canonical(),
Dataset.fingerprint(), solver)``: order- and format-normalized spec
string times exact dataset content hash times the :func:`solver_key` a
retune stamps into the model's ``metadata``.

Lifecycle is load/save/evict over the existing persistence envelope
(:mod:`repro.ml.persistence` via :meth:`FairModel.save` /
:meth:`FairModel.load`): with a ``store_dir``, evicted models spool to
disk and lazily reload on next use; ``max_models`` bounds residency with
LRU eviction.  All public methods are safe to call from any thread or
event loop.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import asdict, dataclass, field

from ..api import FairModel
from ..core.dsl import parse_spec
from ..core.exceptions import SpecificationError
from ..ml.base import estimator_fingerprint

__all__ = ["ModelRegistry", "RegistryEntry", "canonical_key", "solver_key"]

#: the ``FairModel.metadata`` entry that holds a model's solver key
SOLVER_METADATA = "solver_key"


def canonical_key(spec, dataset_fingerprint, solver=None):
    """The registry dedup key: canonical spec × dataset hash × solver.

    ``spec`` accepts anything :func:`~repro.core.dsl.parse_spec` does (a
    DSL string, a spec, a list/SpecSet); two specs that parse to the
    same normalized clause set — reordered conjunctions, reformatted
    epsilons, composite aliases — produce the same key.  ``solver`` is
    a :func:`solver_key`, or ``None`` for a model registered without
    one.
    """
    return parse_spec(spec).canonical(), dataset_fingerprint, solver


def solver_key(estimator, strategy, config):
    """The solver part of a retune's dedup key, or ``None``.

    A SHA1 over the estimator's
    :func:`~repro.ml.base.estimator_fingerprint`, the strategy name as
    it will run (``"auto"`` already resolved) and every field of its
    validated config (JSON, keys sorted), so a retune reuses a model
    only when the same solver would run: ``"auto"`` and the strategy it
    resolves to share a key, as do options left out and options set to
    their defaults.  ``None`` when the estimator has no fingerprint:
    such a retune never dedups.
    """
    fingerprint = estimator_fingerprint(estimator)
    if fingerprint is None:
        return None
    payload = json.dumps(
        [fingerprint, strategy, asdict(config)], sort_keys=True,
    )
    return hashlib.sha1(payload.encode()).hexdigest()


@dataclass
class RegistryEntry:
    """Bookkeeping for one registered model (the ``GET /models`` row)."""

    name: str
    estimator: str
    spec_canonical: str | None
    dataset_fingerprint: str | None
    solver: str | None = None
    source: str = "register"
    registered_at: float = field(default_factory=time.time)
    path: str | None = None      # spool file once evicted (or saved)
    resident: bool = True
    hits: int = 0

    def describe(self):
        return {
            "name": self.name,
            "estimator": self.estimator,
            "spec": self.spec_canonical,
            "dataset_fingerprint": self.dataset_fingerprint,
            "source": self.source,
            "registered_at": self.registered_at,
            "resident": self.resident,
            "hits": self.hits,
        }


class ModelRegistry:
    """Named fitted FairModels with LRU residency and canonical dedup.

    Parameters
    ----------
    store_dir : path-like or None
        Spool directory for the evict/reload lifecycle.  With a store
        dir, :meth:`evict` persists the model (persistence envelope) and
        :meth:`get` transparently reloads it; without one, eviction
        drops the model for good.  On construction, any
        ``*.fairmodel.pkl`` spool already in the directory — written by
        a previous process — is re-registered as a non-resident entry,
        so a restarted server answers the same names (and canonical
        dedup keys) it served before.
    max_models : int or None
        Resident-model bound; registering (or reloading) beyond it
        evicts the least recently used model first.
    """

    def __init__(self, store_dir=None, max_models=None):
        if max_models is not None and int(max_models) < 1:
            raise SpecificationError(
                f"max_models must be >= 1 or None, got {max_models}"
            )
        self.store_dir = None if store_dir is None else pathlib.Path(store_dir)
        self.max_models = None if max_models is None else int(max_models)
        self._lock = threading.RLock()
        self._models = OrderedDict()   # name -> FairModel (LRU order)
        self._entries = {}             # name -> RegistryEntry
        self._by_key = {}              # (spec, fingerprint, solver) -> name
        self._stats = {
            "registered": 0,
            "gets": 0,
            "hits": 0,
            "evictions": 0,
            "spools": 0,
            "reloads": 0,
            "restored": 0,
            "canonical_lookups": 0,
            "canonical_hits": 0,
        }
        if self.store_dir is not None and self.store_dir.is_dir():
            self._restore_spooled()

    # -- core lifecycle ------------------------------------------------------

    def register(self, name, model, dataset_fingerprint=None,
                 source="register"):
        """Install ``model`` under ``name``; returns its entry.

        When the model's specs render canonically *and* a dataset
        fingerprint is given, the pair is indexed for :meth:`lookup`
        dedup, together with the solver key in the model's
        ``metadata`` (``None`` when it has none).  Re-registering a
        name replaces the old model (and drops its dedup key).
        """
        if not isinstance(model, FairModel):
            raise SpecificationError(
                f"registry holds FairModel artifacts, got "
                f"{type(model).__name__}"
            )
        if not name or not isinstance(name, str):
            raise SpecificationError("model name must be a non-empty string")
        entry = RegistryEntry(
            name=name,
            estimator=type(model.model).__name__,
            spec_canonical=model.spec_canonical(),
            dataset_fingerprint=dataset_fingerprint,
            solver=model.metadata.get(SOLVER_METADATA),
            source=source,
        )
        with self._lock:
            self._drop_key(name)
            self._models[name] = model
            self._models.move_to_end(name)
            self._entries[name] = entry
            self._index(entry)
            self._stats["registered"] += 1
            self._enforce_bound(keep=name)
        return entry

    def get(self, name):
        """Resolve a name to its FairModel (LRU touch, lazy reload).

        Raises ``KeyError`` for names never registered or evicted
        without a spool file.
        """
        with self._lock:
            self._stats["gets"] += 1
            entry = self._entries.get(name)
            if entry is None:
                raise KeyError(
                    f"no model named {name!r} is registered; known: "
                    f"{self.names()}"
                )
            model = self._models.get(name)
            if model is None:
                model = self._reload(entry)
            self._models.move_to_end(name)
            entry.hits += 1
            self._stats["hits"] += 1
            self._enforce_bound(keep=name)
            return model

    def evict(self, name):
        """Drop ``name`` from residency; spool to disk when possible.

        Returns the spool path (str) when the model was persisted, else
        None.  Without a ``store_dir`` the entry is removed entirely and
        later :meth:`get` calls raise ``KeyError``.
        """
        with self._lock:
            if name not in self._entries:
                raise KeyError(f"no model named {name!r} is registered")
            return self._evict_locked(name)

    def save(self, name, path=None):
        """Persist ``name`` (persistence envelope); returns the path."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None:
                raise KeyError(f"no model named {name!r} is registered")
            model = self._models.get(name)
            if model is None:
                model = self._reload(entry)
            path = pathlib.Path(path) if path else self._spool_path(name)
            path.parent.mkdir(parents=True, exist_ok=True)
            model.save(path)
            entry.path = str(path)
            return str(path)

    def load(self, name, path, dataset_fingerprint=None):
        """Register the FairModel artifact stored at ``path`` as ``name``."""
        model = FairModel.load(path)
        entry = self.register(
            name, model, dataset_fingerprint=dataset_fingerprint,
            source="load",
        )
        entry.path = str(path)
        return entry

    # -- semantic dedup ------------------------------------------------------

    def lookup(self, spec, dataset_fingerprint, solver=None):
        """Name of a registered model equivalent to ``spec`` on this data.

        Equivalence is canonical (:func:`canonical_key`), so reordered /
        reformatted / composite-alias specs all hit, and the model's
        solver key must equal ``solver`` (the default matches only
        models registered without one).  Returns None on miss;
        hit/lookup counts surface in :meth:`stats` (the serving layer's
        ``/stats`` payload).
        """
        try:
            key = canonical_key(spec, dataset_fingerprint, solver)
        except SpecificationError:
            return None
        with self._lock:
            self._stats["canonical_lookups"] += 1
            name = self._by_key.get(key)
            if name is not None:
                self._stats["canonical_hits"] += 1
            return name

    # -- introspection -------------------------------------------------------

    def names(self):
        with self._lock:
            return sorted(self._entries)

    def describe(self):
        """JSON-friendly rows for every registered model."""
        with self._lock:
            return [
                self._entries[name].describe() for name in sorted(self._entries)
            ]

    def stats(self):
        with self._lock:
            out = dict(self._stats)
            out["models"] = len(self._entries)
            out["resident"] = len(self._models)
            return out

    def __contains__(self, name):
        with self._lock:
            return name in self._entries

    def __len__(self):
        with self._lock:
            return len(self._entries)

    # -- internals (call with the lock held) ---------------------------------

    def _spool_path(self, name):
        if self.store_dir is None:
            raise SpecificationError(
                "this registry has no store_dir; pass an explicit path"
            )
        self.store_dir.mkdir(parents=True, exist_ok=True)
        return self.store_dir / f"{name}.fairmodel.pkl"

    @staticmethod
    def _key(entry):
        return entry.spec_canonical, entry.dataset_fingerprint, entry.solver

    def _index(self, entry):
        if (entry.spec_canonical is not None
                and entry.dataset_fingerprint is not None):
            self._by_key[self._key(entry)] = entry.name

    def _drop_key(self, name):
        entry = self._entries.get(name)
        if entry is None:
            return
        key = self._key(entry)
        if self._by_key.get(key) == name:
            del self._by_key[key]

    def _evict_locked(self, name):
        entry = self._entries[name]
        model = self._models.pop(name, None)
        self._stats["evictions"] += 1
        if self.store_dir is not None:
            if model is not None:  # already-spooled models keep their file
                path = self._spool_path(name)
                model.save(
                    path, dataset_fingerprint=entry.dataset_fingerprint,
                )
                entry.path = str(path)
                self._stats["spools"] += 1
            entry.resident = False
            return entry.path
        self._drop_key(name)
        del self._entries[name]
        return None

    def _reload(self, entry):
        if entry.path is None:
            raise KeyError(
                f"model {entry.name!r} was evicted and has no spool file "
                f"(registry has no store_dir)"
            )
        model, extra = FairModel.load(entry.path, with_extra=True)
        spooled_fp = extra.get("dataset_fingerprint")
        if (entry.dataset_fingerprint is not None
                and spooled_fp is not None
                and spooled_fp != entry.dataset_fingerprint):
            # the spool file was replaced (or the data changed) since
            # this entry was indexed: serving it would answer requests
            # with a model tuned on *different* data — warn and miss
            warnings.warn(
                f"spooled artifact for {entry.name!r} at {entry.path} "
                f"carries dataset fingerprint {spooled_fp[:12]}…, but the "
                f"registry expects {entry.dataset_fingerprint[:12]}…; "
                f"dropping the stale entry",
                RuntimeWarning,
                stacklevel=3,
            )
            self._drop_key(entry.name)
            del self._entries[entry.name]
            raise KeyError(
                f"model {entry.name!r} has a stale spool file (dataset "
                f"fingerprint mismatch); re-register or retune it"
            )
        self._models[entry.name] = model
        entry.resident = True
        self._stats["reloads"] += 1
        return model

    def _restore_spooled(self):
        """Re-register spool files left by a previous process.

        Entries come back *non-resident* — the model is unpickled once
        to recover its canonical spec, estimator name and solver key
        for the dedup index, then dropped until first use, so a restart
        with many spools does not balloon memory.  An unreadable spool
        warns and is skipped: a stale cache file must never stop the
        server from booting.
        """
        for path in sorted(self.store_dir.glob("*.fairmodel.pkl")):
            name = path.name[: -len(".fairmodel.pkl")]
            if not name or name in self._entries:
                continue
            try:
                model, extra = FairModel.load(path, with_extra=True)
            except Exception as exc:
                warnings.warn(
                    f"skipping unreadable spool file {path} ({exc})",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            entry = RegistryEntry(
                name=name,
                estimator=type(model.model).__name__,
                spec_canonical=(extra.get("spec_canonical")
                                or model.spec_canonical()),
                dataset_fingerprint=extra.get("dataset_fingerprint"),
                solver=model.metadata.get(SOLVER_METADATA),
                source="restore",
                path=str(path),
                resident=False,
            )
            self._entries[name] = entry
            self._index(entry)
            self._stats["restored"] += 1

    def _enforce_bound(self, keep=None):
        if self.max_models is None:
            return
        while len(self._models) > self.max_models:
            # OrderedDict iteration order == LRU order (oldest first)
            victim = next(
                name for name in self._models if name != keep
            )
            self._evict_locked(victim)

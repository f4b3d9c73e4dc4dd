"""Canonical solution cache: finished solves and warm-start brackets.

The blob store remembers *artifacts* (fitted estimators);
this module remembers *answers*.  A solution is keyed by everything
that determines the solve — ``SpecSet.canonical()``, the train/val
``Dataset.fingerprint()`` digests, the estimator fingerprint,
and the strategy configuration — so a canonically-equivalent request in
a fresh process gets the finished :class:`~repro.api.FairModel` back
without training a single model.

Two namespaces (suffixed ``-v2`` since the dataset fingerprint format
changed; bumping the namespace makes any blob written under the v1
fingerprint scheme an automatic miss instead of a potential wrong hit):

* ``solution-v2`` — exact hits.  One blob per solution key, holding the
  pickled ``FairModel``.
* ``solution_index-v2`` — warm-start indexes.  One blob per *shape* key
  (the solution key with the fairness threshold erased), holding a map
  from every previously-solved epsilon to its selected λ.  When a new
  request tightens the threshold of a shape we have solved before, the
  closest strictly-looser λ seeds the planner's bracket so the
  direction probe and most of the ladder are skipped.

Warm-start indexing is deliberately restricted to single-constraint
specs: with one constraint, a tighter epsilon monotonically needs a λ
at least as large, so a looser solve's λ is a sound lower bracket.  No
such ordering holds across multi-constraint λ vectors, so those specs
only ever hit exactly.
"""

from __future__ import annotations

import re

from .blob import content_key

__all__ = ["SolutionCache"]

#: ``"SP <= 0.08" -> "SP <= ?"`` — FairnessSpec.to_string renders the
#: threshold as the final ``<= <g-format float>`` token
_EPSILON_RE = re.compile(r"<= \S+$")


def _shape_of(canonical):
    """Erase the threshold from a single-constraint canonical string.

    Returns ``None`` for multi-constraint specs (joined with
    ``" and "``), which are excluded from warm-start indexing.
    """
    if " and " in canonical:
        return None
    shape, n_subs = _EPSILON_RE.subn("<= ?", canonical)
    return shape if n_subs == 1 else None


class SolutionCache:
    """Exact and near-hit lookup of finished solves over a blob store.

    Callers describe a solve as a flat dict (the engine's
    ``_describe_solution``) containing at least ``canonical`` (the
    spec's canonical string) and ``epsilon`` (the single-constraint
    threshold, or ``None``); every other entry is free-form but must be
    deterministic and ``repr``-stable, because the exact key is the
    SHA1 of the sorted-items repr.

    Parameters
    ----------
    store : CacheStore
        The blob store that holds the solution and index blobs.
    """

    #: namespace version tracks the Dataset.fingerprint format: blobs
    #: keyed under the v1 fingerprints must read as misses, not hits
    EXACT_NS = "solution-v2"
    WARM_NS = "solution_index-v2"

    def __init__(self, store):
        self.store = store

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def exact_key(desc):
        """SHA1 key for an exact solution lookup.

        Parameters
        ----------
        desc : dict
            Full solve description, ``epsilon`` included (it is part of
            ``canonical`` anyway, but keeping it keyed guards against a
            future canonical format that drops it).
        """
        return content_key(repr(sorted(desc.items())))

    @staticmethod
    def shape_key(desc):
        """SHA1 key for the threshold-erased *shape* of a solve.

        Returns ``None`` when the spec is multi-constraint or the
        canonical string does not carry a recognizable threshold —
        those solves are not warm-start indexable.
        """
        canonical = desc.get("canonical")
        if not canonical:
            return None
        shape = _shape_of(canonical)
        if shape is None:
            return None
        stripped = dict(desc, canonical=shape)
        stripped.pop("epsilon", None)
        return content_key(repr(sorted(stripped.items())))

    # -- exact hits ----------------------------------------------------------

    def get(self, desc):
        """Return the stored :class:`~repro.api.FairModel`, or ``None``.

        A blob that loads but is not a ``FairModel`` (a collision with
        a foreign payload, or a payload written by a future revision)
        reads as a miss.
        """
        obj = self.store.get(self.EXACT_NS, self.exact_key(desc))
        if obj is None:
            return None
        from ..api import FairModel  # circular at module scope

        return obj if isinstance(obj, FairModel) else None

    def put(self, desc, model):
        """Store a finished ``FairModel`` under its exact solution key."""
        self.store.put(
            self.EXACT_NS, self.exact_key(desc), model,
            extra={"solution_desc": repr(sorted(desc.items()))},
        )

    # -- near hits (tightened threshold) -------------------------------------

    def get_warm(self, desc):
        """Warm-start bracket for a tightened re-solve of a known shape.

        Looks up the shape index and returns
        ``{"lambda": float, "swapped": bool, "epsilon": float}`` for
        the *tightest strictly-looser* epsilon previously solved — the
        best sound lower bracket for this solve — or ``None`` when the
        shape is unknown, not indexable, or only tighter/equal epsilons
        are on record (an equal epsilon is the exact cache's job).
        """
        epsilon = desc.get("epsilon")
        key = self.shape_key(desc)
        if key is None or epsilon is None:
            return None
        index = self.store.get(self.WARM_NS, key)
        if not isinstance(index, dict):
            return None
        best = None
        for eps_repr, entry in index.items():
            try:
                eps_prev = float(eps_repr)
                lam = float(entry["lambda"])
                swapped = bool(entry["swapped"])
            except (TypeError, KeyError, ValueError):
                continue  # malformed entry: skip, never crash
            if eps_prev <= epsilon:
                continue  # equal or tighter: not a sound looser bracket
            if best is None or eps_prev < best["epsilon"]:
                best = {"lambda": lam, "swapped": swapped,
                        "epsilon": eps_prev}
        return best

    def note_warm(self, desc, lam, swapped):
        """Record ``desc``'s selected λ in its shape index.

        Read-merge-write on the index blob: concurrent writers can drop
        each other's *newest* entry (last writer wins on the whole
        blob), which only costs a future warm start, never correctness.
        No-op for non-indexable solves.
        """
        epsilon = desc.get("epsilon")
        key = self.shape_key(desc)
        if key is None or epsilon is None:
            return
        index = self.store.get(self.WARM_NS, key)
        if not isinstance(index, dict):
            index = {}
        index[repr(float(epsilon))] = {
            "lambda": float(lam), "swapped": bool(swapped),
        }
        self.store.put(self.WARM_NS, key, index)

"""Deterministic fault injection: seeded chaos as a first-class input.

A production serving system is only as robust as the failures it has
actually rehearsed.  This module makes failure rehearsal *reproducible*:
a :class:`FaultPlan` is a seeded schedule of faults bound to **named
injection sites** threaded through the hot paths of the system —

=======================  =====================================================
site                     where it fires
=======================  =====================================================
``store.get``            :meth:`repro.store.CacheStore.get`, before disk I/O
``store.put``            :meth:`repro.store.CacheStore.put`, before publish
``fitter.fit_batch``     :meth:`repro.core.fitter.WeightedFitter.fit_batch`
``batcher.predict``      :class:`repro.serving.MicroBatcher`'s worker, inside
                         the per-batch failure domain
``service.dispatch``     :meth:`repro.serving.FairnessService._dispatch`
=======================  =====================================================

Each rule can **raise** (a marked exception of a configurable class),
**delay** (``time.sleep``), or **truncate** (chop a file the site hands
over — how the store's corrupt-blob path gets exercised end to end).
Whether a given call fires is decided by a per-rule
``random.Random`` stream seeded from ``(plan seed, site, rule index)``
through SHA1 — never from global state — so the same plan file produces
the same fault schedule on every run, machine, and CI shard.

Plans are plain JSON::

    {"seed": 7, "rules": [
        {"site": "store.get", "mode": "raise", "error": "OSError", "p": 0.05},
        {"site": "batcher.predict", "mode": "delay", "ms": 2, "p": 0.2},
        {"site": "store.get", "mode": "truncate", "p": 0.02}
    ]}

and are enabled either explicitly (:func:`install_plan` /
:func:`active_plan`), via ``repro serve --fault-plan plan.json``, or by
pointing :data:`ENV_VAR` at a plan file — which is how the CI
``chaos-smoke`` job runs the ordinary serving test suite under chaos
without changing a line of test code.

Sites call :func:`inject`, which is a near-free no-op (one global read)
when no plan is active — the production path pays nothing for the
instrumentation.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import threading
import time

__all__ = [
    "ENV_VAR",
    "FAULT_SITES",
    "InjectedFault",
    "FaultRule",
    "FaultPlan",
    "inject",
    "install_plan",
    "clear_plan",
    "current_plan",
    "active_plan",
]

#: environment variable naming a JSON plan file; read once, lazily, the
#: first time any site fires with no plan installed
ENV_VAR = "REPRO_FAULT_PLAN"

#: the catalog of named injection sites (documented in docs/resilience.md);
#: plans may only reference these, so a typo fails loudly at load time
FAULT_SITES = (
    "store.get",
    "store.put",
    "fitter.fit_batch",
    "batcher.predict",
    "service.dispatch",
)

MODES = ("raise", "delay", "truncate")


class InjectedFault(Exception):
    """Marker mixin carried by every injected exception.

    Handlers can distinguish rehearsed faults from organic ones with
    ``isinstance(exc, InjectedFault)`` while still catching them through
    their advertised base class (``OSError``, ``TimeoutError``, ...).
    """


#: error names a "raise" rule may ask for; each is subclassed together
#: with InjectedFault so the real degradation paths catch them
_ERROR_BASES = {
    "OSError": OSError,
    "RuntimeError": RuntimeError,
    "ConnectionError": ConnectionError,
    "TimeoutError": TimeoutError,
    "ValueError": ValueError,
}
_ERROR_CACHE = {}


def _error_class(name):
    cls = _ERROR_CACHE.get(name)
    if cls is None:
        base = _ERROR_BASES[name]
        cls = type(f"Injected{name}", (InjectedFault, base), {})
        _ERROR_CACHE[name] = cls
    return cls


def _stream_seed(seed, site, index):
    """Stable 64-bit RNG seed from (plan seed, site, rule index).

    Derived through SHA1 instead of ``hash()`` so the schedule survives
    ``PYTHONHASHSEED`` randomization and process boundaries.
    """
    digest = hashlib.sha1(f"{seed}:{site}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class FaultRule:
    """One deterministic fault source bound to a site.

    Parameters
    ----------
    site : str
        A name from :data:`FAULT_SITES`.
    mode : {"raise", "delay", "truncate"}
        What firing does.
    p : float
        Per-call firing probability, drawn from this rule's private
        seeded stream (default 1.0 — always, subject to the other
        gates).
    every : int or None
        Fire only on every Nth matching call (counted after ``after``);
        combines with ``p`` as an AND.
    after : int
        Skip the first N calls at the site entirely (lets a plan warm a
        system up before the chaos starts).
    max_fires : int or None
        Stop firing after this many activations (``None`` = unbounded).
    error : str
        For ``raise``: key into the supported error classes
        (default ``"RuntimeError"``).
    ms : float
        For ``delay``: sleep duration in milliseconds (default 1.0).
    """

    def __init__(self, site, mode, p=1.0, every=None, after=0,
                 max_fires=None, error="RuntimeError", ms=1.0):
        if site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {site!r}; known sites: "
                f"{list(FAULT_SITES)}"
            )
        if mode not in MODES:
            raise ValueError(f"unknown fault mode {mode!r}; use {MODES}")
        if not 0.0 <= float(p) <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        if every is not None and int(every) < 1:
            raise ValueError(f"every must be >= 1 or None, got {every}")
        if int(after) < 0:
            raise ValueError(f"after must be >= 0, got {after}")
        if max_fires is not None and int(max_fires) < 1:
            raise ValueError(
                f"max_fires must be >= 1 or None, got {max_fires}"
            )
        if mode == "raise" and error not in _ERROR_BASES:
            raise ValueError(
                f"unknown error class {error!r}; supported: "
                f"{sorted(_ERROR_BASES)}"
            )
        if float(ms) < 0:
            raise ValueError(f"ms must be >= 0, got {ms}")
        self.site = site
        self.mode = mode
        self.p = float(p)
        self.every = None if every is None else int(every)
        self.after = int(after)
        self.max_fires = None if max_fires is None else int(max_fires)
        self.error = error
        self.ms = float(ms)
        # mutable schedule state, rebound by FaultPlan._bind
        self._rng = None
        self._calls = 0
        self._fires = 0

    def _bind(self, seed, index):
        self._rng = random.Random(_stream_seed(seed, self.site, index))
        self._calls = 0
        self._fires = 0

    def _should_fire(self):
        """Advance this rule's deterministic schedule by one call."""
        self._calls += 1
        if self._calls <= self.after:
            return False
        if self.max_fires is not None and self._fires >= self.max_fires:
            return False
        if self.every is not None:
            if (self._calls - self.after - 1) % self.every != 0:
                return False
        # the draw happens even at p=1.0 (random() < 1.0 always) so
        # tightening p on a rule never shifts its stream positions
        if self._rng.random() >= self.p:
            return False
        self._fires += 1
        return True

    def to_dict(self):
        out = {"site": self.site, "mode": self.mode, "p": self.p}
        if self.every is not None:
            out["every"] = self.every
        if self.after:
            out["after"] = self.after
        if self.max_fires is not None:
            out["max_fires"] = self.max_fires
        if self.mode == "raise":
            out["error"] = self.error
        if self.mode == "delay":
            out["ms"] = self.ms
        return out


class FaultPlan:
    """A seeded, deterministic schedule of faults across sites.

    Thread-safe: the serving layer fires sites from the event loop,
    batcher pools, and retune worker threads concurrently; each rule's
    schedule advances under one plan-wide lock so the per-site call
    ordering (and therefore the fault sequence for a deterministic
    request order) is well-defined.
    """

    def __init__(self, rules, seed=0):
        self.seed = int(seed)
        self.rules = list(rules)
        self._lock = threading.Lock()
        self._by_site = {}
        for index, rule in enumerate(self.rules):
            rule._bind(self.seed, index)
            self._by_site.setdefault(rule.site, []).append(rule)
        self._fired = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, payload):
        """Build a plan from the JSON-object form (see module docstring)."""
        if not isinstance(payload, dict):
            raise ValueError("fault plan must be a JSON object")
        raw_rules = payload.get("rules", [])
        if not isinstance(raw_rules, list):
            raise ValueError("fault plan 'rules' must be a list")
        rules = []
        for i, raw in enumerate(raw_rules):
            if not isinstance(raw, dict) or "site" not in raw:
                raise ValueError(
                    f"fault rule #{i} must be an object with a 'site'"
                )
            known = {
                "site", "mode", "p", "every", "after", "max_fires",
                "error", "ms",
            }
            unknown = set(raw) - known
            if unknown:
                raise ValueError(
                    f"fault rule #{i} has unknown key(s) {sorted(unknown)}"
                )
            kwargs = dict(raw)
            site = kwargs.pop("site")
            mode = kwargs.pop("mode", "raise")
            rules.append(FaultRule(site, mode, **kwargs))
        return cls(rules, seed=payload.get("seed", 0))

    @classmethod
    def from_file(cls, path):
        """Load a JSON plan file."""
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        return {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    # -- firing --------------------------------------------------------------

    def fire(self, site, path=None):
        """Advance every rule bound to ``site``; act on the first match.

        ``path`` is the optional file handle-over for ``truncate`` rules
        (sites that own an on-disk artifact pass it; others pass
        nothing, and truncate rules at such sites never fire an
        action).
        """
        rules = self._by_site.get(site)
        if not rules:
            return
        action = None
        with self._lock:
            for rule in rules:
                if rule._should_fire() and action is None:
                    action = rule
                    key = (site, rule.mode)
                    self._fired[key] = self._fired.get(key, 0) + 1
        if action is None:
            return
        if action.mode == "delay":
            time.sleep(action.ms / 1e3)
        elif action.mode == "truncate":
            self._truncate(path)
        else:
            raise _error_class(action.error)(
                f"[fault-injection] {site} (seed={self.seed})"
            )

    @staticmethod
    def _truncate(path):
        """Chop the handed-over file to half its size (corruption)."""
        if path is None:
            return
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as fh:
                fh.truncate(max(size // 2, 1))
        except OSError:
            pass  # nothing to corrupt is a fine outcome for chaos

    def stats(self):
        """``{"site:mode": fires}`` plus per-site call counts."""
        with self._lock:
            fired = {
                f"{site}:{mode}": count
                for (site, mode), count in sorted(self._fired.items())
            }
            calls = {}
            for site, rules in self._by_site.items():
                calls[site] = max(rule._calls for rule in rules)
        return {"seed": self.seed, "fired": fired, "calls": calls}


# -- the process-wide active plan ---------------------------------------------

_PLAN = None
_PLAN_LOCK = threading.Lock()
_ENV_CHECKED = False


def install_plan(plan):
    """Make ``plan`` the process-wide active plan (replacing any)."""
    global _PLAN
    with _PLAN_LOCK:
        _PLAN = plan
    return plan


def clear_plan():
    """Deactivate fault injection (also suppresses the env fallback)."""
    global _PLAN, _ENV_CHECKED
    with _PLAN_LOCK:
        _PLAN = None
        _ENV_CHECKED = True


def current_plan():
    """The active plan, or None."""
    return _PLAN


@contextlib.contextmanager
def active_plan(plan):
    """Scoped installation — what the tests and benchmarks use."""
    global _PLAN
    with _PLAN_LOCK:
        previous = _PLAN
        _PLAN = plan
    try:
        yield plan
    finally:
        with _PLAN_LOCK:
            _PLAN = previous


def _bootstrap_env():
    """One-shot lazy load of the plan named by :data:`ENV_VAR`."""
    global _PLAN, _ENV_CHECKED
    with _PLAN_LOCK:
        if _ENV_CHECKED:
            return _PLAN
        _ENV_CHECKED = True
        path = os.environ.get(ENV_VAR)
        if path:
            _PLAN = FaultPlan.from_file(path)
        return _PLAN


def inject(site, path=None):
    """Fire ``site`` against the active plan; no-op when none is active.

    This is the only call the instrumented code paths make.  The
    no-plan fast path is a single module-global read.
    """
    plan = _PLAN
    if plan is None:
        if _ENV_CHECKED:
            return
        plan = _bootstrap_env()
        if plan is None:
            return
    plan.fire(site, path=path)

"""In-memory span tracer that wraps the program's layer entry points.

The program under test carries no instrumentation of its own, so the
traced run patches the public method at each layer boundary from here,
records one span per call (name, start, end, parent, run id) in memory,
and restores the originals afterwards.  Untraced runs never install a
wrapper, so they pay nothing.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.  Parents are
tracked per thread and per asyncio task through a context variable, so
spans that start on a worker thread (the serving batcher's predict
pool) are roots of their own.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import time

#: (module, class or None, attribute, span name) for every wrapped entry
#: point.  ``audit`` resolves to ``audit.final`` inside a solve and to
#: ``audit.check`` when the benchmark's own correctness check calls it.
LAYER_POINTS = (
    ("repro.api", "Engine", "solve", "solve"),
    ("repro.api", "Problem", "bind", "spec.bind"),
    ("repro.api", None, "evaluate_model", "audit"),
    ("repro.api", "FairModel", "predict_batch", "batcher.predict"),
    ("repro.core.strategies", None, "run_plan", "planner"),
    ("repro.core.executor", "ExecutionBackend", "run", "executor"),
    ("repro.core.fitter", "WeightedFitter", "fit", "fitter"),
    ("repro.core.fitter", "WeightedFitter", "fit_batch", "fitter"),
    ("repro.core.kernels", "CompiledConstraints", "weights",
     "kernels.weights"),
    ("repro.core.kernels", "CompiledConstraints", "weights_batch",
     "kernels.weights"),
    ("repro.core.kernels", "CompiledConstraints", "update_predictions",
     "kernels.weights"),
    ("repro.core.kernels", "CompiledEvaluator", "score", "kernels.score"),
    ("repro.core.kernels", "CompiledEvaluator", "score_batch",
     "kernels.score"),
    ("repro.core.kernels", "CompiledEvaluator", "score_models_batch",
     "kernels.score"),
    ("repro.core.kernels", "CompiledEvaluator", "disparities",
     "kernels.score"),
    ("repro.core.kernels", "CompiledEvaluator", "disparities_batch",
     "kernels.score"),
    ("repro.core.kernels", "CompiledEvaluator", "accuracy", "kernels.score"),
    ("repro.core.kernels", "CompiledEvaluator", "accuracies_batch",
     "kernels.score"),
    ("repro.ml.base", "BaseClassifier", "predict", "ml.predict"),
    ("repro.ml.logistic", "LogisticRegression", "fit", "ml.fit"),
    ("repro.ml.logistic", "LogisticRegression", "fit_weighted_batch",
     "ml.fit"),
    ("repro.ml.logistic", "LogisticRegression", "predict_proba",
     "ml.predict"),
    ("repro.ml.logistic", "LogisticRegression", "predict_batch",
     "ml.predict"),
    ("repro.ml.naive_bayes", "GaussianNaiveBayes", "fit", "ml.fit"),
    ("repro.ml.naive_bayes", "GaussianNaiveBayes", "fit_weighted_batch",
     "ml.fit"),
    ("repro.ml.naive_bayes", "GaussianNaiveBayes", "predict_proba",
     "ml.predict"),
    ("repro.ml.naive_bayes", "GaussianNaiveBayes", "predict_batch",
     "ml.predict"),
    ("repro.store.blob", "CacheStore", "get", "store.get"),
    ("repro.store.blob", "CacheStore", "put", "store.put"),
    ("repro.datasets.schema", "Dataset", "fingerprint",
     "datasets.fingerprint"),
    ("repro.datasets.columnar", "ColumnarDataset", "fingerprint",
     "datasets.fingerprint"),
    ("repro.serving.batcher", "MicroBatcher", "submit", "batcher.submit"),
    ("repro.incremental.auditor", "IncrementalAuditor", "append_rows",
     "incremental.update"),
    ("repro.incremental.auditor", "IncrementalAuditor", "retire_rows",
     "incremental.update"),
    ("repro.incremental.auditor", "IncrementalAuditor", "audit",
     "incremental.audit"),
)

def _solve_attrs(fair):
    """Counters of one solve, read off its FitReport."""
    report = getattr(fair, "report", None)
    if report is None:
        return None
    return {
        "fits_logical": int(report.n_fits),
        "fit_cache_hits": int(report.fit_cache_hits),
        "fit_cache_lookups": int(report.fit_cache_lookups),
        "eval_cache_hits": int(report.eval_cache_hits),
        "eval_cache_lookups": int(report.eval_cache_lookups),
        "store_hits": int(report.store_hits),
        "store_lookups": int(report.store_lookups),
    }


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, run_id=0):
        self.run_id = run_id
        self.spans = []   # [id, parent, name, start_ns, end_ns, run, attrs]
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("bench_span", default=None)
        self._patches = []

    # -- recording -------------------------------------------------------

    def _enter(self, name, attrs=None):
        # the context holds (open span, inside-a-solve flag)
        parent, in_solve = self._current.get() or (None, False)
        if name == "audit":
            name = "audit.final" if in_solve else "audit.check"
        span = [next(self._ids), parent[0] if parent else 0, name,
                time.perf_counter_ns(), 0, self.run_id, attrs]
        token = self._current.set((span, in_solve or name == "solve"))
        return span, token

    def _exit(self, span, token):
        span[4] = time.perf_counter_ns()
        self._current.reset(token)
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Record one harness-level span around the ``with`` body."""
        span, token = self._enter(name, attrs or None)
        try:
            yield span
        finally:
            self._exit(span, token)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, func, name):
        tracer = self
        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def async_wrapper(*args, **kwargs):
                span, token = tracer._enter(name)
                try:
                    return await func(*args, **kwargs)
                finally:
                    tracer._exit(span, token)
            return async_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span, token = tracer._enter(name)
            try:
                out = func(*args, **kwargs)
            finally:
                tracer._exit(span, token)
            if name == "solve":
                span[6] = _solve_attrs(out)
            elif name in ("ml.fit", "ml.predict"):
                span[6] = _size_attrs(func.__name__, args, kwargs)
            elif name == "executor":
                span[6] = {"candidates": len(args[1])}
            elif name == "batcher.predict":
                span[6] = {"requests": len(args[1])}
            return out
        return wrapper

    def install(self):
        """Patch every entry point in :data:`LAYER_POINTS`.

        A point the program no longer has raises :class:`RuntimeError`
        before anything is patched: a layer that silently read as zero
        would look like a saving.  A change that moves or deletes a
        layer updates :data:`LAYER_POINTS` with it.
        """
        if self._patches:
            return self
        found, missing = [], []
        for module_name, cls_name, attr, name in LAYER_POINTS:
            try:
                module = importlib.import_module(module_name)
                owner = module if cls_name is None else getattr(
                    module, cls_name)
                raw = owner.__dict__[attr] if cls_name else getattr(
                    owner, attr)
            except (ImportError, AttributeError, KeyError):
                missing.append(
                    ".".join(p for p in (module_name, cls_name, attr) if p))
            else:
                found.append((owner, attr, raw, name))
        if missing:
            raise RuntimeError(
                f"layer entry points not found: {missing}; update "
                "LAYER_POINTS in bench/tracing.py"
            )
        for owner, attr, raw, name in found:
            if isinstance(raw, staticmethod):
                patched = staticmethod(self._wrap(raw.__func__, name))
            else:
                patched = self._wrap(raw, name)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, patched)
        return self

    def uninstall(self):
        """Restore every patched attribute."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output ----------------------------------------------------------

    def write(self, path):
        """Write the recorded spans as one JSON document."""
        with open(path, "w") as fh:
            json.dump({
                "fields": ["id", "parent", "name", "start_ns", "end_ns",
                           "run", "attrs"],
                "spans": self.spans,
            }, fh)


def _size_attrs(func_name, args, kwargs):
    """Models trained / rows predicted by one estimator call."""
    if func_name == "fit":
        return {"trained": 1}
    if func_name == "fit_weighted_batch":
        w_batch = args[3] if len(args) > 3 else kwargs["w_batch"]
        return {"trained": int(len(w_batch))}
    if func_name == "predict_batch":   # staticmethod (models, X)
        return {"rows": int(len(args[1])) * len(args[0])}
    return {"rows": int(len(args[1]))}


def read_spans(path):
    """Load a span file written by :meth:`Tracer.write`."""
    with open(path) as fh:
        return json.load(fh)["spans"]


def layer_table(spans):
    """Per span name: ``{"calls", "total_s", "self_s", "outer_calls"}``.

    ``outer_calls`` counts spans whose parent is not of the same name,
    so a layer calling itself (``predict`` → ``predict_proba``) counts
    once, and their ``attrs`` are summed into the row as well.
    """
    by_id = {s[0]: s for s in spans}
    child_ns = {}
    for s in spans:
        if s[1]:
            child_ns[s[1]] = child_ns.get(s[1], 0) + (s[4] - s[3])
    table = {}
    for s in spans:
        row = table.setdefault(s[2], {"calls": 0, "outer_calls": 0,
                                      "total_s": 0.0, "self_s": 0.0})
        dur = s[4] - s[3]
        row["calls"] += 1
        row["self_s"] += (dur - child_ns.get(s[0], 0)) / 1e9
        parent = by_id.get(s[1])
        if parent is None or parent[2] != s[2]:
            row["outer_calls"] += 1
            row["total_s"] += dur / 1e9
            for key, value in (s[6] or {}).items():
                row[key] = row.get(key, 0) + value
    return table


def coverage(spans, root="solve"):
    """Share of the ``root`` spans' time covered by their child spans."""
    table = layer_table(spans)
    row = table.get(root)
    if not row or row["total_s"] <= 0:
        return None
    return 1.0 - row["self_s"] / row["total_s"]

"""Layered public facade: :class:`Problem` → :class:`Engine` → :class:`FairModel`.

This is the one way to run a solve.  The three layers separate what to
enforce, how to search, and what gets deployed:

* **Problem** — the declarative statement: which fairness constraints,
  on which groups, at which allowance.  Built from a DSL string
  (``"SP(race) <= 0.03"``), a :class:`FairnessSpec`, or a list of them.
  Canonicalizable (for caching / dedup) and estimator-agnostic.
* **Engine** — the solver: a registered search strategy plus its config,
  and the weighted-training knobs (negative weights, warm start).
  Stateless across ``solve`` calls.
* **FairModel** — the deployable artifact: the fitted classifier bundled
  with its specs and :class:`FitReport`, exposing ``predict`` /
  ``predict_proba`` / ``audit`` / ``save`` / ``load``.

Quickstart::

    from repro.api import Engine, Problem, fit_fair
    from repro.ml import LogisticRegression

    model = fit_fair(LogisticRegression(), "SP <= 0.03", train, val)
    model.audit(test)["accuracy"]
    model.save("fair.pkl")
"""

from __future__ import annotations

import warnings

import numpy as np

from .core.dsl import SpecSet, parse_spec
from .core.evaluation import evaluate_model
from .core.exceptions import SpecificationError
from .core import strategies
from .core.report import FitReport
from .core.spec import bind_specs
from .core.strategies import (
    available_strategies,
    check_option_names,
    get_strategy,
    resolve_strategy_name,
)
from .core.fitter import WeightedFitter
from .datasets.schema import Dataset
from .ml.adapters import resolve_model
from .ml.base import estimator_fingerprint
from .ml.model_selection import train_test_split
from .ml.persistence import load_model, save_model

__all__ = ["Problem", "Engine", "FairModel", "fit_fair"]

#: version of the FairModel-specific payload inside the persistence
#: envelope (distinct from the envelope's own format_version): bump when
#: the artifact's attribute layout changes incompatibly
FAIRMODEL_FORMAT_VERSION = 1

#: ``extra`` keys FairModel.load understands; unknown ones warn, not crash
_KNOWN_EXTRA_KEYS = frozenset({
    "fairmodel_format_version", "spec_canonical", "dataset_fingerprint",
})


def _check_chunk_size(chunk_size):
    """Refuse a row-block size that is not an int >= 1 or ``None``."""
    if chunk_size is not None and int(chunk_size) < 1:
        raise SpecificationError(
            f"chunk_size must be >= 1 or None, got {chunk_size}"
        )


class Problem:
    """A declarative fairness problem: the constraints, nothing else.

    Parameters
    ----------
    spec : str or FairnessSpec or list of FairnessSpec
        A DSL string (``"FPR <= 0.05 and FNR <= 0.05"``), a single spec,
        or a list; strings are parsed with
        :func:`~repro.core.dsl.parse_spec`.
    """

    def __init__(self, spec):
        specs = parse_spec(spec)
        if not specs:
            raise SpecificationError("at least one FairnessSpec is required")
        self.specs = specs

    @classmethod
    def coerce(cls, value):
        """Pass through a Problem, build one from anything spec-like."""
        return value if isinstance(value, cls) else cls(value)

    def to_string(self):
        """DSL rendering (raises for non-DSL metrics/groupings)."""
        return self.specs.to_string()

    def canonical(self):
        """Order- and format-normalized DSL string — a stable cache key."""
        return self.specs.canonical()

    def bind(self, dataset):
        """Induce this problem's pairwise constraints on ``dataset``."""
        return bind_specs(self.specs, dataset)

    def __repr__(self):
        try:
            return f"Problem({self.to_string()!r})"
        except SpecificationError:
            return f"Problem({list(self.specs)!r})"


class FairModel:
    """A deployable fair classifier: model + specs + fit report.

    Decoupled from the solver — it can be pickled, shipped, and audited
    on fresh data without any reference to the engine that produced it.
    """

    def __init__(self, model, specs, report=None, metadata=None):
        self.model = model
        self.specs = SpecSet(parse_spec(specs))
        self.report = report
        self.metadata = dict(metadata or {})

    def predict(self, X):
        """Hard labels from the tuned fair model."""
        return self.model.predict(X)

    def predict_proba(self, X):
        """Class probabilities from the tuned fair model."""
        return self.model.predict_proba(X)

    def predict_batch(self, chunks):
        """Coalesced prediction over several row blocks in one pass.

        The serving layer's micro-batcher stacks the row blocks of all
        concurrent ``/predict`` requests for this model, runs **one**
        :meth:`predict` over the stacked matrix, and splits the labels
        back per block.  Predictions are per-row for every in-repo
        estimator, so the split results are bit-identical to calling
        :meth:`predict` once per block.
        """
        chunks = [np.asarray(c, dtype=np.float64) for c in chunks]
        if not chunks:
            return []
        sizes = [len(c) for c in chunks]
        preds = self.predict(np.vstack(chunks))
        out, offset = [], 0
        for size in sizes:
            out.append(preds[offset:offset + size])
            offset += size
        return out

    def spec_canonical(self):
        """Canonical spec string, or None for non-DSL metrics/groupings."""
        try:
            return self.specs.canonical()
        except SpecificationError:
            return None

    def audit(self, dataset, chunk_size=None):
        """Re-evaluate the model's fairness on any :class:`Dataset`.

        Binds this model's specs to ``dataset`` and returns the
        :func:`~repro.core.evaluation.evaluate_model` dict (accuracy,
        per-constraint disparities/violations, feasibility).
        ``chunk_size`` (an int >= 1, or ``None`` for one block) streams
        the prediction pass in row blocks — identical numbers, bounded
        peak memory; pass it when auditing memory-mapped (columnar)
        datasets.
        """
        _check_chunk_size(chunk_size)
        if len(dataset) == 0:
            raise SpecificationError(
                "cannot audit on an empty dataset: it has zero rows, so "
                "no group statistic is defined"
            )
        constraints = bind_specs(self.specs, dataset)
        return evaluate_model(
            self.model, dataset.X, dataset.y, constraints,
            chunk_size=chunk_size,
        )

    @property
    def lambdas(self):
        """Tuned hyperparameters (None when no report is attached)."""
        return None if self.report is None else self.report.lambdas

    def save(self, path, dataset_fingerprint=None):
        """Serialize this artifact with the versioned model envelope.

        Beyond the generic envelope, the payload embeds the FairModel
        format version and the spec's canonical string, so a registry
        reload can key the artifact without unpickling-then-reparsing
        and a future revision can migrate old files deliberately.

        Parameters
        ----------
        path : path-like
            Destination file.
        dataset_fingerprint : str, optional
            The ``Dataset.fingerprint()`` the model was tuned on.  When
            given it is stamped into the envelope, and a loader that
            knows its expected fingerprint (the serving registry) can
            reject a stale artifact instead of serving it.
        """
        extra = {
            "fairmodel_format_version": FAIRMODEL_FORMAT_VERSION,
            "spec_canonical": self.spec_canonical(),
        }
        if dataset_fingerprint is not None:
            extra["dataset_fingerprint"] = dataset_fingerprint
        save_model(self, path, extra=extra)

    @classmethod
    def load(cls, path, with_extra=False):
        """Load a saved artifact; rejects files holding other objects.

        Unknown ``extra`` keys in the envelope (written by a newer
        revision) warn instead of crashing, so registry evict/reload
        round-trips stay future-proof.

        Parameters
        ----------
        path : path-like
            File written by :meth:`save`.
        with_extra : bool
            When True, return ``(model, extra_dict)`` so the caller can
            inspect the envelope metadata (canonical spec, dataset
            fingerprint) without re-deriving it.

        Returns
        -------
        FairModel or (FairModel, dict)

        Raises
        ------
        SpecificationError
            If the file holds an object that is not a FairModel.
        ModelFormatError
            If the file is not a valid persistence envelope.
        """
        obj, envelope = load_model(path, with_envelope=True)
        if not isinstance(obj, cls):
            raise SpecificationError(
                f"{path!r} holds a {type(obj).__name__}, not a FairModel"
            )
        extra = envelope.get("extra") or {}
        unknown = sorted(set(extra) - _KNOWN_EXTRA_KEYS)
        if unknown:
            warnings.warn(
                f"FairModel payload in {path!r} carries unknown extra "
                f"key(s) {unknown} (written by a newer revision?); "
                f"ignoring them",
                RuntimeWarning,
                stacklevel=2,
            )
        version = extra.get("fairmodel_format_version")
        if version is not None and version > FAIRMODEL_FORMAT_VERSION:
            warnings.warn(
                f"FairModel payload in {path!r} is format "
                f"v{version}; this revision writes "
                f"v{FAIRMODEL_FORMAT_VERSION} — loading anyway",
                RuntimeWarning,
                stacklevel=2,
            )
        return (obj, dict(extra)) if with_extra else obj

    def __repr__(self):
        try:
            spec = self.specs.to_string()
        except SpecificationError:
            spec = f"{len(self.specs)} spec(s)"
        return (
            f"FairModel({type(self.model).__name__}, {spec!r}, "
            f"feasible={None if self.report is None else self.report.feasible})"
        )


class Engine:
    """The solver layer: strategy dispatch over the registry.

    Parameters
    ----------
    strategy : str
        A registered strategy name, or ``"auto"`` (Algorithm 1 for one
        constraint, Algorithm 2 otherwise — resolved at solve time, once
        the bound constraint count is known).
    model : estimator, str, or None
        Default estimator for :meth:`solve` calls that pass none.
        Anything :func:`repro.ml.resolve_model` accepts: a
        :class:`~repro.ml.base.BaseClassifier`, a duck-typed external
        object (adapter-wrapped automatically), an ``"ext:module:Class"``
        import path, a name registered via
        :func:`repro.ml.register_external_model`, or an in-repo short
        name (``"LR"``, ``"RF"``, ...).
    negative_weights, warm_start
        Weighted-training knobs, passed to
        :class:`~repro.core.fitter.WeightedFitter`.
    chunk_size : int or None
        Row-block size of validation scoring and of the final audit:
        prediction and disparity/accuracy counts stream over row blocks,
        with bit-identical results — the knob that lets λ-search run on
        million-row scenarios.  ``None`` (default) scores each split as
        one block.
    store_dir : path-like or None
        Root of a persistent cross-run cache
        (:class:`repro.store.CacheStore`).  When set, every solve (a)
        consults a canonical solution cache first — an exact hit on
        ``SpecSet.canonical()`` × dataset fingerprints × estimator
        fingerprint × strategy config returns the stored
        :class:`FairModel` with zero fits, and a same-shape
        tightened-threshold request warm-starts a ``binary_search`` or
        ``hill_climb`` search from the previous solve's λ — and (b)
        persists/reuses individual fitted models across processes.
        Both are skipped for an estimator without a
        :func:`~repro.ml.base.estimator_fingerprint`.  Traffic is
        reported via ``FitReport.store_hits`` / ``store_lookups``.
    store : repro.store.CacheStore or None
        Share a prebuilt store instead of opening ``store_dir`` (the
        serving layer passes one store to every retune engine so its
        counters aggregate).  Takes precedence over ``store_dir``.
    store_max_bytes : int or None
        Byte budget for a store opened via ``store_dir`` (LRU eviction
        above it); ignored when ``store`` is passed.
    **options
        Strategy knobs, validated against the chosen strategy's config
        dataclass (e.g. ``tau=1e-4`` or ``grid_steps=9``).  A named
        strategy validates them here; ``"auto"`` refuses keys that no
        strategy accepts here and the rest once :meth:`solve` has
        resolved the strategy.
    """

    def __init__(
        self,
        strategy="auto",
        *,
        model=None,
        negative_weights="flip",
        warm_start=False,
        chunk_size=None,
        store_dir=None,
        store=None,
        store_max_bytes=None,
        **options,
    ):
        if strategy != "auto" and strategy not in available_strategies():
            raise SpecificationError(
                f"unknown search strategy {strategy!r}; registered: "
                f"{available_strategies()} (plus 'auto')"
            )
        _check_chunk_size(chunk_size)
        self.strategy = strategy
        self.model = None if model is None else resolve_model(model)
        self.negative_weights = negative_weights
        self.warm_start = warm_start
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        if store is not None:
            self.store = store
        elif store_dir is not None:
            from .store import CacheStore

            self.store = CacheStore(store_dir, max_bytes=store_max_bytes)
        else:
            self.store = None
        self.options = dict(options)
        check_option_names(self.options)
        if strategy != "auto":
            # fail fast on options the chosen strategy does not accept
            get_strategy(strategy).make_config(self.options)

    @staticmethod
    def _split_validation(train, val_fraction, seed):
        idx = np.arange(len(train))
        strat = train.sensitive * 2 + train.y  # keep group×label mix stable
        train_idx, val_idx = train_test_split(
            idx, test_size=val_fraction, seed=seed, stratify=strat
        )
        return train.subset(train_idx), train.subset(val_idx)

    def solve(
        self, problem, estimator=None, train=None, val=None, *,
        val_fraction=0.25, seed=0, warm=None,
    ):
        """Solve ``problem`` for ``estimator`` on ``train``/``val``.

        ``estimator`` accepts anything :func:`repro.ml.resolve_model`
        does (instances, ``"ext:"`` paths, registry/short names); when
        omitted, the engine's ``model=`` default is used.  Returns a
        :class:`FairModel` whose ``report`` is the
        :class:`~repro.core.report.FitReport`.  Raises
        :class:`InfeasibleConstraintError` when no feasible
        hyperparameter setting is found, exactly like the strategies do.

        ``warm`` is an earlier solve's ``(lambdas, swapped)``, the
        :class:`~repro.core.report.FitReport` fields, from which
        ``binary_search`` and ``hill_climb`` start their search (the
        other strategies run cold).  It never changes the solution
        cache key.  When it is ``None``, a single-constraint store
        solve under those two strategies seeds itself from the
        solution cache's warm index (a tightened-threshold re-solve).
        """
        problem = Problem.coerce(problem)
        if estimator is None:
            if self.model is None:
                raise SpecificationError(
                    "no estimator: pass one to solve() or construct the "
                    "Engine with model=..."
                )
            estimator = self.model
        else:
            estimator = resolve_model(estimator)
        if train is None:
            raise SpecificationError("solve() requires a training Dataset")
        if not isinstance(train, Dataset):
            raise SpecificationError(
                "train must be a repro.datasets.Dataset; wrap raw arrays "
                "with Dataset(name=..., X=..., y=..., sensitive=...)"
            )
        if len(train) == 0:
            raise SpecificationError(
                "training dataset has zero rows; solve() needs at least "
                "one row per demographic group to fit and weight a model"
            )
        if val is not None and len(val) == 0:
            raise SpecificationError(
                "validation dataset has zero rows; pass val=None to split "
                "one off the training data instead"
            )
        if val is None:
            train, val = self._split_validation(train, val_fraction, seed)

        train_constraints = problem.bind(train)
        val_constraints = problem.bind(val)
        if [c.label for c in train_constraints] != [
            c.label for c in val_constraints
        ]:
            raise SpecificationError(
                "grouping produced different groups on train and validation "
                "splits; use a deterministic grouping or larger splits"
            )

        name = resolve_strategy_name(self.strategy, len(train_constraints))
        strategy = get_strategy(name)
        config = strategy.make_config(self.options)

        solution_cache = desc = None
        if self.store is not None:
            from .store import SolutionCache

            solution_cache = SolutionCache(self.store)
            desc = self._describe_solution(
                problem, train, val, estimator, name, config,
            )
        if desc is not None:
            hit = solution_cache.get(desc)
            if hit is not None:
                return self._from_solution_cache(hit)
            if (warm is None and strategy.reads_warm
                    and len(train_constraints) == 1):
                near = solution_cache.get_warm(desc)
                if near is not None:
                    warm = ([near["lambda"]], near["swapped"])

        fitter = WeightedFitter(
            estimator,
            train.X,
            train.y,
            train_constraints,
            negative_weights=self.negative_weights,
            warm_start=self.warm_start,
            eval_chunk_size=self.chunk_size,
            store=self.store,
        )

        # called through the module: bench/tracing.py wraps this
        # attribute as the planner layer
        result = strategies.run_plan(
            strategy, fitter, val_constraints, val.X, val.y, config,
            warm=warm,
        )

        report = FitReport(
            strategy=name,
            lambdas=result.lambdas,
            feasible=result.feasible,
            n_fits=fitter.n_fits,
            n_rounds=result.n_rounds,
            history=list(result.history),
            constraint_labels=tuple(c.label for c in val_constraints),
            validation=evaluate_model(
                result.model, val.X, val.y, val_constraints,
                chunk_size=self.chunk_size,
            ),
            swapped=result.swapped,
            fit_cache_hits=fitter.fit_cache_hits,
            fit_cache_lookups=fitter.fit_cache_lookups,
            store_hits=fitter.store_hits,
            store_lookups=fitter.store_lookups,
            fit_paths=dict(fitter.fit_paths),
            train_constraints=list(fitter.constraints),
            val_constraints=list(val_constraints),
        )
        fair = FairModel(
            result.model,
            problem.specs,
            report=report,
            metadata={
                "estimator": type(estimator).__name__,
                "strategy": name,
            },
        )
        if desc is not None:
            solution_cache.put(desc, fair)
            # the index's shape key names the strategy: only a strategy
            # that reads a warm seed would ever look this entry up
            if strategy.reads_warm and len(train_constraints) == 1:
                solution_cache.note_warm(
                    desc, float(result.lambdas[0]), bool(result.swapped),
                )
        return fair

    def _describe_solution(self, problem, train, val, estimator, name,
                           config):
        """The flat dict that keys a solve in the solution cache.

        Covers everything that determines the selected model: the
        canonical spec, both split fingerprints, the
        :func:`~repro.ml.base.estimator_fingerprint`, the strategy and
        its config, and the weighted-training knobs (not the warm seed,
        which alters only the trajectory).  The
        performance-only ``chunk_size`` is deliberately excluded —
        chunked evaluation is bit-identical, so it would only fragment
        the cache.  The ``subsample`` entry is a constant: the knob is
        gone, and the entry keeps the keys of earlier stores.  Returns
        ``None`` for non-canonicalizable (non-DSL) specs and for
        estimators without a fingerprint.
        """
        from dataclasses import asdict

        fingerprint = estimator_fingerprint(estimator)
        if fingerprint is None:
            return None
        try:
            canonical = problem.canonical()
        except SpecificationError:
            return None
        cfg = asdict(config)
        specs = problem.specs
        epsilon = float(specs[0].epsilon) if len(specs) == 1 else None
        return {
            "canonical": canonical,
            "epsilon": epsilon,
            "train": train.fingerprint(),
            "val": val.fingerprint(),
            "estimator": fingerprint,
            "strategy": name,
            "config": repr(sorted(cfg.items())),
            "negative_weights": self.negative_weights,
            "warm_start": bool(self.warm_start),
            "subsample": "None",
        }

    @staticmethod
    def _from_solution_cache(stored):
        """Re-report an exact solution-cache hit for this run.

        The stored artifact's model, specs, and validation metrics are
        exact for this request (the key covers the data fingerprints),
        but the fit counters describe the run that *trained* it — this
        run spent zero fits, which is what the fresh report records.
        """
        from dataclasses import replace

        report = stored.report
        if report is not None:
            report = replace(
                report,
                n_fits=0,
                history=[],
                fit_cache_hits=0,
                fit_cache_lookups=0,
                store_hits=1,
                store_lookups=1,
                fit_paths={"solution": 1},
            )
        return FairModel(
            stored.model, stored.specs, report=report,
            metadata=dict(stored.metadata, solution_cache_hit=True),
        )

    def __repr__(self):
        return (
            f"Engine(strategy={self.strategy!r}, options={self.options!r})"
        )


def fit_fair(
    estimator, spec, train, val=None, *,
    strategy="auto", val_fraction=0.25, seed=0, **engine_options,
):
    """One-call convenience: build an Engine, solve, return the FairModel.

    ``engine_options`` are split by :class:`Engine` itself — fitting
    knobs (``negative_weights``, ``warm_start``) go to the weighted
    fitter, the rest to the strategy config.
    """
    engine = Engine(strategy, **engine_options)
    return engine.solve(
        spec if isinstance(spec, Problem) else Problem(spec),
        estimator, train, val, val_fraction=val_fraction, seed=seed,
    )

"""Fit memoization cache and batch-path bookkeeping.

Covers the :class:`~repro.core.fitter.WeightedFitter` fit cache (keyed
on resolved weight/label vectors), the one fit pass that ``fit`` and
``fit_batch`` share (with the counters read off ``fit_paths``, checked
as a hypothesis property over mixed call sequences through a store),
the one-time warm-start batch-bypass warning, and the FitReport/CLI
plumbing of the hit counters.
"""

from __future__ import annotations

import io
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine, Problem
from repro.cli import main
from repro.core.exceptions import SpecificationError
from repro.core.fairness_metrics import METRIC_FACTORIES
from repro.core.fitter import WeightedFitter
from repro.core.spec import Constraint
from repro.datasets import load
from repro.datasets.synthetic import make_biased_dataset
from repro.ml.logistic import LogisticRegression
from repro.ml.model_selection import train_val_test_split
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.store import CacheStore


def _setup(seed=0, n=240):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(np.int64)
    groups = rng.integers(0, 2, size=n)
    constraints = [
        Constraint(
            metric=METRIC_FACTORIES[name](), epsilon=eps,
            group_names=("a", "b"),
            g1_idx=np.nonzero(groups == 0)[0],
            g2_idx=np.nonzero(groups == 1)[0],
        )
        for name, eps in (("SP", 0.05), ("MR", 0.1))
    ]
    return X, y, constraints


class TestFitCache:
    def test_repeated_lambda_hits_and_returns_same_model(self):
        X, y, constraints = _setup()
        fitter = WeightedFitter(GaussianNaiveBayes(), X, y, constraints)
        lam = np.array([0.7, -0.3])
        first = fitter.fit(lam)
        assert fitter.fit_cache_hits == 0
        again = fitter.fit(lam)
        assert again is first
        assert fitter.fit_cache_hits == 1
        assert fitter.n_fits == 2  # logical fits keep counting

    def test_batch_dedupes_duplicates_within_and_across_calls(self):
        X, y, constraints = _setup()
        fitter = WeightedFitter(GaussianNaiveBayes(), X, y, constraints)
        L = np.array([[0.0, 0.0], [0.5, -0.5], [0.0, 0.0], [0.5, -0.5]])
        models = fitter.fit_batch(L)
        assert fitter.fit_cache_hits == 2          # in-batch duplicates
        assert models[0] is models[2]
        assert models[1] is models[3]
        assert fitter.n_fits == 4
        # the whole grid again: every candidate is a cross-call hit
        again = fitter.fit_batch(L)
        assert fitter.fit_cache_hits == 6
        assert again[1] is models[1]
        # cached batch results equal fresh fits, one fitter per row
        for b in range(len(L)):
            fresh = WeightedFitter(GaussianNaiveBayes(), X, y, constraints)
            (model,) = fresh.fit_batch(L[b:b + 1])
            assert fresh.fit_cache_hits == 0
            assert np.array_equal(models[b].predict(X), model.predict(X))

    def test_serial_and_batch_paths_share_the_cache(self):
        X, y, constraints = _setup()
        fitter = WeightedFitter(GaussianNaiveBayes(), X, y, constraints)
        model = fitter.fit(np.array([0.25, 0.1]))
        batch = fitter.fit_batch(
            np.array([[0.25, 0.1], [1.0, 0.0]])
        )
        assert batch[0] is model
        assert fitter.fit_cache_hits == 1

    def test_estimator_param_change_invalidates(self):
        X, y, constraints = _setup()
        fitter = WeightedFitter(
            LogisticRegression(max_iter=25), X, y, constraints
        )
        lam = np.array([0.4, 0.0])
        fitter.fit(lam)
        fitter.estimator.set_params(max_iter=26)
        fitter.fit(lam)
        assert fitter.fit_cache_hits == 0
        assert fitter.n_fits == 2

    def test_warm_start_disables_cache(self):
        X, y, constraints = _setup()
        fitter = WeightedFitter(
            LogisticRegression(max_iter=25), X, y, constraints,
            warm_start=True,
        )
        lam = np.array([0.4, 0.0])
        a = fitter.fit(lam)
        b = fitter.fit(lam)
        assert a is not b
        assert fitter.fit_cache_lookups == 0
        assert fitter.fit_paths == {"warm": 2}

    def test_cache_is_bounded_with_lru_eviction(self, monkeypatch):
        import repro.core.fitter as fitter_mod

        monkeypatch.setattr(fitter_mod, "FIT_CACHE_MAX", 4)
        X, y, constraints = _setup()
        fitter = WeightedFitter(GaussianNaiveBayes(), X, y, constraints)
        L = np.column_stack([np.linspace(0.1, 1.0, 10), np.zeros(10)])
        fitter.fit_batch(L)
        assert len(fitter._fit_cache) == 4
        # the newest entries survive, the oldest were evicted
        fitter.fit_batch(L[-2:])
        assert fitter.fit_cache_hits == 2
        fitter.fit_batch(L[:1])
        assert fitter.fit_cache_hits == 2  # evicted -> refit, not a hit


class TestBatchPeakMemory:
    """One live copy of the ``(B, n)`` batch while NB trains: the fit
    pass drops the rows that hit with the full batch, and NB fits both
    classes through one reused weight buffer."""

    B = 17

    @pytest.fixture(scope="class")
    def problem(self):
        data = load("scenario:million_row", n=20_000, seed=0)
        return data, Problem("SP <= 0.05").bind(data)

    @pytest.mark.parametrize("cached_zero", [False, True],
                             ids=["all_miss", "cached_zero"])
    def test_peak_stays_under_four_batches(self, problem, cached_zero):
        data, constraints = problem
        fitter = WeightedFitter(
            GaussianNaiveBayes(), data.X, data.y, constraints,
        )
        # the grid's 17 candidates, two with negative weights (so the
        # labels are a real (B, n) matrix); Λ = 0 is the middle row
        L = np.linspace(-0.5, 0.5, self.B)[:, None]
        assert fitter.kernel.weights_batch(L).min() < 0
        if cached_zero:
            fitter.fit(np.zeros(1))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fitter.fit_batch(L)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        batches = peak / (self.B * len(data.y) * 8)
        # 12.0.0 peaked at 4.72 (all miss) and 6.48 (Λ = 0 cached)
        assert batches < 4.0, batches
        assert fitter.fit_paths["batch_protocol"] == self.B - cached_zero


class TestWarmStartBypassWarning:
    def test_warns_once_and_records_serial_path(self):
        X, y, constraints = _setup()
        fitter = WeightedFitter(
            GaussianNaiveBayes(), X, y, constraints, warm_start=True,
        )
        L = np.array([[0.0, 0.0], [0.3, -0.2]])
        with pytest.warns(RuntimeWarning, match="warm_start"):
            fitter.fit_batch(L)
        assert fitter.fit_paths.get("batch_protocol", 0) == 0
        assert fitter.fit_paths.get("serial", 0) == len(L)
        with warnings.catch_warnings():
            warnings.simplefilter("error")       # second call stays silent
            fitter.fit_batch(np.array([[0.1, 0.1]]))

    def test_no_warning_without_warm_start(self):
        X, y, constraints = _setup()
        fitter = WeightedFitter(GaussianNaiveBayes(), X, y, constraints)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fitter.fit_batch(np.array([[0.0, 0.0], [0.3, -0.2]]))
        assert fitter.fit_paths.get("batch_protocol", 0) == 2


class TestReportAndCli:
    def _dataset(self):
        return make_biased_dataset(
            "cache-test", 1600, ("a", "b"), (0.6, 0.4), (0.5, 0.34),
            seed=2, n_informative=2, n_group_correlated=1, n_noise=1,
            n_categorical=0,
        )

    def test_report_exposes_cache_counters(self):
        data = self._dataset()
        strat = data.sensitive * 2 + data.y
        tr, va, _te = train_val_test_split(len(data), seed=0, stratify=strat)
        train, val = data.subset(tr), data.subset(va)
        fair = Engine("grid", grid_steps=6).solve(
            Problem("SP <= 0.12 and MR <= 0.3"), GaussianNaiveBayes(),
            train, val,
        )
        report = fair.report
        assert report.fit_cache_lookups >= report.n_fits - 1
        assert report.fit_cache_hits >= 0
        assert sum(report.fit_paths.values()) >= report.n_fits
        assert report.fit_paths.get("batch_protocol", 0) > 0
        assert "caches:" in report.summary()

    def test_cli_prints_cache_line(self):
        out = io.StringIO()
        code = main(
            [
                "train", "--dataset", "compas", "--two-group",
                "--spec", "SP <= 0.1", "--rows", "1200",
            ],
            out=out,
        )
        text = out.getvalue()
        assert code == 0, text
        assert "caches: fit " in text

    def test_cli_refuses_the_removed_no_fit_cache_flag(self, capsys):
        # removed in 10.0.0: the cache only skips bit-identical refits
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--dataset", "compas", "--no-fit-cache"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_fit_cache_option_is_gone(self):
        with pytest.raises(SpecificationError, match="unknown option"):
            Engine("grid", fit_cache=False)


#: λ rows of the fit-pass property: four distinct vectors plus Λ = 0
POOL = np.array([
    [0.0, 0.0], [0.3, 0.0], [0.0, 0.2], [-0.4, 0.1], [0.5, -0.3],
])

CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("fit"),
                  st.lists(st.integers(0, len(POOL) - 1),
                           min_size=1, max_size=1)),
        st.tuples(st.just("fit_batch"),
                  st.lists(st.integers(0, len(POOL) - 1),
                           min_size=1, max_size=6)),
    ),
    min_size=1, max_size=8,
)


def _call(fitter, kind, rows):
    if kind == "fit":
        return [fitter.fit(POOL[rows[0]])]
    return fitter.fit_batch(POOL[rows])


class TestOneFitPass:
    @settings(max_examples=30, deadline=None)
    @given(calls=CALLS)
    def test_counters_are_read_off_fit_paths(self, calls):
        X, y, constraints = _setup()
        with tempfile.TemporaryDirectory() as root:
            store = CacheStore(root)
            fitter = WeightedFitter(
                GaussianNaiveBayes(), X, y, constraints, store=store,
            )
            seen, requested = {}, 0
            for kind, rows in calls:
                models = _call(fitter, kind, rows)
                requested += len(rows)
                for row, model in zip(rows, models):
                    assert seen.setdefault(row, model) is model
                paths = fitter.fit_paths
                assert sum(paths.values()) == fitter.n_fits == requested
                assert fitter.fit_cache_lookups == requested
                assert fitter.fit_cache_hits == requested - len(seen)
                assert fitter.store_lookups == len(seen)
                assert fitter.store_hits == 0

            # a second fitter on the same store trains nothing
            replay = WeightedFitter(
                GaussianNaiveBayes(), X, y, constraints, store=store,
            )
            for kind, rows in calls:
                for row, model in zip(rows, _call(replay, kind, rows)):
                    assert np.array_equal(
                        model.predict(X), seen[row].predict(X)
                    )
            assert set(replay.fit_paths) <= {"store", "cached"}
            assert replay.store_hits == len(seen)
            assert replay.n_fits == requested

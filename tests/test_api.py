"""Tests for the layered facade: Problem → Engine → FairModel."""

import numpy as np
import pytest

from repro import (
    Engine,
    FairModel,
    FairnessSpec,
    FitReport,
    HistoryPoint,
    Problem,
    SpecificationError,
    fit_fair,
)
from repro.core.evaluation import (
    disparity_vector,
    evaluate_model,
    max_violation,
)
from repro.core.spec import bind_specs
from repro.ml import LogisticRegression


class TestProblem:
    def test_from_dsl_string(self):
        p = Problem("SP <= 0.03")
        assert len(p.specs) == 1
        assert p.to_string() == "SP <= 0.03"

    def test_from_spec_objects(self):
        p = Problem([FairnessSpec("SP", 0.03), FairnessSpec("FNR", 0.05)])
        assert p.canonical() == "FNR <= 0.05 and SP <= 0.03"

    def test_empty_rejected(self):
        with pytest.raises(SpecificationError, match="at least one"):
            Problem([])

    def test_coerce_passthrough(self):
        p = Problem("SP <= 0.03")
        assert Problem.coerce(p) is p
        assert isinstance(Problem.coerce("MR <= 0.1"), Problem)

    def test_bind(self, two_group_data):
        constraints = Problem("SP <= 0.05").bind(two_group_data)
        assert len(constraints) == 1


class TestEngineSolve:
    @pytest.fixture(scope="class")
    def solved(self, two_group_splits):
        train, val, _ = two_group_splits
        fm = Engine("auto").solve(
            "SP <= 0.05", LogisticRegression(max_iter=200), train, val,
        )
        return fm, val

    def test_returns_fair_model_with_report(self, solved):
        fm, _ = solved
        assert isinstance(fm, FairModel)
        assert isinstance(fm.report, FitReport)
        assert fm.report.strategy == "binary_search"

    def test_report_shape_is_uniform(self, solved):
        fm, _ = solved
        report = fm.report
        assert report.lambdas.shape == (1,)
        assert report.n_rounds == 0
        assert report.n_fits == len(report.history)
        assert report.constraint_labels == tuple(report.disparities)
        assert isinstance(report.history[0], HistoryPoint)
        assert report.history[0].lam == 0.0

    def test_history_points_are_named(self, solved):
        fm, _ = solved
        point = fm.report.history[0]
        assert point.lam == point[0] == 0.0
        assert point.accuracy == point[2]

    def test_report_summary_renders(self, solved):
        fm, _ = solved
        text = fm.report.summary()
        assert "binary_search" in text and "lambdas" in text

    def test_raw_arrays_rejected(self, two_group_data):
        with pytest.raises(SpecificationError, match="Dataset"):
            Engine().solve(
                "SP <= 0.05", LogisticRegression(), two_group_data.X,
            )

    def test_auto_validation_split(self, two_group_data):
        fm = Engine().solve(
            "SP <= 0.05", LogisticRegression(max_iter=200), two_group_data,
        )
        assert fm.report.feasible

    def test_multi_constraint_auto(self, three_group_splits):
        train, val, _ = three_group_splits
        fm = Engine().solve(
            "SP <= 0.06", LogisticRegression(max_iter=200), train, val,
        )
        assert fm.report.strategy == "hill_climb"
        assert fm.report.lambdas.shape == (3,)


class TestRemovedExecutionKnobs:
    """One execution path: the old selector knobs are unknown options."""

    @pytest.mark.parametrize("knob", [
        {"engine": "compiled"}, {"backend": "serial"}, {"n_jobs": 2},
    ])
    def test_engine_refuses_removed_knobs(self, knob):
        with pytest.raises(SpecificationError, match="unknown option"):
            Engine("auto", **knob)


class TestRemovedSolverSurface:
    """One solver entry point: the trainer shim and its knobs are gone."""

    def test_strict_is_an_unknown_option(self, two_group_splits):
        train, val, _ = two_group_splits
        with pytest.raises(SpecificationError, match="unknown option"):
            Engine("auto", strict=False)
        with pytest.raises(SpecificationError, match="unknown option"):
            fit_fair(
                LogisticRegression(), "SP <= 0.05", train, val, strict=True,
            )

    @pytest.mark.parametrize("option", [
        {"warm_lambda": 0.5}, {"warm_swapped": True},
        {"warm_lambdas": (0.1, 0.2)},
    ])
    def test_warm_seed_is_not_an_option(self, option):
        # a warm seed is an input of one solve (Engine.solve(warm=...)),
        # not a strategy knob: no registered strategy accepts it
        with pytest.raises(SpecificationError, match="unknown option"):
            Engine("auto", **option)

    def test_race_is_an_unknown_strategy(self):
        with pytest.raises(SpecificationError,
                           match="unknown search strategy 'race'"):
            Engine("race")

    def test_fit_fair_refuses_race_by_name(self, two_group_splits):
        train, val, _ = two_group_splits
        with pytest.raises(SpecificationError,
                           match="unknown search strategy 'race'"):
            fit_fair(
                LogisticRegression(), "SP <= 0.05", train, val,
                strategy="race",
            )

    @pytest.mark.parametrize("option", [
        {"subsample": 0.5}, {"strategies": ("grid", "linear")},
        {"interleave": 2},
    ])
    def test_removed_knobs_are_unknown_options(self, option):
        # the subsample fraction and race's two knobs (13.0.0)
        name = next(iter(option))
        with pytest.raises(SpecificationError,
                           match=rf"unknown option\(s\) \['{name}'\]"):
            Engine(**option)

    def test_second_driver_and_result_types_are_gone(self):
        # one driver (run_plan) and one result type (TuneResult)
        from repro.core import executor, planner
        from repro.core.fitter import WeightedFitter
        from repro.core.strategies import SearchStrategy

        for owner, name in (
            (planner, "SingleTuneResult"), (planner, "MultiTuneResult"),
            (executor, "run_race"), (WeightedFitter, "spawn"),
            (WeightedFitter, "fit_unweighted"), (SearchStrategy, "run"),
            (SearchStrategy, "solve"),
        ):
            assert not hasattr(owner, name), name

    def test_trainer_is_not_exported(self):
        import repro
        import repro.core

        assert not hasattr(repro, "OmniFair")
        assert not hasattr(repro.core, "OmniFair")


class TestFairModel:
    def test_audit_matches_evaluate_model(self, two_group_splits):
        train, val, test = two_group_splits
        fm = fit_fair(
            LogisticRegression(max_iter=200), "SP <= 0.05", train, val,
        )
        audit = fm.audit(test)
        constraints = bind_specs(fm.specs, test)
        expected = evaluate_model(fm.model, test.X, test.y, constraints)
        assert audit == expected

    def test_predict_shapes(self, two_group_splits):
        train, val, test = two_group_splits
        fm = fit_fair(
            LogisticRegression(max_iter=200), "SP <= 0.05", train, val,
        )
        assert fm.predict(test.X).shape == (len(test),)
        assert fm.predict_proba(test.X).shape == (len(test), 2)
        assert fm.lambdas.shape == (1,)

    def test_fit_fair_passes_engine_options(self, two_group_splits):
        train, val, _ = two_group_splits
        fm = fit_fair(
            LogisticRegression(max_iter=200), "SP <= 0.05", train, val,
            strategy="grid", grid_steps=8,
        )
        assert fm.report.strategy == "grid"

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_audit_refuses_bad_chunk_size_by_name(self, two_group_splits,
                                                  chunk_size):
        train, val, test = two_group_splits
        fm = fit_fair(
            LogisticRegression(max_iter=200), "SP <= 0.05", train, val,
        )
        with pytest.raises(
            SpecificationError,
            match=f"chunk_size must be >= 1 or None, got {chunk_size}",
        ):
            fm.audit(test, chunk_size=chunk_size)


class TestEvaluationHelpers:
    def test_max_violation_empty_raises(self):
        y = np.array([0, 1])
        with pytest.raises(SpecificationError, match="at least one"):
            max_violation(y, y, [])

    def test_disparity_vector_exported(self, two_group_data):
        from repro.core import evaluation

        assert "disparity_vector" in evaluation.__all__
        constraints = Problem("SP <= 0.05").bind(two_group_data)
        pred = np.zeros(len(two_group_data), dtype=np.int64)
        vec = disparity_vector(two_group_data.y, pred, constraints)
        assert vec.shape == (1,)


class TestEmptyDatasetGuards:
    def _empty(self):
        from repro.datasets.schema import Dataset

        return Dataset(
            name="empty", X=np.zeros((0, 3)),
            y=np.zeros(0, dtype=np.int64),
            sensitive=np.zeros(0, dtype=np.int64),
            sensitive_attribute="g",
        )

    def test_solve_rejects_zero_row_train(self):
        with pytest.raises(SpecificationError, match="zero rows"):
            Engine("auto").solve(
                "SP <= 0.05", LogisticRegression(), self._empty(),
            )

    def test_solve_rejects_zero_row_val(self, two_group_splits):
        train, _, _ = two_group_splits
        with pytest.raises(SpecificationError, match="zero rows"):
            Engine("auto").solve(
                "SP <= 0.05", LogisticRegression(max_iter=200),
                train, self._empty(),
            )

    def test_audit_rejects_zero_row_dataset(self, two_group_splits):
        train, val, _ = two_group_splits
        fm = fit_fair(
            LogisticRegression(max_iter=200), "SP <= 0.05", train, val,
        )
        with pytest.raises(SpecificationError, match="zero rows"):
            fm.audit(self._empty())


class TestPredictBatch:
    @pytest.fixture(scope="class")
    def fair(self, two_group_splits):
        train, val, _ = two_group_splits
        return fit_fair(
            LogisticRegression(max_iter=200), "SP <= 0.05", train, val,
        )

    def test_coalesced_equals_per_chunk(self, fair, two_group_splits):
        _, _, test = two_group_splits
        chunks = [test.X[:5], test.X[5:6], test.X[6:20]]
        batched = fair.predict_batch(chunks)
        assert len(batched) == 3
        for chunk, got in zip(chunks, batched):
            assert got.shape == (len(chunk),)
            assert np.array_equal(got, fair.predict(chunk))

    def test_empty_list_is_empty(self, fair):
        assert fair.predict_batch([]) == []

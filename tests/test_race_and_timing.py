"""The ``race`` meta-strategy, history timing fields, and round_times."""

import importlib.util
import pathlib
import pickle

import numpy as np
import pytest

from repro.analysis.timing import round_times
from repro.api import Engine
from repro.core.exceptions import InfeasibleConstraintError
from repro.core.history import HistoryPoint
from repro.ml import GaussianNaiveBayes


class TestRace:
    def test_race_single_constraint(self, two_group_splits):
        train, val, _ = two_group_splits
        fm = Engine("race").solve(
            "SP <= 0.1", GaussianNaiveBayes(), train, val,
        )
        assert fm.report.strategy == "race"
        assert fm.report.feasible
        assert abs(list(fm.report.disparities.values())[0]) <= 0.1 + 1e-9
        # the report reflects the whole race's budget, not one component
        assert fm.report.n_fits >= len(fm.report.history)

    def test_race_multi_constraint(self, three_group_splits):
        train, val, _ = three_group_splits
        fm = Engine("race", strategies=("hill_climb", "cmaes")).solve(
            "SP <= 0.1", GaussianNaiveBayes(), train, val,
        )
        assert fm.report.feasible
        assert fm.report.lambdas.shape == (3,)

    def test_race_matches_a_component_lambda(self, two_group_splits):
        """A one-component race is that component's standalone solve:
        same λ, budget, cache traffic and history."""
        train, val, _ = two_group_splits
        racer = Engine("race", strategies=("binary_search",)).solve(
            "SP <= 0.1", GaussianNaiveBayes(), train, val,
        ).report
        solo = Engine("binary_search").solve(
            "SP <= 0.1", GaussianNaiveBayes(), train, val,
        ).report
        np.testing.assert_allclose(
            racer.lambdas, solo.lambdas, rtol=0, atol=0,
        )
        assert racer.n_fits == solo.n_fits
        assert racer.fit_cache_hits == solo.fit_cache_hits
        assert racer.fit_paths == solo.fit_paths
        assert racer.swapped == solo.swapped
        assert [h.lam for h in racer.history] == [
            h.lam for h in solo.history
        ]

    @pytest.mark.parametrize("components", [(), ("binary_search",)])
    def test_race_runs_cold_under_a_warm_seed(self, two_group_splits,
                                              components):
        """Forked contexts carry no seed: a warm race is the cold race."""
        train, val, _ = two_group_splits
        solo = Engine("binary_search").solve(
            "SP <= 0.1", GaussianNaiveBayes(), train, val,
        ).report
        warm = (solo.lambdas / 2, solo.swapped)
        # the seed is live: binary_search alone takes the warm path
        seeded = Engine("binary_search").solve(
            "SP <= 0.1", GaussianNaiveBayes(), train, val, warm=warm,
        ).report
        assert seeded.history[1].lam != solo.history[1].lam
        engine = Engine("race", strategies=components)
        cold = engine.solve(
            "SP <= 0.1", GaussianNaiveBayes(), train, val,
        ).report
        raced = engine.solve(
            "SP <= 0.1", GaussianNaiveBayes(), train, val, warm=warm,
        ).report
        assert raced.lambdas.tolist() == cold.lambdas.tolist()
        assert [h.lam for h in raced.history] == [
            h.lam for h in cold.history
        ]
        assert raced.fit_paths == cold.fit_paths

    def test_race_shares_fit_cache(self, two_group_splits):
        """Components racing the same λ values hit each other's fits."""
        train, val, _ = two_group_splits
        fm = Engine("race", strategies=("grid", "linear")).solve(
            "SP <= 0.1", GaussianNaiveBayes(), train, val,
        )
        # both components fit Λ=0 at minimum; the second must hit
        assert fm.report.fit_cache_hits >= 1

    def test_race_all_infeasible_raises(self, two_group_splits):
        train, val, _ = two_group_splits
        with pytest.raises(InfeasibleConstraintError,
                           match="race.*grid: .*binary_search: "):
            Engine("race", strategies=("grid", "binary_search")).solve(
                "SP <= 0.000001", GaussianNaiveBayes(), train, val,
            )

    def test_race_rejects_nonpositive_interleave(self):
        from repro.core.exceptions import SpecificationError

        # refused when the engine is built, not when a solve (or a
        # /retune job) runs
        with pytest.raises(SpecificationError, match="interleave"):
            Engine("race", interleave=0)

    def test_race_nests(self):
        """A race component may itself be a race: each batch keeps the
        innermost component's context (its signs and history), so the
        solve is unchanged, swap included."""
        from capture_trajectories import splits_for

        train, val = splits_for("label_noise")
        flat, nested = (
            Engine("race", strategies=names).solve(
                "SP <= 0.05", GaussianNaiveBayes(), train, val,
            ).report
            for names in ((), ("race",))
        )
        assert flat.swapped and nested.swapped
        assert nested.lambdas.tolist() == flat.lambdas.tolist()
        assert [h.lam for h in nested.history] == [
            h.lam for h in flat.history
        ]
        assert (nested.n_fits, nested.fit_cache_hits) == (
            flat.n_fits, flat.fit_cache_hits,
        )

    def test_race_closes_losing_components(self, two_group_splits):
        """The winner ends the race; every other plan is closed."""
        from repro.core.planner import CandidateBatch
        from repro.core.strategies import (
            LinearConfig,
            SearchStrategy,
            register_strategy,
            unregister_strategy,
        )

        closed = []

        @register_strategy
        class Endless(SearchStrategy):
            name = "endless_tmp"
            config_cls = LinearConfig

            def plan(self, ctx, config):
                try:
                    while True:
                        yield CandidateBatch([[0.0]], record=False)
                finally:
                    closed.append(ctx)

        train, val, _ = two_group_splits
        try:
            fm = Engine(
                "race", strategies=("endless_tmp", "binary_search"),
            ).solve("SP <= 0.1", GaussianNaiveBayes(), train, val)
        finally:
            unregister_strategy("endless_tmp")
        assert fm.report.feasible
        assert len(closed) == 1
        # the loser's Λ = 0 fits were cache hits on the one shared fitter
        assert fm.report.fit_cache_hits >= 1


def _bench_tracer():
    """``bench/tracing.py``'s :class:`Tracer`, loaded by file path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


class TestSingleDriver:
    def test_every_race_batch_runs_under_the_one_planner_span(self):
        """``run_plan`` is the only driver, reached through the
        ``repro.core.strategies`` attribute the benchmark tracer wraps:
        a race is one planner span holding every executor span."""
        from capture_trajectories import splits_for

        train, val = splits_for("label_noise")
        tracer = _bench_tracer()().install()
        try:
            Engine("race").solve(
                "SP <= 0.05", GaussianNaiveBayes(), train, val,
            )
        finally:
            tracer.uninstall()
        parent_of = {span[0]: span[1] for span in tracer.spans}
        planners = [span[0] for span in tracer.spans if span[2] == "planner"]
        executors = [span for span in tracer.spans if span[2] == "executor"]
        assert len(planners) == 1
        assert executors
        for span in executors:
            ancestor = span[1]
            while ancestor and ancestor != planners[0]:
                ancestor = parent_of[ancestor]
            assert ancestor == planners[0]


class TestHistoryTiming:
    def test_history_points_carry_timing_fields(self, two_group_splits):
        train, val, _ = two_group_splits
        fm = Engine("grid", grid_steps=4).solve(
            "SP <= 0.2", GaussianNaiveBayes(), train, val,
        )
        for point in fm.report.history:
            assert point.wall_time_s is not None
            assert point.wall_time_s >= 0.0
            assert point.batch_id is not None

    def test_old_three_field_pickles_load(self):
        """Pre-ISSUE-5 histories round-trip into the extended tuple."""
        legacy = pickle.dumps((0.5, -0.02, 0.91))
        lam, disparity, accuracy = pickle.loads(legacy)
        point = HistoryPoint(lam, disparity, accuracy)
        assert point.wall_time_s is None
        assert point.batch_id is None
        # positional unpacking of the first three fields still works
        a, b, c, *_ = point
        assert (a, b, c) == (0.5, -0.02, 0.91)

    def test_round_times_aggregates_by_batch(self, two_group_splits):
        train, val, _ = two_group_splits
        fm = Engine("binary_search").solve(
            "SP <= 0.1", GaussianNaiveBayes(), train, val,
        )
        rounds = round_times(fm.report.history)
        assert rounds, "no rounds attributed"
        assert sum(n for _, _, n in rounds) == len(fm.report.history)
        total = sum(seconds for _, seconds, n in rounds)
        assert total > 0
        # batch ids are monotone
        ids = [batch_id for batch_id, _, _ in rounds]
        assert ids == sorted(ids)

    def test_round_times_skips_legacy_points(self):
        history = [
            HistoryPoint(0.1, -0.05, 0.9),            # legacy: no timing
            HistoryPoint(0.2, -0.01, 0.91, 0.5, 7),
            HistoryPoint(0.3, 0.01, 0.92, 0.25, 7),
        ]
        assert round_times(history) == [(7, 0.75, 2)]

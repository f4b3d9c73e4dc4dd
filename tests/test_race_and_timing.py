"""The one plan driver under the benchmark tracer, history timing
fields, and round_times."""

import importlib.util
import pathlib
import pickle

from repro.analysis.timing import round_times
from repro.api import Engine
from repro.core.history import HistoryPoint
from repro.ml import GaussianNaiveBayes


def _bench_tracer():
    """``bench/tracing.py``'s :class:`Tracer`, loaded by file path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


class TestSingleDriver:
    def test_every_batch_runs_under_the_one_planner_span(self):
        """``run_plan`` is the only driver, reached through the
        ``repro.core.strategies`` attribute the benchmark tracer wraps:
        a hill climb over three groups is one planner span holding
        every executor span of its many batches."""
        from capture_trajectories import splits_for

        train, val = splits_for("group_sweep")
        tracer = _bench_tracer()().install()
        try:
            Engine("hill_climb").solve(
                "SP <= 0.08", GaussianNaiveBayes(), train, val,
            )
        finally:
            tracer.uninstall()
        parent_of = {span[0]: span[1] for span in tracer.spans}
        planners = [span[0] for span in tracer.spans if span[2] == "planner"]
        executors = [span for span in tracer.spans if span[2] == "executor"]
        assert len(planners) == 1
        assert len(executors) > 1   # a ladder or bisection step each
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

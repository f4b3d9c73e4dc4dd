"""The ``race`` meta-strategy, history timing fields, and round_times."""

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
        """The winner's λ equals what that component finds standalone."""
        train, val, _ = two_group_splits
        racer = Engine("race", strategies=("binary_search",)).solve(
            "SP <= 0.1", GaussianNaiveBayes(), train, val,
        )
        solo = Engine("binary_search").solve(
            "SP <= 0.1", GaussianNaiveBayes(), train, val,
        )
        np.testing.assert_allclose(
            racer.report.lambdas, solo.report.lambdas, rtol=0, atol=0,
        )

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
        with pytest.raises(InfeasibleConstraintError, match="race"):
            Engine("race", strategies=("grid",)).solve(
                "SP <= 0.000001", GaussianNaiveBayes(), train, val,
            )

    def test_race_rejects_nonpositive_interleave(self, two_group_splits):
        from repro.core.exceptions import SpecificationError

        train, val, _ = two_group_splits
        with pytest.raises(SpecificationError, match="interleave"):
            Engine("race", interleave=0).solve(
                "SP <= 0.1", GaussianNaiveBayes(), train, val,
            )

    def test_race_rejects_legacy_solve_component(self, two_group_splits):
        from repro.core.exceptions import SpecificationError
        from repro.core.strategies import (
            SearchStrategy,
            register_strategy,
            unregister_strategy,
        )

        @register_strategy
        class LegacyOnly(SearchStrategy):
            name = "legacy_only_tmp"

            def solve(self, fitter, val_constraints, X_val, y_val,
                      config):
                raise AssertionError("unreachable")

        train, val, _ = two_group_splits
        try:
            with pytest.raises(SpecificationError,
                               match="ask/tell planner"):
                Engine("race", strategies=("legacy_only_tmp",)).solve(
                    "SP <= 0.1", GaussianNaiveBayes(), train, val,
                )
        finally:
            unregister_strategy("legacy_only_tmp")


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

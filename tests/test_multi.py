"""Tests for Algorithm 2 (hill climbing over Λ) and grid-search baseline."""

import numpy as np
import pytest

from repro.api import fit_fair
from repro.core import run_plan
from repro.core.exceptions import InfeasibleConstraintError
from repro.core.fitter import WeightedFitter
from repro.core.spec import FairnessSpec, bind_specs
from repro.core.strategies import HillClimbConfig, get_strategy
from repro.ml import LogisticRegression


def _solve(train, val, specs, strategy="hill_climb", **options):
    return fit_fair(
        LogisticRegression(max_iter=200), specs, train, val,
        strategy=strategy, **options,
    )


class TestHillClimb:
    def test_three_group_sp_feasible(self, three_group_splits):
        train, val, _ = three_group_splits
        specs = [FairnessSpec("SP", 0.05)]
        vc = bind_specs(specs, val)
        assert len(vc) == 3
        fm = _solve(train, val, specs)
        assert fm.report.feasible
        pred = fm.predict(val.X)
        for c in vc:
            assert abs(c.disparity(val.y, pred)) <= c.epsilon + 1e-9

    def test_two_metrics_simultaneously(self, two_group_splits):
        # SP and FNR are coupled on this dataset: tight ε for both is
        # genuinely infeasible (the Table 7 N/A phenomenon), so the test
        # uses an allowance a dense Λ scan confirms is reachable
        train, val, _ = two_group_splits
        specs = [FairnessSpec("SP", 0.12), FairnessSpec("FNR", 0.12)]
        fm = _solve(train, val, specs)
        pred = fm.predict(val.X)
        for c in bind_specs(specs, val):
            assert abs(c.disparity(val.y, pred)) <= c.epsilon + 1e-9

    def test_lambdas_vector_length(self, three_group_splits):
        train, val, _ = three_group_splits
        fm = _solve(train, val, [FairnessSpec("SP", 0.05)])
        assert fm.lambdas.shape == (3,)

    def test_already_feasible_returns_immediately(self, three_group_splits):
        train, val, _ = three_group_splits
        report = _solve(train, val, [FairnessSpec("SP", 0.9)]).report
        assert report.n_rounds == 0
        assert np.array_equal(report.lambdas, np.zeros(3))

    def test_budget_exhaustion_raises(self, three_group_splits):
        train, val, _ = three_group_splits
        # ε=0 on noisy data is effectively unreachable
        with pytest.raises(InfeasibleConstraintError) as excinfo:
            _solve(train, val, [FairnessSpec("SP", 0.0)], max_rounds=2)
        assert excinfo.value.best_model is not None

    def test_mismatched_constraint_lists_raise(self, three_group_splits):
        # the engine binds both splits itself; a hand-driven plan with
        # unequal bindings is refused before any fit
        train, val, _ = three_group_splits
        specs = [FairnessSpec("SP", 0.05)]
        fitter = WeightedFitter(
            LogisticRegression(max_iter=200), train.X, train.y,
            bind_specs(specs, train),
        )
        vc = bind_specs(specs, val)
        with pytest.raises(ValueError, match="differ in length"):
            run_plan(
                get_strategy("hill_climb"), fitter, vc[:2], val.X, val.y,
                HillClimbConfig(),
            )
        assert fitter.n_fits == 0

    def test_history_tracks_rounds(self, three_group_splits):
        train, val, _ = three_group_splits
        report = _solve(train, val, [FairnessSpec("SP", 0.05)]).report
        assert len(report.history) == report.n_rounds + 1


class TestGridSearch:
    def test_grid_finds_feasible_when_loose(self, three_group_splits):
        train, val, _ = three_group_splits
        specs = [FairnessSpec("SP", 0.1)]
        fm = _solve(train, val, specs, "grid", grid_max=0.2, grid_steps=5)
        pred = fm.predict(val.X)
        for c in bind_specs(specs, val):
            assert abs(c.disparity(val.y, pred)) <= c.epsilon + 1e-9

    def test_grid_fit_count_is_exponential(self, two_group_splits):
        train, val, _ = two_group_splits
        specs = [FairnessSpec("SP", 0.2), FairnessSpec("FNR", 0.2)]
        fm = _solve(train, val, specs, "grid", grid_max=0.5, grid_steps=3)
        assert fm.report.n_fits >= 3**2

    def test_infeasible_grid_raises(self, three_group_splits):
        train, val, _ = three_group_splits
        with pytest.raises(InfeasibleConstraintError):
            _solve(
                train, val, [FairnessSpec("SP", 0.0)], "grid",
                grid_max=0.1, grid_steps=2,
            )

    def test_hill_climb_cheaper_than_grid(self, three_group_splits):
        """The Table 8 claim: HC needs far fewer fits than a grid."""
        train, val, _ = three_group_splits
        specs = [FairnessSpec("SP", 0.1)]
        hc = _solve(train, val, specs)
        grid = _solve(train, val, specs, "grid", grid_max=0.2, grid_steps=5)
        assert hc.report.n_fits < grid.report.n_fits

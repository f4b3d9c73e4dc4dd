"""Tests for Algorithm 1 (single-λ tuning) and the monotonicity it relies on."""

import numpy as np
import pytest

from repro.api import fit_fair
from repro.core.exceptions import InfeasibleConstraintError
from repro.core.fitter import WeightedFitter
from repro.core.spec import FairnessSpec, bind_specs
from repro.ml import LogisticRegression


@pytest.fixture()
def sp_setup(two_group_splits):
    train, val, _ = two_group_splits
    spec = FairnessSpec("SP", 0.03)
    vc = bind_specs([spec], val)[0]
    return spec, train, val, vc


def _solve(spec, train, val, **options):
    return fit_fair(
        LogisticRegression(max_iter=200), spec, train, val,
        strategy="binary_search", **options,
    )


class TestTuneSingleLambdaSP:
    def test_returns_feasible_model(self, sp_setup):
        spec, train, val, vc = sp_setup
        fm = _solve(spec, train, val)
        assert fm.report.feasible
        pred = fm.predict(val.X)
        # evaluate with the *original* orientation constraint
        assert abs(vc.disparity(val.y, pred)) <= 0.03 + 1e-9

    def test_history_records_fits(self, sp_setup):
        spec, train, val, _ = sp_setup
        report = _solve(spec, train, val).report
        assert len(report.history) == report.n_fits
        assert report.history[0][0] == 0.0  # first fit is λ=0

    def test_loose_epsilon_short_circuits(self, two_group_splits):
        train, val, _ = two_group_splits
        spec = FairnessSpec("SP", 0.9)  # trivially satisfied
        report = _solve(spec, train, val).report
        assert report.lambdas.tolist() == [0.0]
        assert report.n_fits == 1  # only the unconstrained fit

    def test_tighter_epsilon_costs_accuracy(self, two_group_splits):
        train, val, _ = two_group_splits
        accs = {}
        for eps in (0.2, 0.02):
            pred = _solve(FairnessSpec("SP", eps), train, val).predict(val.X)
            accs[eps] = float(np.mean(pred == val.y))
        assert accs[0.2] >= accs[0.02] - 0.01

    def test_infeasible_raises_with_best_model(self, sp_setup):
        # λ capped far below the feasible region: the probe cannot move the
        # disparity at all, so Algorithm 1 must report infeasibility
        spec, train, val, _ = sp_setup
        with pytest.raises(InfeasibleConstraintError) as excinfo:
            _solve(spec, train, val, lambda_max=1e-6)
        assert excinfo.value.best_model is not None


class TestFDRLinearSearchPath:
    def test_parameterized_metric_feasible(self, two_group_splits):
        train, val, _ = two_group_splits
        spec = FairnessSpec("FDR", 0.05)
        vc = bind_specs([spec], val)[0]
        fitter = WeightedFitter(LogisticRegression(max_iter=200), train.X,
                                train.y, bind_specs([spec], train))
        assert fitter.parameterized
        fm = _solve(spec, train, val, delta=0.02)
        pred = fm.predict(val.X)
        assert abs(vc.disparity(val.y, pred)) <= 0.05 + 1e-9


class TestEmpiricalMonotonicity:
    """Lemma 2's observable consequence: FP(θ*(λ)) is ~monotone in λ."""

    def test_sp_disparity_increases_with_lambda(self, two_group_splits):
        train, _, _ = two_group_splits
        spec = FairnessSpec("SP", 0.03)
        tc = bind_specs([spec], train)
        constraint = tc[0]
        fitter = WeightedFitter(LogisticRegression(max_iter=300), train.X,
                                train.y, tc)
        disparities = []
        for lam in (-0.3, -0.1, 0.0, 0.1, 0.3):
            model = fitter.fit(np.array([lam]))
            pred = model.predict(train.X)
            disparities.append(constraint.disparity(train.y, pred))
        # allow small violations from optimization noise
        diffs = np.diff(disparities)
        assert np.all(diffs > -0.02)
        assert disparities[-1] > disparities[0]

    def test_accuracy_peaks_at_lambda_zero(self, two_group_splits):
        train, _, _ = two_group_splits
        spec = FairnessSpec("SP", 0.03)
        tc = bind_specs([spec], train)
        fitter = WeightedFitter(LogisticRegression(max_iter=300), train.X,
                                train.y, tc)
        accs = {}
        for lam in (-0.5, 0.0, 0.5):
            model = fitter.fit(np.array([lam]))
            accs[lam] = float(np.mean(model.predict(train.X) == train.y))
        assert accs[0.0] >= accs[-0.5] - 0.01
        assert accs[0.0] >= accs[0.5] - 0.01


class TestLambdaGridSearch:
    # a single-λ grid sweeps linspace(-grid_max, grid_max, 2·grid_steps + 1)

    def test_grid_finds_feasible(self, sp_setup):
        # a fine grid is needed: the feasible λ band for a tight ε can be
        # narrower than a coarse grid step (the Table 8 phenomenon)
        spec, train, val, vc = sp_setup
        fm = fit_fair(
            LogisticRegression(max_iter=200), spec, train, val,
            strategy="grid", grid_max=1.0, grid_steps=100,
        )
        pred = fm.predict(val.X)
        assert abs(vc.disparity(val.y, pred)) <= 0.03 + 1e-9

    def test_grid_costs_full_sweep(self, sp_setup):
        spec, train, val, _ = sp_setup
        fm = fit_fair(
            LogisticRegression(max_iter=200), spec, train, val,
            strategy="grid", grid_max=0.5, grid_steps=50,
        )
        assert fm.report.n_fits >= 101

    def test_infeasible_grid_raises(self, sp_setup):
        # a grid too narrow to move the disparity into the band
        spec, train, val, _ = sp_setup
        with pytest.raises(InfeasibleConstraintError):
            fit_fair(
                LogisticRegression(max_iter=200), spec, train, val,
                strategy="grid", grid_max=1e-6, grid_steps=1,
            )


class TestWarmStartFitter:
    def test_warm_start_produces_distinct_snapshots(self, two_group_splits):
        train, _, _ = two_group_splits
        spec = FairnessSpec("SP", 0.03)
        tc = bind_specs([spec], train)
        fitter = WeightedFitter(
            LogisticRegression(max_iter=200), train.X, train.y, tc,
            warm_start=True,
        )
        m1 = fitter.fit(np.array([0.0]))
        m2 = fitter.fit(np.array([0.5]))
        assert m1 is not m2
        assert not np.allclose(m1.coef_, m2.coef_)

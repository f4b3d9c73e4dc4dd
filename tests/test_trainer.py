"""Tests for the one-call ``fit_fair`` entry point and its FairModel."""

import pytest

from repro import FairModel, FairnessSpec, SpecificationError, fit_fair
from repro.core.grouping import by_groups
from repro.ml import LogisticRegression


class TestConstruction:
    def test_single_spec_wrapped_in_list(self):
        fm = FairModel(LogisticRegression(), FairnessSpec("SP", 0.03))
        assert len(fm.specs) == 1

    def test_empty_specs_rejected(self, two_group_data):
        with pytest.raises(SpecificationError, match="at least one"):
            fit_fair(LogisticRegression(), [], two_group_data)

    def test_non_spec_rejected(self, two_group_data):
        with pytest.raises(SpecificationError, match="FairnessSpec"):
            fit_fair(LogisticRegression(), [42], two_group_data)

    def test_unknown_search_rejected(self, two_group_data):
        with pytest.raises(SpecificationError, match="search"):
            fit_fair(
                LogisticRegression(), FairnessSpec("SP", 0.03),
                two_group_data, strategy="random",
            )


class TestFit:
    def test_explicit_validation_set(self, two_group_splits):
        train, val, test = two_group_splits
        fm = fit_fair(
            LogisticRegression(max_iter=200), FairnessSpec("SP", 0.04),
            train, val,
        )
        assert fm.report.feasible
        assert fm.report.validation["feasible"]

    def test_auto_validation_split(self, two_group_data):
        fm = fit_fair(
            LogisticRegression(max_iter=200), FairnessSpec("SP", 0.05),
            two_group_data,
        )
        assert fm.report.feasible

    def test_raw_arrays_rejected(self, two_group_data):
        with pytest.raises(SpecificationError, match="Dataset"):
            fit_fair(
                LogisticRegression(), FairnessSpec("SP", 0.05),
                two_group_data.X,
            )

    def test_predict_and_proba_shapes(self, two_group_splits):
        train, val, test = two_group_splits
        fm = fit_fair(
            LogisticRegression(max_iter=200), FairnessSpec("SP", 0.05),
            train, val,
        )
        assert fm.predict(test.X).shape == (len(test),)
        assert fm.predict_proba(test.X).shape == (len(test), 2)

    def test_evaluate_on_new_dataset(self, two_group_splits):
        train, val, test = two_group_splits
        fm = fit_fair(
            LogisticRegression(max_iter=200), FairnessSpec("SP", 0.05),
            train, val,
        )
        report = fm.audit(test)
        assert 0.0 <= report["accuracy"] <= 1.0
        assert len(report["disparities"]) == 1

    def test_disparity_reduced_vs_unconstrained(self, two_group_splits):
        train, val, _ = two_group_splits
        base = LogisticRegression(max_iter=200).fit(train.X, train.y)
        spec = FairnessSpec("SP", 0.03)
        constraint = spec.bind(val)[0]
        base_disp = abs(constraint.disparity(val.y, base.predict(val.X)))
        fm = fit_fair(LogisticRegression(max_iter=200), spec, train, val)
        fair_disp = abs(
            list(fm.report.validation["disparities"].values())[0]
        )
        assert fair_disp < base_disp
        assert fair_disp <= 0.03 + 1e-9

    def test_multi_constraint_path(self, three_group_splits):
        train, val, _ = three_group_splits
        fm = fit_fair(
            LogisticRegression(max_iter=200), FairnessSpec("SP", 0.06),
            train, val,
        )
        assert fm.lambdas.shape == (3,)
        assert fm.report.validation["feasible"]

    def test_grid_search_single(self, two_group_splits):
        train, val, _ = two_group_splits
        fm = fit_fair(
            LogisticRegression(max_iter=200), FairnessSpec("SP", 0.05),
            train, val, strategy="grid", grid_max=1.0, grid_steps=10,
        )
        assert fm.report.feasible

    def test_warm_start_path(self, two_group_splits):
        train, val, _ = two_group_splits
        fm = fit_fair(
            LogisticRegression(max_iter=200), FairnessSpec("SP", 0.05),
            train, val, warm_start=True,
        )
        assert fm.report.feasible

    def test_custom_grouping_subset(self, three_group_splits):
        train, val, _ = three_group_splits
        spec = FairnessSpec("SP", 0.05, grouping=by_groups("A", "B"))
        fm = fit_fair(LogisticRegression(max_iter=200), spec, train, val)
        assert fm.lambdas.shape == (1,)

    def test_n_fits_counted(self, two_group_splits):
        train, val, _ = two_group_splits
        fm = fit_fair(
            LogisticRegression(max_iter=200), FairnessSpec("SP", 0.05),
            train, val,
        )
        assert fm.report.n_fits == len(fm.report.history)

"""Tests for the extension features beyond the paper's core algorithms.

* composite specs: equalized odds (FPR+FNR) and predictive parity
  (FOR+FDR) helpers;
* subsample-based λ-range pruning (the paper's §8 future-work item);
* timing utilities.
"""

import numpy as np
import pytest

from repro import FairnessSpec, fit_fair
from repro.analysis import stopwatch, time_call
from repro.core.fitter import WeightedFitter
from repro.core.spec import (
    bind_specs,
    equalized_odds_specs,
    predictive_parity_specs,
)
from repro.ml import LogisticRegression


class TestCompositeSpecs:
    def test_equalized_odds_is_fpr_plus_fnr(self):
        specs = equalized_odds_specs(0.05)
        assert [s.metric.name for s in specs] == ["FPR", "FNR"]
        assert all(s.epsilon == 0.05 for s in specs)

    def test_predictive_parity_is_for_plus_fdr(self):
        specs = predictive_parity_specs(0.05)
        assert [s.metric.name for s in specs] == ["FOR", "FDR"]

    def test_equalized_odds_end_to_end(self, two_group_splits):
        train, val, _ = two_group_splits
        fm = fit_fair(
            LogisticRegression(max_iter=200), equalized_odds_specs(0.1),
            train, val,
        )
        report = fm.report.validation
        assert len(report["disparities"]) == 2
        assert report["feasible"]

    def test_custom_grouping_propagated(self, three_group_splits):
        from repro.core.grouping import by_groups

        specs = equalized_odds_specs(0.1, grouping=by_groups("A", "B"))
        train, _, _ = three_group_splits
        constraints = bind_specs(specs, train)
        assert len(constraints) == 2  # one per metric, single pair each


class TestSubsamplePruning:
    def test_fitter_prepares_stratified_subsample(self, two_group_splits):
        train, _, _ = two_group_splits
        spec = FairnessSpec("SP", 0.05)
        fitter = WeightedFitter(
            LogisticRegression(max_iter=150), train.X, train.y,
            bind_specs([spec], train), subsample=0.3,
        )
        assert fitter._sub_idx is not None
        frac = len(fitter._sub_idx) / len(train.y)
        assert 0.2 < frac < 0.4
        # both labels present
        assert set(np.unique(train.y[fitter._sub_idx])) == {0, 1}

    def test_subsample_constraints_remapped(self, two_group_splits):
        train, _, _ = two_group_splits
        spec = FairnessSpec("SP", 0.05)
        fitter = WeightedFitter(
            LogisticRegression(max_iter=150), train.X, train.y,
            bind_specs([spec], train), subsample=0.3,
        )
        sub_c = fitter._sub_constraints[0]
        n_sub = len(fitter._sub_idx)
        assert sub_c.g1_idx.max() < n_sub
        assert sub_c.g2_idx.max() < n_sub
        assert len(sub_c.g1_idx) + len(sub_c.g2_idx) <= n_sub

    def test_invalid_fraction_rejected(self, two_group_splits):
        train, _, _ = two_group_splits
        spec = FairnessSpec("SP", 0.05)
        with pytest.raises(ValueError, match="subsample"):
            WeightedFitter(
                LogisticRegression(), train.X, train.y,
                bind_specs([spec], train), subsample=1.5,
            )

    def test_use_subsample_without_config_rejected(self, two_group_splits):
        train, _, _ = two_group_splits
        spec = FairnessSpec("SP", 0.05)
        fitter = WeightedFitter(
            LogisticRegression(max_iter=150), train.X, train.y,
            bind_specs([spec], train),
        )
        with pytest.raises(ValueError, match="use_subsample"):
            fitter.fit(np.array([0.1]), use_subsample=True)

    def test_pruned_fit_matches_unpruned_quality(self, two_group_splits):
        train, val, _ = two_group_splits
        plain = fit_fair(
            LogisticRegression(max_iter=150), FairnessSpec("SP", 0.05),
            train, val,
        )
        pruned = fit_fair(
            LogisticRegression(max_iter=150), FairnessSpec("SP", 0.05),
            train, val, subsample=0.3,
        )
        assert pruned.report.feasible
        assert pruned.report.validation["feasible"]
        # final quality must be comparable (both satisfy the constraint)
        assert (
            pruned.report.validation["accuracy"]
            >= plain.report.validation["accuracy"] - 0.05
        )

    def test_subsample_bracket_follows_the_swap(self):
        """The subsample kernel sees Algorithm 1's swap too.

        The swap used to rewrite only the full-data constraint, so
        after it the subsample bracket fits pushed FDR the wrong way
        and the linear ladder ran out of steps (infeasible, ~2 s).
        """
        from repro.api import Engine
        from repro.datasets import load_scenario
        from repro.ml import GaussianNaiveBayes
        from repro.ml.model_selection import train_val_test_split

        data = load_scenario("covariate_shift", n=4000, seed=3)
        tr, va, _ = train_val_test_split(
            len(data), seed=5, stratify=data.sensitive * 2 + data.y,
        )
        train, val = data.subset(tr), data.subset(va)
        full = Engine("binary_search").solve(
            "FDR <= 0.02", GaussianNaiveBayes(), train, val,
        ).report
        pruned = Engine("binary_search", subsample=0.3).solve(
            "FDR <= 0.02", GaussianNaiveBayes(), train, val,
        ).report
        assert full.swapped and full.n_fits == 8
        assert pruned.swapped
        assert pruned.feasible and pruned.validation["feasible"]
        assert pruned.n_fits <= 4 * full.n_fits


class TestTiming:
    def test_stopwatch_records_positive(self):
        with stopwatch() as t:
            sum(range(1000))
        assert t["seconds"] > 0

    def test_stopwatch_records_on_exception(self):
        with pytest.raises(RuntimeError):
            with stopwatch() as t:
                raise RuntimeError("boom")
        assert t["seconds"] is not None

    def test_time_call_returns_result(self):
        result, seconds = time_call(lambda a, b: a + b, 2, b=3)
        assert result == 5
        assert seconds >= 0

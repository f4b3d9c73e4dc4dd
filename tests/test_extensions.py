"""Tests for the extension features beyond the paper's core algorithms.

* composite specs: equalized odds (FPR+FNR) and predictive parity
  (FOR+FDR) helpers;
* timing utilities.
"""

import pytest

from repro import fit_fair
from repro.analysis import stopwatch, time_call
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

"""Figure 9: enforcing SP across all three COMPAS race groups.

Paper's claim: adapted Celis/Agarwal fail to reduce the *maximum* pairwise
SP difference across Black/White/Hispanic (SP_max stays > 0.20), while
OmniFair drives SP_max to ~ε with high accuracy.

Our Celis/Agarwal implementations handle two groups; as in the paper's
adaptation we run them on the dominant pair and measure the 3-group
SP_max — which is exactly why they fail to control it.
"""

from __future__ import annotations

import numpy as np
from _common import bench_splits, emit, load_bench_dataset, run_once

from repro import FairnessSpec, fit_fair
from repro.analysis import format_table
from repro.baselines import CelisMetaAlgorithm, ExponentiatedGradient
from repro.datasets import two_group_view
from repro.ml import LogisticRegression
from repro.ml.metrics import accuracy_score

EPSILON = 0.06


def _sp_max(pred, dataset):
    rates = [
        float(np.mean(pred[dataset.sensitive == g]))
        for g in range(dataset.n_groups)
    ]
    return max(rates) - min(rates)


def _run():
    data = load_bench_dataset("compas")
    train, val, test = bench_splits(data)
    results = {}

    base = LogisticRegression(max_iter=150).fit(train.X, train.y)
    pred = base.predict(test.X)
    results["Original"] = (accuracy_score(test.y, pred), _sp_max(pred, test))

    fm = fit_fair(
        LogisticRegression(max_iter=150), FairnessSpec("SP", EPSILON),
        train, val,
    )
    pred = fm.predict(test.X)
    results["OmniFair"] = (accuracy_score(test.y, pred), _sp_max(pred, test))

    # two-group adaptations (Black vs White only)
    pair_train = two_group_view(train)
    pair_val = two_group_view(val)
    celis = CelisMetaAlgorithm(epsilon=EPSILON, grid_size=5).fit(
        pair_train, pair_val
    )
    pred = celis.predict(test.X)
    results["Celis"] = (accuracy_score(test.y, pred), _sp_max(pred, test))

    agarwal = ExponentiatedGradient(
        estimator=LogisticRegression(max_iter=150), epsilon=EPSILON,
        n_iterations=12,
    ).fit(pair_train, pair_val)
    pred = agarwal.predict(test.X)
    results["Agarwal"] = (accuracy_score(test.y, pred), _sp_max(pred, test))
    return results


def test_figure9_multigroup(benchmark):
    results = run_once(_run, benchmark)
    emit(
        "figure9_multigroup",
        format_table(
            ["Method", "accuracy", "max pairwise SP"],
            [
                [m, f"{a:.3f}", f"{s:.3f}"]
                for m, (a, s) in results.items()
            ],
            title=f"Figure 9 — 3-group SP on COMPAS, eps={EPSILON}",
        ),
    )
    # (1) OmniFair reduces SP_max far below the original
    assert results["OmniFair"][1] < 0.6 * results["Original"][1]
    # (2) the two-group adaptations control SP_max worse than OmniFair
    assert results["OmniFair"][1] <= results["Celis"][1] + 0.02
    assert results["OmniFair"][1] <= results["Agarwal"][1] + 0.02
    # (3) OmniFair keeps reasonable accuracy
    assert results["OmniFair"][0] > results["Original"][0] - 0.12

"""Ablation: subsample-based λ-range pruning (paper §8 future work).

The paper's future-work list proposes "using a smaller sample training set
to quickly prune certain λ values".  OmniFair's ``subsample`` option trains
the bounding-stage fits (exponential/linear search) on a stratified
fraction of the training data and re-verifies the bracket on the full set.
This bench measures the wall-clock effect and checks quality is unchanged.
"""

from __future__ import annotations

import time

from _common import bench_splits, emit, load_bench_dataset, run_once, show

from repro import FairnessSpec, fit_fair
from repro.analysis import format_table
from repro.datasets import two_group_view
from repro.ml import LogisticRegression, RandomForest

EPSILON = 0.04


def _run():
    data = two_group_view(load_bench_dataset("compas"))
    train, val, test = bench_splits(data)
    rows = []
    for est_name, est in [
        ("LR", LogisticRegression(max_iter=300)),
        ("RF", RandomForest(n_estimators=12, max_depth=5)),
    ]:
        for fraction in (None, 0.25):
            t0 = time.perf_counter()
            fm = fit_fair(
                est.clone(), FairnessSpec("SP", EPSILON), train, val,
                subsample=fraction,
            )
            seconds = time.perf_counter() - t0
            rows.append(
                (
                    est_name,
                    "full" if fraction is None else f"{fraction:.2f}",
                    seconds,
                    fm.audit(test)["accuracy"],
                    fm.report.feasible,
                    fm.report.n_fits,
                )
            )
    return rows


def test_ablation_subsample_pruning(benchmark):
    rows = run_once(_run, benchmark)
    emit(
        "ablation_subsample",
        format_table(
            ["model", "bounding data", "fits", "test acc", "feasible"],
            [
                [m, f, str(fits), f"{a:.3f}", str(ok)]
                for m, f, _s, a, ok, fits in rows
            ],
            title="Ablation — subsample λ-pruning (paper §8 future work)",
        ),
    )
    show(format_table(
        ["model", "bounding data", "time"],
        [[m, f, f"{s:.2f}s"] for m, f, s, *_ in rows],
        title="Ablation — subsample λ-pruning, wall clock (not persisted)",
    ))
    by_key = {(m, f): (s, a, ok) for m, f, s, a, ok, _fits in rows}
    for model in ("LR", "RF"):
        full = by_key[(model, "full")]
        sub = by_key[(model, "0.25")]
        assert sub[2], f"{model}: pruned run must stay feasible"
        # quality unchanged within noise
        assert sub[1] >= full[1] - 0.03
        # pruning must not be drastically slower
        assert sub[0] < full[0] * 1.6

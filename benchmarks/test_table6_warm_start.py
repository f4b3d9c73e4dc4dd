"""Table 6: warm-start speedup for LR across datasets.

Paper reports 1.2×–3.4× speedups from reusing the previous λ-fit's
parameters as the next fit's initialization.
"""

from __future__ import annotations

import time

from _common import bench_splits, emit, load_bench_dataset, run_once, show

from repro import FairnessSpec, fit_fair
from repro.analysis import format_table
from repro.datasets import two_group_view
from repro.ml import LogisticRegression

EPSILON = 0.05
DATASETS = ["compas", "adult", "lsac", "bank"]


def _run():
    rows = []
    for name in DATASETS:
        data = load_bench_dataset(name)
        if name == "compas":
            data = two_group_view(data)
        train, val, _ = bench_splits(data)

        def fit(warm):
            t0 = time.perf_counter()
            fm = fit_fair(
                LogisticRegression(max_iter=500, tol=1e-7),
                FairnessSpec("SP", EPSILON), train, val,
                warm_start=warm,
            )
            seconds = time.perf_counter() - t0
            report = fm.report
            return seconds, report.n_fits, report.validation["accuracy"]

        cold, cold_fits, cold_acc = fit(False)
        warm, warm_fits, warm_acc = fit(True)
        rows.append((
            name, cold, warm, cold / warm if warm > 0 else 1.0,
            cold_fits, warm_fits, cold_acc, warm_acc,
        ))
    return rows


def test_table6_warm_start(benchmark):
    rows = run_once(_run, benchmark)
    emit(
        "table6_warm_start",
        format_table(
            ["Dataset", "No Warm Start fits", "Warm Start fits",
             "No Warm Start val acc", "Warm Start val acc"],
            [
                [n, str(cf), str(wf), f"{ca:.3f}", f"{wa:.3f}"]
                for n, _c, _w, _s, cf, wf, ca, wa in rows
            ],
            title=f"Table 6 — warm start (LR, SP eps={EPSILON}); the "
                  "speedup is printed by the test, not stored",
        ),
    )
    show(format_table(
        ["Dataset", "No Warm Start (s)", "Warm Start (s)", "SpeedUp"],
        [
            [n, f"{c:.2f}", f"{w:.2f}", f"{s:.2f}x"]
            for n, c, w, s, *_ in rows
        ],
        title=f"Table 6 — warm-start speedup (LR, SP eps={EPSILON})",
    ))
    # warm start should help overall (paper: 1.2x-3.4x); allow per-dataset
    # noise but require a mean speedup
    speedups = [s for _, _, _, s, *_ in rows]
    assert sum(speedups) / len(speedups) > 1.0

"""Table 8: hill climbing vs grid search for multi-constraint tuning.

Paper's findings this bench checks:
* whenever the grid finds a feasible solution, hill climbing does too;
* hill climbing is roughly an order of magnitude faster (fewer model fits).
"""

from __future__ import annotations

import time

from _common import bench_splits, emit, load_bench_dataset, run_once, show

from repro.analysis import format_table
from repro.api import Engine
from repro.core.exceptions import InfeasibleConstraintError
from repro.core.spec import FairnessSpec
from repro.datasets import two_group_view
from repro.ml import LogisticRegression

EPSILONS = [0.06, 0.1, 0.14]


def _run():
    data = two_group_view(load_bench_dataset("compas"))
    train, val, _ = bench_splits(data)
    rows = []
    for eps in EPSILONS:
        specs = [FairnessSpec("SP", eps), FairnessSpec("FNR", eps)]

        def solve(engine):
            return engine.solve(
                specs, LogisticRegression(max_iter=150), train, val,
            ).report.n_fits

        t0 = time.perf_counter()
        try:
            hc_found, hc_fits = True, solve(Engine("hill_climb"))
        except InfeasibleConstraintError:
            hc_found, hc_fits = False, None
        hc_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        try:
            grid_found, grid_fits = True, solve(
                Engine("grid", grid_max=0.3, grid_steps=5)
            )
        except InfeasibleConstraintError:
            grid_found, grid_fits = False, 5**2
        grid_time = time.perf_counter() - t0

        rows.append((
            eps, grid_found, hc_found, grid_time, hc_time, grid_fits,
            hc_fits,
        ))
    return rows


def test_table8_grid_vs_hc(benchmark):
    rows = run_once(_run, benchmark)
    emit(
        "table8_grid_vs_hc",
        format_table(
            ["eps", "Grid", "HC", "Grid fits", "HC fits"],
            [
                [
                    f"{eps}",
                    "Yes" if g else "No",
                    "Yes" if h else "No",
                    str(gf),
                    "NA" if hf is None else str(hf),
                ]
                for eps, g, h, _gt, _ht, gf, hf in rows
            ],
            title="Table 8 — grid search vs hill climbing (COMPAS, SP+FNR)",
        ),
    )
    show(format_table(
        ["eps", "Grid Time", "HC Time"],
        [[f"{eps}", f"{gt:.2f}s", f"{ht:.2f}s"]
         for eps, _g, _h, gt, ht, *_ in rows],
        title="Table 8 — wall clock (not persisted)",
    ))
    for eps, grid_found, hc_found, grid_time, hc_time, *_ in rows:
        # (1) whenever grid finds a solution, hill climbing does too
        if grid_found:
            assert hc_found, f"HC must match grid feasibility at eps={eps}"
        # (2) hill climbing is faster when it succeeds
        if hc_found:
            assert hc_time < grid_time, f"HC should beat grid at eps={eps}"

"""Table 7: enforcing SP and FNR simultaneously on COMPAS.

Paper's findings this bench checks:
* at very small ε the combination is infeasible (N/A rows);
* from some ε upward both disparities drop well below the unconstrained
  baseline with < few % accuracy loss.
"""

from __future__ import annotations

from _common import bench_splits, emit, load_bench_dataset, run_once

from repro import FairnessSpec, InfeasibleConstraintError, fit_fair
from repro.analysis import format_table
from repro.core.spec import bind_specs
from repro.datasets import two_group_view
from repro.ml import LogisticRegression
from repro.ml.metrics import accuracy_score

EPSILONS = [0.02, 0.06, 0.1, 0.14]


def _run():
    data = two_group_view(load_bench_dataset("compas"))
    train, val, test = bench_splits(data)
    report_specs = [FairnessSpec("SP", 1.0), FairnessSpec("FNR", 1.0)]
    test_constraints = bind_specs(report_specs, test)

    base = LogisticRegression(max_iter=150).fit(train.X, train.y)
    pred = base.predict(test.X)
    baseline = (
        accuracy_score(test.y, pred),
        abs(test_constraints[0].disparity(test.y, pred)),
        abs(test_constraints[1].disparity(test.y, pred)),
    )

    rows = []
    for eps in EPSILONS:
        specs = [FairnessSpec("SP", eps), FairnessSpec("FNR", eps)]
        try:
            fm = fit_fair(LogisticRegression(max_iter=150), specs, train, val)
        except InfeasibleConstraintError:
            rows.append((eps, None, None, None))
            continue
        pred = fm.predict(test.X)
        rows.append(
            (
                eps,
                accuracy_score(test.y, pred),
                abs(test_constraints[0].disparity(test.y, pred)),
                abs(test_constraints[1].disparity(test.y, pred)),
            )
        )
    return baseline, rows


def test_table7_multi_metric(benchmark):
    baseline, rows = run_once(_run, benchmark)
    table = [
        ["Baseline", f"{baseline[0]:.3f}", f"{baseline[1]:.3f}",
         f"{baseline[2]:.3f}"]
    ]
    for eps, acc, sp, fnr in rows:
        if acc is None:
            table.append([f"{eps}", "N/A", "N/A", "N/A"])
        else:
            table.append(
                [f"{eps}", f"{acc:.3f}", f"{sp:.3f}", f"{fnr:.3f}"]
            )
    emit(
        "table7_multi_metric",
        format_table(
            ["eps", "Accuracy", "SP", "FNR"], table,
            title="Table 7 — enforcing SP and FNR simultaneously (COMPAS)",
        ),
    )
    feasible = [(eps, acc, sp, fnr) for eps, acc, sp, fnr in rows
                if acc is not None]
    assert feasible, "some epsilon must be feasible"
    # at the loosest feasible epsilon both disparities drop below baseline
    eps, acc, sp, fnr = feasible[-1]
    assert sp < baseline[1]
    assert acc > baseline[0] - 0.08

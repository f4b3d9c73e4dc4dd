"""Figure 3: effect of validation-set size on test accuracy and test bias.

Paper's finding: with a too-small validation set the tuned λ does not
generalize (test bias well above ε); as the validation set grows, test
bias stabilizes near ε and accuracy flattens.
"""

from __future__ import annotations

import numpy as np
from _common import emit, load_bench_dataset, run_once

from repro import FairnessSpec, fit_fair
from repro.analysis import format_table
from repro.core.spec import bind_specs
from repro.datasets import two_group_view
from repro.ml import LogisticRegression
from repro.ml.metrics import accuracy_score
from repro.ml.model_selection import train_val_test_split

EPSILON = 0.03
FRACTIONS = [0.1, 0.3, 0.5, 1.0]  # of the 20% validation split


def _run_validation_sweep():
    data = two_group_view(load_bench_dataset("compas", seed=1))
    strat = data.sensitive * 2 + data.y
    tr, va, te = train_val_test_split(len(data), seed=1, stratify=strat)
    train, val_full, test = data.subset(tr), data.subset(va), data.subset(te)
    spec = FairnessSpec("SP", EPSILON)
    test_constraint = bind_specs([spec], test)[0]
    rows = []
    for frac in FRACTIONS:
        k = max(40, int(len(val_full) * frac))
        val = val_full.subset(np.arange(min(k, len(val_full))))
        fm = fit_fair(LogisticRegression(max_iter=150), spec, train, val)
        pred = fm.predict(test.X)
        rows.append(
            (
                frac,
                accuracy_score(test.y, pred),
                abs(test_constraint.disparity(test.y, pred)),
            )
        )
    return rows


def test_figure3_validation_size(benchmark):
    rows = run_once(_run_validation_sweep, benchmark)
    emit(
        "figure3_validation_size",
        format_table(
            ["val fraction", "test accuracy", "test |SP|"],
            [[f"{f:.0%}", f"{a:.3f}", f"{b:.3f}"] for f, a, b in rows],
            title=f"Figure 3 — validation-size ablation (COMPAS, SP eps={EPSILON})",
        ),
    )
    # shape: the largest validation set keeps test bias far below the raw
    # dataset bias (~0.2) and below small-validation worst case + slack
    biases = [b for _, _, b in rows]
    assert biases[-1] < 0.12
    assert biases[-1] <= max(biases) + 1e-9
    accs = [a for _, a, _ in rows]
    assert max(accs) - min(accs) < 0.15  # accuracy roughly stable

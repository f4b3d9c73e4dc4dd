"""Shared configuration and helpers for the benchmark harness.

Every file in ``benchmarks/`` regenerates one table or figure of the paper
(see DESIGN.md §4 for the index).  Row counts and split counts are scaled
down so the full harness runs on a laptop in minutes; the *shape* of each
result (method ordering, trade-off monotonicity, crossovers) is the
reproduction target, not the absolute numbers.

Each benchmark times its experiment exactly once via
``benchmark.pedantic(fn, rounds=1, iterations=1)``, prints the paper-style
rows, and writes them to ``benchmarks/results/<name>.txt`` so
EXPERIMENTS.md can reference the measured output.  Only what a fixed seed
determines (feasibility, accuracy, fit counts) is written; wall-clock
columns go through :func:`show` and are printed only, so a test run
leaves the committed tables unchanged.
"""

from __future__ import annotations

import pathlib

import numpy as np

from repro.datasets import load_adult, load_bank, load_compas, load_lsac
from repro.ml.model_selection import train_val_test_split

#: laptop-scale row counts per dataset (paper sizes in repro.datasets)
BENCH_ROWS = {"adult": 1500, "compas": 1500, "lsac": 1500, "bank": 1500}

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def load_bench_dataset(name, seed=0, n=None):
    """Load a benchmark-sized dataset twin.

    ``n`` overrides the default row count — the FDR benchmarks need more
    rows so the smaller group's predicted-positive set is large enough for
    FDR to be controllable at small ε (granularity ≈ 1/#predicted-pos).
    """
    loader = {
        "adult": load_adult,
        "compas": load_compas,
        "lsac": load_lsac,
        "bank": load_bank,
    }[name]
    return loader(n=n if n is not None else BENCH_ROWS[name], seed=seed)


def bench_splits(dataset, seed=0):
    """One stratified 60/20/20 split (train, val, test)."""
    strat = dataset.sensitive * 2 + dataset.y
    tr, va, te = train_val_test_split(len(dataset), seed=seed, stratify=strat)
    return dataset.subset(tr), dataset.subset(va), dataset.subset(te)


def emit(name, text):
    """Print a result block and persist it under benchmarks/results/.

    ``text`` must be deterministic for a fixed seed — no timings.
    """
    show(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def show(text):
    """Print a result block that is not persisted (e.g. timings)."""
    print()
    print(text)


def abs_disparity(report):
    """Largest |disparity| in an evaluate() report."""
    return max(abs(v) for v in report["disparities"].values())


def nanmax_or(values, default=0.0):
    vals = [v for v in values if v == v]
    return max(vals) if vals else default


def run_once(fn, benchmark):
    """Time ``fn`` exactly once through pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


def fmt(value, digits=3):
    if value is None or value != value:
        return "NA"
    return f"{value:.{digits}f}"


def series_is_monotone_tradeoff(points, slack=0.03):
    """Check the frontier shape: lower disparity should not come with
    *higher* accuracy beyond noise slack (i.e. a real trade-off exists)."""
    pts = sorted(points, key=lambda p: p.disparity)
    accs = [p.accuracy for p in pts]
    return all(accs[i] <= accs[i + 1] + slack for i in range(len(accs) - 1))


def np_round(x, d=3):
    return np.round(np.asarray(x, dtype=float), d)

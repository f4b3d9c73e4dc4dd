"""Capture λ-search trajectories into ``tests/goldens/trajectories.json``.

Run once against the pre-refactor loops to freeze the oracle, and again
with ``--check`` after a refactor to prove the ask/tell planner replays
the exact same trajectories::

    PYTHONPATH=src python tests/capture_trajectories.py            # freeze
    PYTHONPATH=src python tests/capture_trajectories.py --check    # verify

The stored record per workload is the selected λ vector plus the full
ordered λ-sequence of the search history — the two things pinned across
the planner refactor and every later change to the execution path —
and the fitter's counters (logical fits, cache hits and lookups, fits by
path), pinned across the fit-layer refactors.
``tests/test_planner_equivalence.py`` consumes the same file.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.api import Engine, Problem  # noqa: E402
from repro.datasets import load_scenario  # noqa: E402
from repro.ml import GaussianNaiveBayes  # noqa: E402
from repro.ml.model_selection import train_val_test_split  # noqa: E402

OUT = pathlib.Path(__file__).parent / "goldens" / "trajectories.json"

# strategy × SP/FDR × scenario; multi-constraint workloads run the
# 3-group sweep scenario (3 induced pairwise constraints), single ones
# the two-group label-noise scenario
WORKLOADS = {
    "binary_search-sp-label_noise": (
        "binary_search", "SP <= 0.05", "label_noise", {}),
    "binary_search-fdr-label_noise": (
        "binary_search", "FDR <= 0.05", "label_noise", {}),
    "binary_search-for-label_noise": (
        "binary_search", "FOR <= 0.05", "label_noise", {}),
    "hill_climb-sp-label_noise": (
        "hill_climb", "SP <= 0.05", "label_noise", {}),
    "hill_climb-fdr-label_noise": (
        "hill_climb", "FDR <= 0.05", "label_noise", {}),
    "hill_climb-sp-group_sweep": (
        "hill_climb", "SP <= 0.08", "group_sweep", {}),
    "hill_climb-fdr-group_sweep": (
        "hill_climb", "FDR <= 0.04", "group_sweep", {}),
    "grid-sp-label_noise": (
        "grid", "SP <= 0.05", "label_noise",
        dict(grid_steps=20, grid_max=0.5)),
    "grid-fdr-label_noise": (
        "grid", "FDR <= 0.05", "label_noise",
        dict(grid_steps=20, grid_max=0.5)),
    "grid-sp-group_sweep": (
        "grid", "SP <= 0.12", "group_sweep",
        dict(grid_steps=5, grid_max=0.2)),
    "linear-sp-label_noise": (
        "linear", "SP <= 0.05", "label_noise", dict(step=0.02)),
    "linear-fdr-label_noise": (
        "linear", "FDR <= 0.05", "label_noise", dict(step=0.02)),
    "cmaes-sp-label_noise": (
        "cmaes", "SP <= 0.05", "label_noise", dict(max_evals=32, seed=0)),
    "cmaes-fdr-label_noise": (
        "cmaes", "FDR <= 0.05", "label_noise", dict(max_evals=32, seed=0)),
    "cmaes-sp-group_sweep": (
        "cmaes", "SP <= 0.10", "group_sweep", dict(max_evals=64, seed=0)),
    # the FOR/FDR population chains: the Λ-grid and a CMA-ES generation
    # each chained from the Λ = 0 model
    "grid-fdr-group_sweep": (
        "grid", "FDR <= 0.06", "group_sweep",
        dict(grid_steps=3, grid_max=0.2)),
    "cmaes-fdr-group_sweep": (
        "cmaes", "FDR <= 0.03", "group_sweep", dict(max_evals=24, seed=0)),
    # Algorithm 1's warm ladders: the doubling ladder (0.03 → 0.06 →
    # 0.12) and the halve-down ladder (``warm`` goes to solve())
    "binary_search-sp-label_noise-warm_below": (
        "binary_search", "SP <= 0.05", "label_noise",
        dict(warm=([0.03], True))),
    "binary_search-sp-label_noise-warm_above": (
        "binary_search", "SP <= 0.05", "label_noise",
        dict(warm=([0.5], True))),
    # hill climbing's one-constraint route into Algorithm 1, warm
    "hill_climb-sp-label_noise-warm_below": (
        "hill_climb", "SP <= 0.05", "label_noise",
        dict(warm=([0.03], True))),
    # a warm multi-constraint climb: its init point is the seed
    "hill_climb-sp-group_sweep-warm": (
        "hill_climb", "SP <= 0.08", "group_sweep",
        dict(warm=([0.0, -0.1, 0.0], False))),
}


SCENARIO_OVERRIDES = {"group_sweep": dict(n_groups=3)}


def splits_for(scenario):
    data = load_scenario(scenario, n=1600, seed=5,
                         **SCENARIO_OVERRIDES.get(scenario, {}))
    strat = data.sensitive * 2 + data.y
    tr, va, _ = train_val_test_split(len(data), seed=5, stratify=strat)
    return data.subset(tr), data.subset(va)


def lam_seq(history):
    return [np.atleast_1d(np.asarray(h.lam, dtype=np.float64)).tolist()
            for h in history]


def run_workload(name, splits_cache):
    """The workload's record, solved on its golden split."""
    strategy, spec, scenario, options = WORKLOADS[name]
    if scenario not in splits_cache:
        splits_cache[scenario] = splits_for(scenario)
    train, val = splits_cache[scenario]
    options = dict(options)
    warm = options.pop("warm", None)
    report = Engine(strategy, **options).solve(
        Problem(spec), GaussianNaiveBayes(), train, val, warm=warm,
    ).report
    return {
        "strategy": report.strategy,
        "spec": spec,
        "scenario": scenario,
        "lambdas": [float(v) for v in report.lambdas],
        "history_lambdas": lam_seq(report.history),
        "n_fits": report.n_fits,
        "fit_cache_hits": report.fit_cache_hits,
        "fit_cache_lookups": report.fit_cache_lookups,
        "fit_paths": dict(report.fit_paths),
    }


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--check", action="store_true",
                        help="compare against the stored file instead of "
                             "rewriting it")
    args = parser.parse_args(argv)
    splits_cache = {}
    got = {name: run_workload(name, splits_cache) for name in sorted(WORKLOADS)}
    if args.check:
        want = json.loads(OUT.read_text())
        failures = []
        for name in sorted(WORKLOADS):
            if got[name] != want.get(name):
                failures.append(name)
        if failures:
            print(f"MISMATCH: {failures}")
            return 1
        print(f"OK: {len(got)} trajectories identical")
        return 0
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT} ({len(got)} workloads)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Equivalence goldens: the planner replays the pre-refactor solver loops.

``tests/goldens/trajectories.json`` was frozen from the hand-written
solver loops (Algorithm 1, Algorithm 2, the grid sweeps, CMA-ES)
*before* they were ported onto the ask/tell planner: for every
strategy × SP/FDR × scenario workload it stores the selected λ vector
and the full ordered λ-sequence of the search history.

The three ``race`` workloads were frozen later, from the race driver
that ran its components on sibling fitters, before race became a plan
on one shared fitter; :data:`RACE_TOTALS` pins that driver's fit and
cache-hit totals as well.

Every record also carries the fitter's counters (``n_fits``,
``fit_cache_hits``, ``fit_cache_lookups`` and ``fit_paths``), frozen
from the fitter that still had separate ``fit`` and ``fit_batch``
cache paths, before they became one fit pass.

These tests assert that every workload, run through the planner and
the executor, reproduces its λs bit-for-bit and its counters exactly.

Regenerate after an *intentional* trajectory change with::

    PYTHONPATH=src python tests/capture_trajectories.py
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from capture_trajectories import (  # noqa: E402
    OUT as TRAJECTORY_FILE,
    WORKLOADS,
    run_workload,
    solve_workload,
)

#: the race totals the pre-refactor race driver reported on the golden
#: splits, before race became a plan on one shared fitter
RACE_TOTALS = {
    "race-sp-label_noise": dict(n_fits=48, fit_cache_hits=7, swapped=True),
    "race-fdr-label_noise": dict(n_fits=18, fit_cache_hits=3,
                                 swapped=False),
    "race-sp-group_sweep": dict(n_fits=210, fit_cache_hits=23,
                                swapped=False),
}

@pytest.fixture(scope="module")
def golden():
    assert TRAJECTORY_FILE.exists(), (
        "trajectory goldens missing; run "
        "PYTHONPATH=src python tests/capture_trajectories.py"
    )
    return json.loads(TRAJECTORY_FILE.read_text())


@pytest.fixture(scope="module")
def splits_cache():
    return {}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_trajectory_identical(name, golden, splits_cache):
    got = run_workload(name, splits_cache)
    want = golden[name]
    assert got["lambdas"] == want["lambdas"], (
        f"{name}: selected λ drifted from the pre-planner loop"
    )
    assert got["history_lambdas"] == want["history_lambdas"], (
        f"{name}: history λ-sequence drifted from the pre-planner loop"
    )
    counters = ("n_fits", "fit_cache_hits", "fit_cache_lookups", "fit_paths")
    assert {f: got[f] for f in counters} == {f: want[f] for f in counters}, (
        f"{name}: fit counters drifted from the frozen records"
    )


def test_goldens_cover_every_registered_builtin(golden):
    from repro.core.strategies import available_strategies

    covered = {record["strategy"] for record in golden.values()}
    assert covered >= set(available_strategies())


@pytest.mark.parametrize("name", sorted(RACE_TOTALS))
def test_race_totals_pinned(name, splits_cache):
    report = solve_workload(name, splits_cache).report
    got = {field: getattr(report, field) for field in RACE_TOTALS[name]}
    assert got == RACE_TOTALS[name]

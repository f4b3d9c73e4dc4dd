"""Equivalence goldens: the planner replays the pre-refactor solver loops.

``tests/goldens/trajectories.json`` was frozen from the hand-written
solver loops (Algorithm 1, Algorithm 2, the grid sweeps, CMA-ES)
*before* they were ported onto the ask/tell planner: for every
strategy × SP/FDR × scenario workload it stores the selected λ vector
and the full ordered λ-sequence of the search history.

These tests assert that every workload, run through the planner and
the executor, reproduces both bit-for-bit.

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
)

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


def test_goldens_cover_every_registered_builtin(golden):
    from repro.core.strategies import available_strategies

    covered = {record["strategy"] for record in golden.values()}
    # race is a meta-strategy over the covered components
    assert covered >= set(available_strategies()) - {"race"}

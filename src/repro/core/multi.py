"""Algorithm 2: tuning the Λ vector for multiple constraints (§6).

The marginal monotonicity property (Lemma 4) says ``FP_j(θ*(Λ))`` is
non-decreasing in ``Λ[j]`` with every other dimension fixed, so each
constraint has a *satisfactory region* whose boundary can be located by a
1-D bracket + binary search along its own axis.  The hill-climbing
algorithm repeatedly picks the most violated constraint (line 4) and tunes
only that dimension until either all constraints hold or the iteration
budget (``5k`` for ``k`` constraints) is exhausted.

The loop itself lives in the ask/tell planner
(:func:`repro.core.strategies._plan_hill_climb` driven through
:mod:`repro.core.planner` / :mod:`repro.core.executor`); this module
keeps the paper-faithful :func:`hill_climb` entry point — a thin shim
with the historical signature — plus the :class:`MultiTuneResult`
record.  The Λ trajectory is identical to the pre-planner loop (pinned
by ``tests/goldens/trajectories.json``).

:func:`grid_search_lambdas` is the baseline Table 8 compares against,
now a deprecated alias for the one planner-backed grid implementation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = ["hill_climb", "grid_search_lambdas", "MultiTuneResult"]


@dataclass
class MultiTuneResult:
    """Outcome of Algorithm 2 (or the grid-search baseline)."""

    model: object
    lambdas: np.ndarray
    feasible: bool
    n_fits: int
    n_rounds: int = 0
    history: list = field(default_factory=list)  # list of HistoryPoint


def hill_climb(
    fitter,
    val_constraints,
    X_val,
    y_val,
    max_rounds=None,
    initial_step=0.1,
    tau=1e-3,
    dimension_order="most_violated",
):
    """Run Algorithm 2 (marginal hill climbing) over the Λ vector.

    Parameters
    ----------
    fitter : WeightedFitter
        Holds the training data and the k train-bound constraints.
    val_constraints : list of Constraint
        The same constraints bound to the validation split (same order).
    max_rounds : int, optional
        Iteration budget; defaults to the paper's ``5k``.
    dimension_order : {"most_violated", "round_robin"}
        Which violated dimension to tune each round.  The paper picks the
        most violated (line 4) "for faster convergence"; round-robin is
        the naive alternative kept for the ablation benchmark.

    Raises
    ------
    InfeasibleConstraintError
        If constraints are still violated after ``max_rounds`` rounds
        ("Not found after 5k iterations").  The best model found is
        attached to the exception.
    """
    k = len(fitter.constraints)
    if len(val_constraints) != k:
        raise ValueError("train/val constraint lists differ in length")
    from .planner import run_plan
    from .strategies import _GeneratorStrategy, _plan_hill_climb

    strategy = _GeneratorStrategy(
        lambda ctx: _plan_hill_climb(
            ctx, max_rounds=max_rounds, initial_step=initial_step,
            tau=tau, dimension_order=dimension_order,
        )
    )
    return run_plan(
        strategy, fitter, list(val_constraints), X_val, y_val, None,
    )


def grid_search_lambdas(
    fitter, val_constraints, X_val, y_val, grid_max=1.0, grid_steps=5,
):
    """Baseline: exhaustive grid over Λ ∈ ``[-grid_max, grid_max]^k``.

    .. deprecated::
        This multi-constraint entry point and
        :func:`repro.core.single.lambda_grid_search` were duplicate grid
        implementations; both now delegate to the one planner-backed
        grid (:class:`repro.core.strategies.GridStrategy`).  Use
        ``Engine("grid")`` or the strategy registry directly.

    Costs ``grid_steps ** k`` fits; Table 8 contrasts this with hill
    climbing, which typically needs an order of magnitude fewer fits and
    finds feasible points the coarse grid misses.  With
    constant-coefficient metrics the whole grid is batch-native.
    """
    warnings.warn(
        "grid_search_lambdas is deprecated; use Engine('grid') or "
        "repro.core.strategies.GridStrategy (both grid entry points now "
        "share one planner-backed implementation)",
        DeprecationWarning,
        stacklevel=2,
    )
    from .planner import run_plan
    from .strategies import _GeneratorStrategy, _plan_grid_multi

    strategy = _GeneratorStrategy(
        lambda ctx: _plan_grid_multi(
            ctx, grid_max=grid_max, grid_steps=grid_steps,
        )
    )
    return run_plan(
        strategy, fitter, list(val_constraints), X_val, y_val, None,
    )

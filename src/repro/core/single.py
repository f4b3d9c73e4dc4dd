"""Algorithm 1: tuning the single fairness hyperparameter λ (§5.3).

Three stages, driven by the monotonicity of ``FP(θ*(λ))`` in λ (Lemma 2):

1. train with λ = 0; if the unconstrained model already satisfies the
   constraint it is optimal (``AP`` peaks at λ = 0);
2. orient the group pair so ``FP(θ0) < −ε`` and bound λ from above —
   exponential doubling when the weights are constant in θ, linear
   δ-stepping (with weight continuation from the previous model) when they
   are parameterized by θ (FOR/FDR);
3. binary-search the bracket down to width τ for the smallest feasible λ,
   which has the highest accuracy among feasible λ by Eq. (16).

``FP`` and ``AP`` are evaluated on the *validation* split, following the
paper's generalizability protocol (§5.3 "Use of Validation Set").

The loop itself lives in the ask/tell planner
(:func:`repro.core.strategies._plan_single_lambda` driven through
:mod:`repro.core.planner` / :mod:`repro.core.executor`); this module
keeps the paper-faithful entry point — a thin shim with the historical
signature — plus the :class:`SingleTuneResult` record.  The λ
trajectory is identical to the pre-planner loop (pinned by
``tests/goldens/trajectories.json``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

__all__ = ["tune_single_lambda", "SingleTuneResult", "lambda_grid_search"]


@dataclass
class SingleTuneResult:
    """Outcome of Algorithm 1."""

    model: object
    lam: float
    feasible: bool
    swapped: bool
    n_fits: int
    history: list = field(default_factory=list)  # list of HistoryPoint


def tune_single_lambda(
    fitter,
    val_constraint,
    X_val,
    y_val,
    delta=0.01,
    tau=1e-3,
    lambda_max=1e5,
    max_linear_steps=2000,
):
    """Run Algorithm 1 for the (single) constraint held by ``fitter``.

    Parameters
    ----------
    fitter : WeightedFitter
        Holds the training data and the train-bound constraint.
    val_constraint : Constraint
        The same constraint bound to the validation split.
    X_val, y_val : ndarray
        Validation data for FP/AP evaluation.
    delta : float
        Linear-search step for θ-parameterized weights (paper: 0.001; we
        default to 0.01 for laptop-scale runs — configurable).
    tau : float
        Binary-search termination width (paper: 1e-4).
    lambda_max : float
        Upper bound for the exponential search before declaring the
        constraint infeasible.
    max_linear_steps : int
        Cap on linear-search iterations.

    Raises
    ------
    InfeasibleConstraintError
        If no λ in the searched range satisfies the constraint on the
        validation split.
    """
    if len(fitter.constraints) != 1:
        raise ValueError("tune_single_lambda expects exactly one constraint")
    from .planner import run_plan
    from .strategies import _GeneratorStrategy, _plan_single_lambda

    strategy = _GeneratorStrategy(
        lambda ctx: _plan_single_lambda(
            ctx, delta=delta, tau=tau, lambda_max=lambda_max,
            max_linear_steps=max_linear_steps,
        )
    )
    return run_plan(strategy, fitter, [val_constraint], X_val, y_val, None)


def lambda_grid_search(fitter, val_constraint, X_val, y_val, grid):
    """Ablation baseline: plain grid search over λ (DESIGN.md §5.2).

    .. deprecated::
        This single-constraint entry point and
        :func:`repro.core.multi.grid_search_lambdas` were duplicate grid
        implementations; both now delegate to the one planner-backed
        grid (:class:`repro.core.strategies.GridStrategy`).  Use
        ``Engine("grid")`` or the strategy registry directly.

    Fits every λ in ``grid`` and returns the feasible model with the best
    validation accuracy.  Unlike Algorithm 1 this needs no monotonicity,
    but costs ``len(grid)`` fits regardless of where the boundary lies.
    With constant-coefficient metrics the whole grid is scored
    batch-natively.
    """
    warnings.warn(
        "lambda_grid_search is deprecated; use Engine('grid') or "
        "repro.core.strategies.GridStrategy (both grid entry points now "
        "share one planner-backed implementation)",
        DeprecationWarning,
        stacklevel=2,
    )
    if len(fitter.constraints) != 1:
        raise ValueError("lambda_grid_search expects exactly one constraint")
    from .planner import run_plan
    from .strategies import _GeneratorStrategy, _plan_grid_single

    strategy = _GeneratorStrategy(lambda ctx: _plan_grid_single(ctx, grid))
    return run_plan(strategy, fitter, [val_constraint], X_val, y_val, None)

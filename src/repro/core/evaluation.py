"""Model evaluation against bound fairness constraints."""

from __future__ import annotations

import numpy as np

from .exceptions import SpecificationError
from .kernels import CompiledEvaluator

__all__ = [
    "evaluate_model",
    "max_violation",
    "max_violation_from_disparities",
    "all_satisfied",
    "disparity_vector",
]


def evaluate_model(model, X, y, constraints, chunk_size=None):
    """Accuracy plus per-constraint disparities of ``model`` on ``(X, y)``.

    Returns a dict with keys ``accuracy``, ``disparities`` (label → FP
    value), ``violations`` (label → ``max(0, |FP| − ε)``) and
    ``feasible``.  Scored by the λ-search's own pass,
    :meth:`~repro.core.kernels.CompiledEvaluator.score_models_batch`, in
    row blocks of at most ``chunk_size`` rows (``None``: one block), bit
    for bit equal to :meth:`Constraint.disparity` and ``accuracy_score``
    on the full prediction vector.
    """
    evaluator = CompiledEvaluator(constraints, y, chunk_size=chunk_size)
    scores, accuracy = evaluator.score_models_batch([model], X)
    disparities = {
        c.label: float(d) for c, d in zip(constraints, scores[0])
    }
    violations = {
        c.label: max(0.0, abs(disparities[c.label]) - c.epsilon)
        for c in constraints
    }
    return {
        "accuracy": float(accuracy[0]),
        "disparities": disparities,
        "violations": violations,
        "feasible": all(v <= 1e-12 for v in violations.values()),
    }


def max_violation(y, pred, constraints):
    """Largest ``|FP_i| − ε_i`` over constraints (may be negative).

    Raises
    ------
    SpecificationError
        If ``constraints`` is empty — there is no violation to report,
        and silently returning a sentinel would mask a mis-bound spec.
    """
    if not constraints:
        raise SpecificationError(
            "max_violation requires at least one constraint"
        )
    return max(abs(c.disparity(y, pred)) - c.epsilon for c in constraints)


def max_violation_from_disparities(disparities, epsilons):
    """``max_i |FP_i| − ε_i`` from an already-computed disparity vector.

    The reduction step of :func:`max_violation`, factored out so callers
    that hold exact disparities from another source — the compiled
    evaluator's batched path, or the incremental auditor's count
    accumulators — apply the *same* float operations in the same order
    and stay bit-identical to the per-constraint reference.
    """
    disparities = [float(d) for d in disparities]
    epsilons = [float(e) for e in epsilons]
    if not disparities or len(disparities) != len(epsilons):
        raise SpecificationError(
            "max_violation_from_disparities needs matching, non-empty "
            "disparity and epsilon sequences"
        )
    return max(abs(d) - e for d, e in zip(disparities, epsilons))


def all_satisfied(y, pred, constraints, tol=1e-12):
    """True when every constraint holds on ``(y, pred)``."""
    return max_violation(y, pred, constraints) <= tol


def disparity_vector(y, pred, constraints):
    """Array of FP_i values, ordered like ``constraints``."""
    return np.array([c.disparity(y, pred) for c in constraints])

"""Incremental engine: exact fairness maintenance under data updates.

The batch pipeline answers "is this model fair on this dataset" by
re-reading every row.  This package keeps the answer current as the
dataset *changes*: :class:`IncrementalAuditor` keeps the evaluator's
count columns (:func:`~repro.core.kernels.count_columns`) as running
totals, applies one O(batch) count delta per ``append_rows`` /
``retire_rows``, and reproduces the from-scratch
:class:`~repro.core.kernels.CompiledEvaluator` numbers bit-for-bit
after every step.  When the updated max-violation breaches
a :class:`DriftPolicy` tolerance, :func:`warm_retune` re-searches λ
warm-started from the deployed model's fitted λ.  See
``docs/incremental.md``.
"""

from .auditor import IncrementalAuditor
from .drift import DriftPolicy, warm_retune

__all__ = [
    "IncrementalAuditor",
    "DriftPolicy",
    "warm_retune",
]

"""Fairness specifications and induced pairwise constraints (Definition 1).

A :class:`FairnessSpec` is the user-facing triplet ``(g, f, ε)`` from
Figure 1.  Binding a spec to a dataset enumerates the groups given by the
grouping function and induces ``C(|groups|, 2)`` pairwise
:class:`Constraint` objects, each requiring
``|f(h, g_i) − f(h, g_j)| ≤ ε``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .exceptions import SpecificationError
from .fairness_metrics import METRIC_FACTORIES, FairnessMetric
from .grouping import by_sensitive_attribute, validate_grouping

__all__ = [
    "FairnessSpec",
    "Constraint",
    "bind_specs",
    "equalized_odds_specs",
    "predictive_parity_specs",
]


@dataclass
class Constraint:
    """One induced pairwise fairness constraint on a specific dataset.

    Attributes
    ----------
    metric : FairnessMetric
    epsilon : float
    group_names : (str, str)
        ``(g1, g2)`` names; disparity is ``f(h,g1) − f(h,g2)``.
    g1_idx, g2_idx : ndarray
        Row indices of each group in the bound dataset.
    """

    metric: FairnessMetric
    epsilon: float
    group_names: tuple
    g1_idx: np.ndarray
    g2_idx: np.ndarray
    label: str = field(default="")

    def __post_init__(self):
        if not self.label:
            self.label = (
                f"{self.metric.name}|{self.group_names[0]}-{self.group_names[1]}"
                f"|eps={self.epsilon}"
            )

    def swapped(self):
        """The same constraint with group orientation reversed.

        Algorithm 1 line 5: when ``FP(θ0) > 0``, 'change the order of g1
        and g2 in FP' so that the search happens over positive λ.
        """
        return Constraint(
            metric=self.metric,
            epsilon=self.epsilon,
            group_names=(self.group_names[1], self.group_names[0]),
            g1_idx=self.g2_idx,
            g2_idx=self.g1_idx,
            label=self.label + "|swapped",
        )

    def disparity(self, y, pred):
        """``FP(θ) = f(h, g1) − f(h, g2)`` evaluated on ``(y, pred)``."""
        y = np.asarray(y)
        pred = np.asarray(pred)
        v1 = self.metric.value(y[self.g1_idx], pred[self.g1_idx])
        v2 = self.metric.value(y[self.g2_idx], pred[self.g2_idx])
        return v1 - v2

    def is_satisfied(self, y, pred):
        return abs(self.disparity(y, pred)) <= self.epsilon + 1e-12


class FairnessSpec:
    """The declarative triplet ``(grouping, metric, epsilon)`` of Figure 1.

    Parameters
    ----------
    metric : FairnessMetric or str
        A metric object, or one of the built-in names
        (``"SP"``, ``"MR"``, ``"FPR"``, ``"FNR"``, ``"FOR"``, ``"FDR"``).
    epsilon : float
        Maximum disparity allowance between any two groups.
    grouping : callable, optional
        ``dataset -> {name: indices}``; defaults to
        :func:`~repro.core.grouping.by_sensitive_attribute`.
    """

    def __init__(self, metric, epsilon, grouping=None):
        if isinstance(metric, str):
            try:
                metric = METRIC_FACTORIES[metric.upper()]()
            except KeyError:
                raise SpecificationError(
                    f"unknown metric {metric!r}; built-ins: "
                    f"{sorted(METRIC_FACTORIES)}"
                ) from None
        if not isinstance(metric, FairnessMetric):
            raise SpecificationError(
                "metric must be a FairnessMetric or a built-in name"
            )
        if not (0.0 <= float(epsilon) <= 1.0):
            raise SpecificationError(
                f"epsilon must be in [0, 1], got {epsilon}"
            )
        self.metric = metric
        self.epsilon = float(epsilon)
        self.grouping = grouping if grouping is not None else by_sensitive_attribute()

    def __repr__(self):
        g = getattr(self.grouping, "__name__", repr(self.grouping))
        return f"FairnessSpec(metric={self.metric.name}, eps={self.epsilon}, g={g})"

    def to_string(self):
        """Render this spec in the DSL (``"SP(race) <= 0.03"`` style).

        Round-trips: ``parse_spec(spec.to_string())`` yields an
        equivalent spec.  Only built-in metrics and attribute-name
        groupings (the forms the DSL can express) are printable; custom
        metrics or predicate groupings raise :class:`SpecificationError`.
        """
        if self.metric.name not in METRIC_FACTORIES:
            raise SpecificationError(
                f"metric {self.metric.name!r} is not a built-in DSL metric "
                f"and cannot be rendered as a spec string"
            )
        attrs = getattr(self.grouping, "dsl_attrs", None)
        if attrs is None:
            raise SpecificationError(
                f"grouping {getattr(self.grouping, '__name__', self.grouping)!r} "
                f"is not expressible in the spec DSL"
            )
        head = self.metric.name
        if attrs:
            head += f"({' * '.join(attrs)})"
        return f"{head} <= {format(self.epsilon, 'g')}"

    def bind(self, dataset):
        """Induce the pairwise constraints of this spec on ``dataset``.

        Returns one :class:`Constraint` per unordered group pair, in the
        order the grouping function yields groups.  Every grouping's
        result is checked by :func:`~repro.core.grouping.validate_grouping`.
        """
        groups = validate_grouping(self.grouping(dataset), len(dataset))
        names = list(groups)
        constraints = []
        for g1, g2 in itertools.combinations(names, 2):
            constraints.append(
                Constraint(
                    metric=self.metric,
                    epsilon=self.epsilon,
                    group_names=(g1, g2),
                    g1_idx=groups[g1],
                    g2_idx=groups[g2],
                )
            )
        return constraints


def bind_specs(specs, dataset):
    """Bind a list of specs to a dataset, concatenating their constraints."""
    constraints = []
    for spec in specs:
        constraints.extend(spec.bind(dataset))
    if not constraints:
        raise SpecificationError("no constraints induced")
    return constraints


def equalized_odds_specs(epsilon, grouping=None):
    """Specs for Equalized Odds (§3.2): FPR parity *and* FNR parity.

    The paper composes equalized odds from its two conditional-rate
    constraints ("if both FPR and FNR are satisfied, then Equalized Odds
    is satisfied"); pass the returned list straight to
    :func:`repro.api.fit_fair` or :class:`repro.api.Problem`.
    """
    return [
        FairnessSpec("FPR", epsilon, grouping=grouping),
        FairnessSpec("FNR", epsilon, grouping=grouping),
    ]


def predictive_parity_specs(epsilon, grouping=None):
    """Specs for Predictive Parity (§3.2): FOR parity *and* FDR parity."""
    return [
        FairnessSpec("FOR", epsilon, grouping=grouping),
        FairnessSpec("FDR", epsilon, grouping=grouping),
    ]

"""Declarative grouping functions (§4.1 of the paper).

A grouping function takes a :class:`~repro.datasets.schema.Dataset` and
returns a dict mapping group names to index arrays — exactly Definition 2
("a dictionary in which the keys are group ids and the values are the set
of tuples in each group").  Groups may overlap and need not cover the
dataset; the only requirement is at least two groups.

Factories cover the paper's cases:

* :func:`by_sensitive_attribute` — the classic single-attribute grouping;
* :func:`by_groups` — an explicit subset/ordering of sensitive values
  (e.g. the African-American vs Caucasian pair on 3-group COMPAS);
* :func:`intersectional` — groups over the cross product of several
  attributes (§4.3 "Customization of Grouping Function");
* :func:`by_predicate` — arbitrary user logic, one predicate per group.

The built-in groupings are small callable classes rather than closures so
that fitted models holding them remain picklable
(:mod:`repro.ml.persistence`); user-supplied predicates/attribute
extractors are only picklable if the user passes module-level callables.

Every grouping, built-in or not, returns its dict as built:
:meth:`~repro.core.spec.FairnessSpec.bind`, the one place that calls a
grouping, checks the result once with :func:`validate_grouping`.
"""

from __future__ import annotations

import itertools

import numpy as np

from .exceptions import SpecificationError

__all__ = [
    "by_sensitive_attribute",
    "by_attributes",
    "by_groups",
    "intersectional",
    "by_predicate",
    "validate_grouping",
]


def validate_grouping(groups, n_rows):
    """Check a grouping-function result: ≥2 groups, valid index arrays.

    Every group is a non-empty 1-D array of in-range row indices that
    lists no row twice: the weight and rate formulas count a row once
    per listed index, scoring once per group.  A strictly increasing
    group (what the built-in groupings yield) is checked by one
    comparison pass and its two ends; any other is range-checked by
    its extremes and scattered into a bool mask to find a repeat.
    """
    if not isinstance(groups, dict) or len(groups) < 2:
        raise SpecificationError(
            "a grouping function must return a dict with at least two groups"
        )
    out = {}
    for name, idx in groups.items():
        idx = np.asarray(idx, dtype=np.int64)
        if idx.ndim != 1:
            raise SpecificationError(f"group {name!r}: indices must be 1-D")
        if len(idx) == 0:
            raise SpecificationError(f"group {name!r} is empty")
        increasing = (idx[1:] > idx[:-1]).all()
        low, high = (idx[0], idx[-1]) if increasing else (idx.min(), idx.max())
        if low < 0 or high >= n_rows:
            raise SpecificationError(
                f"group {name!r}: indices out of range [0, {n_rows})"
            )
        if not increasing:
            member = np.zeros(n_rows, dtype=bool)
            member[idx] = True
            if np.count_nonzero(member) != len(idx):
                raise SpecificationError(
                    f"group {name!r} lists a row index more than once"
                )
        out[str(name)] = idx
    return out


def _enumerate_value_groups(n_rows, values, label_fn):
    """Cross product of observed value combinations → ``{label: indices}``.

    Shared by the intersectional groupings: one group per combination of
    values (one array per attribute), empty combinations skipped.
    """
    uniques = [np.unique(v) for v in values]
    groups = {}
    for combo in itertools.product(*uniques):
        mask = np.ones(n_rows, dtype=bool)
        for val, arr in zip(combo, values):
            mask &= arr == val
        if mask.any():
            groups[label_fn(combo)] = np.nonzero(mask)[0]
    return groups


class _BySensitiveAttribute:
    __name__ = "by_sensitive_attribute"
    # empty tuple = the DSL's default grouping, printed without parentheses
    dsl_attrs = ()

    def __call__(self, dataset):
        groups = {}
        for code in range(dataset.n_groups):
            name = (
                dataset.group_names[code]
                if dataset.group_names
                else f"group_{code}"
            )
            idx = np.nonzero(dataset.sensitive == code)[0]
            if len(idx):
                groups[name] = idx
        return groups


class _ByAttributes:
    """Grouping over named dataset attributes (the spec DSL's form).

    A name resolves, in order, to the dataset's sensitive attribute, an
    ``extras`` array, or a ``feature_names`` column.  Several names yield
    the cross product of their observed values (intersectional groups).
    """

    def __init__(self, names):
        self.names = tuple(str(n) for n in names)
        self.dsl_attrs = self.names
        self.__name__ = f"by_attributes({', '.join(self.names)})"

    @staticmethod
    def _resolve(dataset, name):
        """Return ``(values, value_names)`` for one attribute name."""
        if name == dataset.sensitive_attribute:
            return dataset.sensitive, dataset.group_names or None
        extra = dataset.extras.get(name)
        if (extra is not None and np.ndim(extra) == 1
                and len(extra) == len(dataset)):
            return np.asarray(extra), None
        if name in dataset.feature_names:
            col = dataset.feature_names.index(name)
            return dataset.X[:, col], None
        raise SpecificationError(
            f"attribute {name!r} not found on dataset {dataset.name!r}; "
            f"known: sensitive attribute {dataset.sensitive_attribute!r}, "
            f"extras {sorted(dataset.extras)}, and feature columns"
        )

    def __call__(self, dataset):
        values, value_names = [], []
        for name in self.names:
            vals, names = self._resolve(dataset, name)
            values.append(vals)
            value_names.append(names)
        single = len(self.names) == 1

        def label(combo):
            parts = []
            for attr, val, names in zip(self.names, combo, value_names):
                shown = names[int(val)] if names is not None else val
                parts.append(f"{shown}" if single else f"{attr}={shown}")
            return "&".join(parts)

        groups = _enumerate_value_groups(len(dataset), values, label)
        return groups


class _ByGroups:
    def __init__(self, names):
        self.names = tuple(names)
        self.__name__ = f"by_groups({', '.join(self.names)})"

    def __call__(self, dataset):
        groups = {}
        for name in self.names:
            try:
                code = dataset.group_names.index(name)
            except ValueError:
                raise SpecificationError(
                    f"unknown group {name!r}; dataset has "
                    f"{dataset.group_names}"
                ) from None
            groups[name] = np.nonzero(dataset.sensitive == code)[0]
        return groups


class _Intersectional:
    __name__ = "intersectional"

    def __init__(self, attributes):
        self.attributes = dict(attributes)

    def __call__(self, dataset):
        names = sorted(self.attributes)
        values = [np.asarray(self.attributes[a](dataset)) for a in names]
        groups = _enumerate_value_groups(
            len(dataset), values,
            lambda combo: "&".join(
                f"{a}={v}" for a, v in zip(names, combo)
            ),
        )
        return groups


class _ByPredicate:
    __name__ = "by_predicate"

    def __init__(self, predicates):
        self.predicates = dict(predicates)

    def __call__(self, dataset):
        groups = {}
        for name, pred in self.predicates.items():
            mask = np.asarray(pred(dataset), dtype=bool)
            if mask.shape != (len(dataset),):
                raise SpecificationError(
                    f"predicate {name!r} must return a boolean mask of "
                    f"length {len(dataset)}"
                )
            groups[name] = np.nonzero(mask)[0]
        return groups


def by_sensitive_attribute():
    """Group rows by the dataset's sensitive attribute codes.

    Group names come from ``dataset.group_names``; a dataset with k
    sensitive values yields k groups (and hence ``k·(k−1)/2`` induced
    pairwise constraints, per Definition 1).
    """
    return _BySensitiveAttribute()


def by_attributes(*names):
    """Group rows by named dataset attributes (intersectional if several).

    This is the grouping form the spec DSL produces: ``"SP(race)"`` maps
    to ``by_attributes("race")`` and ``"MR(race * sex)"`` to
    ``by_attributes("race", "sex")``.  Each name resolves against the
    dataset's sensitive attribute, its ``extras`` arrays, or a feature
    column, in that order, at bind time.
    """
    if not names:
        raise SpecificationError("by_attributes needs at least one name")
    return _ByAttributes(names)


def by_groups(*names):
    """Group rows by an explicit subset of sensitive-attribute values.

    ``by_groups("African-American", "Caucasian")`` on the 3-group COMPAS
    dataset induces the single classic constraint.
    """
    if len(names) < 2:
        raise SpecificationError("by_groups needs at least two group names")
    return _ByGroups(names)


def intersectional(attributes):
    """Intersectional grouping over several named attribute arrays.

    Parameters
    ----------
    attributes : dict[str, callable]
        Maps attribute name to a function ``dataset -> 1-D value array``
        (e.g. ``{"race": lambda d: d.sensitive, "sex": lambda d:
        d.extras["sex"]}``).  One group is emitted per observed value
        combination, named ``"race=1&sex=0"`` style.
    """
    if len(attributes) < 1:
        raise SpecificationError("intersectional needs at least one attribute")
    return _Intersectional(attributes)


def by_predicate(**predicates):
    """Arbitrary user-defined groups, one boolean predicate per group.

    ``by_predicate(young=lambda d: d.X[:, 0] < 25, old=lambda d:
    d.X[:, 0] >= 60)``.  Groups may overlap (§4.3 allows it).
    """
    if len(predicates) < 2:
        raise SpecificationError("by_predicate needs at least two groups")
    return _ByPredicate(predicates)

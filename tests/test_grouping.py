"""Tests for declarative grouping functions (§4.1)."""

import numpy as np
import pytest

from repro.core.exceptions import SpecificationError
from repro.core.grouping import (
    by_groups,
    by_predicate,
    by_sensitive_attribute,
    intersectional,
    validate_grouping,
)
from repro.core.spec import FairnessSpec
from repro.datasets import make_biased_dataset


@pytest.fixture(scope="module")
def data():
    return make_biased_dataset(
        "g", 300, ("A", "B", "C"), (0.5, 0.3, 0.2), (0.5, 0.4, 0.3), seed=0
    )


class TestBySensitiveAttribute:
    def test_groups_match_codes(self, data):
        groups = by_sensitive_attribute()(data)
        assert set(groups) == {"A", "B", "C"}
        for code, name in enumerate(("A", "B", "C")):
            assert np.array_equal(
                groups[name], np.nonzero(data.sensitive == code)[0]
            )

    def test_groups_partition_dataset(self, data):
        groups = by_sensitive_attribute()(data)
        combined = np.sort(np.concatenate(list(groups.values())))
        assert np.array_equal(combined, np.arange(len(data)))


class TestByGroups:
    def test_selects_named_pair(self, data):
        groups = by_groups("A", "C")(data)
        assert set(groups) == {"A", "C"}

    def test_unknown_name_raises(self, data):
        with pytest.raises(SpecificationError, match="unknown group"):
            by_groups("A", "Z")(data)

    def test_needs_two_names(self):
        with pytest.raises(SpecificationError, match="at least two"):
            by_groups("A")


class TestIntersectional:
    def test_cross_product_groups(self, data):
        rng = np.random.default_rng(0)
        sex = rng.integers(0, 2, size=len(data))
        grouping = intersectional(
            {"race": lambda d: d.sensitive, "sex": lambda d: sex}
        )
        groups = grouping(data)
        # 3 races x 2 sexes = up to 6 intersections
        assert 4 <= len(groups) <= 6
        assert any("race=0" in k and "sex=1" in k for k in groups)

    def test_group_membership_correct(self, data):
        flags = (np.arange(len(data)) % 2).astype(np.int64)
        grouping = intersectional({"flag": lambda d: flags})
        with pytest.raises(SpecificationError):
            # one attribute with a single value would yield <2 groups only
            # if flags were constant; here it yields exactly 2 -> no raise.
            # Binding is where a grouping's result is checked
            grouping_constant = intersectional(
                {"c": lambda d: np.zeros(len(d))}
            )
            FairnessSpec("SP", 0.1, grouping=grouping_constant).bind(data)
        groups = grouping(data)
        assert np.array_equal(groups["flag=0"], np.nonzero(flags == 0)[0])


class TestByPredicate:
    def test_overlapping_groups_allowed(self, data):
        grouping = by_predicate(
            all_rows=lambda d: np.ones(len(d), dtype=bool),
            group_a=lambda d: d.sensitive == 0,
        )
        groups = grouping(data)
        assert len(groups["all_rows"]) == len(data)

    def test_bad_mask_shape_raises(self, data):
        grouping = by_predicate(
            a=lambda d: np.ones(3, dtype=bool),
            b=lambda d: np.ones(len(d), dtype=bool),
        )
        with pytest.raises(SpecificationError, match="boolean mask"):
            grouping(data)

    def test_needs_two_predicates(self):
        with pytest.raises(SpecificationError, match="at least two"):
            by_predicate(only=lambda d: d.sensitive == 0)


class TestValidateGrouping:
    def test_empty_group_rejected(self):
        with pytest.raises(SpecificationError, match="empty"):
            validate_grouping({"a": [0], "b": []}, 5)

    def test_out_of_range_rejected(self):
        with pytest.raises(SpecificationError, match="out of range"):
            validate_grouping({"a": [0], "b": [9]}, 5)

    def test_single_group_rejected(self):
        with pytest.raises(SpecificationError, match="at least two"):
            validate_grouping({"a": [0]}, 5)

    def test_repeated_row_rejected(self):
        with pytest.raises(SpecificationError, match="more than once"):
            validate_grouping({"a": [3, 0, 3], "b": [1]}, 5)

    def test_2d_indices_rejected(self):
        with pytest.raises(SpecificationError, match="1-D"):
            validate_grouping({"a": [[0]], "b": [1]}, 5)

    def test_names_stringified(self):
        groups = validate_grouping({0: [0], 1: [1]}, 2)
        assert set(groups) == {"0", "1"}


class TestBindValidatesCustomGroupings:
    """``FairnessSpec.bind`` checks a user-written grouping's result."""

    @pytest.mark.parametrize("groups, match", [
        ({"a": [0, 0, 1, 2, 3], "b": list(range(10, 20))},
         "more than once"),
        ({"a": [0, 999], "b": [1, 2]}, "out of range"),
        ({"a": [], "b": [1, 2]}, "empty"),
        ({"a": [0, 1, 2]}, "at least two"),
    ], ids=["repeated-row", "out-of-range", "empty", "single-group"])
    def test_bad_grouping_refused_at_bind(self, data, groups, match):
        spec = FairnessSpec("SP", 0.1, grouping=lambda dataset: groups)
        with pytest.raises(SpecificationError, match=match):
            spec.bind(data)

    def test_unsorted_distinct_rows_bind(self, data):
        spec = FairnessSpec(
            "SP", 0.1, grouping=lambda dataset: {"a": [5, 1, 3], "b": [0]},
        )
        (constraint,) = spec.bind(data)
        assert list(constraint.g1_idx) == [5, 1, 3]

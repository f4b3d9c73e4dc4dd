"""Tests for the synthetic benchmark-dataset twins."""

import numpy as np
import pytest

from repro.datasets import (
    Dataset,
    load,
    load_adult,
    load_bank,
    load_compas,
    load_lsac,
    make_biased_dataset,
    two_group_view,
)

ALL_LOADERS = [load_adult, load_compas, load_lsac, load_bank]


@pytest.mark.parametrize("loader", ALL_LOADERS)
class TestLoaders:
    def test_shapes_consistent(self, loader):
        d = loader(n=500, seed=0)
        assert len(d) == 500
        assert d.X.shape[0] == 500
        assert len(d.feature_names) == d.n_features

    def test_deterministic(self, loader):
        a = loader(n=300, seed=5)
        b = loader(n=300, seed=5)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.y, b.y)

    def test_seed_changes_data(self, loader):
        a = loader(n=300, seed=5)
        b = loader(n=300, seed=6)
        assert not np.array_equal(a.X, b.X)

    def test_labels_binary(self, loader):
        d = loader(n=300, seed=0)
        assert set(np.unique(d.y)) <= {0, 1}

    def test_groups_all_present(self, loader):
        d = loader(n=1000, seed=0)
        assert set(np.unique(d.sensitive)) == set(range(d.n_groups))


class TestBiasCalibration:
    def test_adult_male_favoured(self):
        rates = load_adult(n=4000, seed=0).base_rates()
        assert rates["Male"] > rates["Female"] + 0.1

    def test_compas_aa_higher_recidivism(self):
        rates = load_compas(n=4000, seed=0).base_rates()
        assert rates["African-American"] > rates["Caucasian"]
        assert rates["Caucasian"] >= rates["Hispanic"] - 0.05

    def test_lsac_white_higher_pass(self):
        rates = load_lsac(n=4000, seed=0).base_rates()
        assert rates["White"] > rates["Black"] + 0.1

    def test_bank_young_higher_subscription(self):
        rates = load_bank(n=4000, seed=0).base_rates()
        assert rates["young"] > rates["middle"] + 0.05

    def test_compas_group_proportions(self):
        d = load_compas(n=5000, seed=0)
        frac_aa = np.mean(d.sensitive == 0)
        assert frac_aa == pytest.approx(0.51, abs=0.03)


class TestDatasetContainer:
    def test_subset_preserves_alignment(self):
        d = load_adult(n=200, seed=0)
        idx = np.array([3, 5, 7])
        s = d.subset(idx)
        assert np.array_equal(s.y, d.y[idx])
        assert np.array_equal(s.X, d.X[idx])
        assert s.group_names == d.group_names

    def test_group_mask_by_name_and_code(self):
        d = load_adult(n=200, seed=0)
        assert np.array_equal(d.group_mask("Female"), d.group_mask(1))

    def test_group_mask_unknown_raises(self):
        d = load_adult(n=100, seed=0)
        with pytest.raises(KeyError, match="unknown group"):
            d.group_mask("Martian")

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal lengths"):
            Dataset("x", np.zeros((3, 2)), np.zeros(2), np.zeros(3))

    def test_sensitive_code_out_of_range_raises(self):
        with pytest.raises(ValueError, match="exceed"):
            Dataset(
                "x", np.zeros((2, 1)), np.zeros(2), np.array([0, 5]),
                group_names=("a", "b"),
            )

    def test_float_labels_are_not_truncated(self):
        # an int64 cast would hold [0, 1, 0]
        with pytest.raises(ValueError, match="0.2 0.9"):
            Dataset("x", np.zeros((3, 1)), [0.9, 1.0, 0.2], np.zeros(3))
        with pytest.raises(ValueError, match="nan"):
            Dataset("x", np.zeros((2, 1)), [np.nan, 1.0], np.zeros(2))
        exact = Dataset("x", np.zeros((2, 1)), [1.0, 0.0], np.zeros(2))
        assert exact.y.dtype == np.int64 and list(exact.y) == [1, 0]


def _extras_dataset(n=6, **extras):
    rng = np.random.default_rng(0)
    return Dataset(
        "x",
        rng.normal(size=(n, 2)),
        rng.integers(0, 2, size=n),
        rng.integers(0, 2, size=n),
        group_names=("a", "b"),
        extras=extras,
    )


class TestSubsetExtras:
    """Regression: per-row extras must follow the rows through subset."""

    def test_per_row_ndarray_is_sliced(self):
        role = np.array([0, 1, 0, 1, 0, 1], dtype=bool)
        s = _extras_dataset(is_val=role).subset(np.array([1, 4, 5]))
        assert np.array_equal(s.extras["is_val"], role[[1, 4, 5]])

    def test_per_row_list_and_tuple_are_sliced_preserving_type(self):
        # the pre-fix behaviour copied these whole, silently misaligning
        # the role in the subset
        d = _extras_dataset(
            tags=["a", "b", "c", "d", "e", "f"],
            weights=(10, 11, 12, 13, 14, 15),
        )
        s = d.subset(np.array([5, 0, 2]))
        assert s.extras["tags"] == ["f", "a", "c"]
        assert s.extras["weights"] == (15, 10, 12)

    def test_boolean_mask_index_slices_extras(self):
        mask = np.array([True, False, True, False, True, False])
        s = _extras_dataset(tags=list("abcdef")).subset(mask)
        assert s.extras["tags"] == ["a", "c", "e"]

    def test_metadata_passes_through_even_at_length_n(self):
        d = _extras_dataset(
            note="abcdef",               # length-n str: metadata
            params={"k": 1},             # dict: metadata
            short=[1, 2],                # wrong length: metadata
            scalar=3.5,
        )
        s = d.subset(np.array([0, 1]))
        assert s.extras == d.extras

    def test_ambiguous_length_n_sequence_raises(self):
        class Weird:
            def __len__(self):
                return 6

        with pytest.raises(TypeError, match="per-row.*metadata"):
            _extras_dataset(odd=Weird()).subset(np.array([0]))


class TestFingerprintV2:
    """Regression: the content hash must see shape, dtype, and roles."""

    def test_reshape_no_longer_collides(self):
        d = _extras_dataset()
        flat = Dataset(
            d.name, d.X.reshape(len(d), -1, 1).reshape(len(d), 2),
            d.y, d.sensitive, group_names=d.group_names,
        )
        wide = Dataset(
            d.name, d.X.reshape(3, 4), d.y[:3], d.sensitive[:3],
            group_names=d.group_names,
        )
        assert flat.fingerprint() != wide.fingerprint()

    def test_extra_dtype_change_with_same_bytes_differs(self):
        # X/y/sensitive are dtype-canonicalized by the constructor, so
        # the dtype frame matters for extras, which are stored as given
        role = np.arange(6, dtype=np.int64)
        a = _extras_dataset(fold=role)
        b = _extras_dataset(fold=role.view(np.uint64))
        assert a.extras["fold"].tobytes() == b.extras["fold"].tobytes()
        assert a.fingerprint() != b.fingerprint()

    def test_per_row_extras_fold_into_hash(self):
        plain = _extras_dataset()
        with_role = _extras_dataset(is_val=np.zeros(6, dtype=bool))
        flipped = _extras_dataset(
            is_val=np.array([1, 0, 0, 0, 0, 0], dtype=bool)
        )
        assert plain.fingerprint() != with_role.fingerprint()
        assert with_role.fingerprint() != flipped.fingerprint()

    def test_per_row_list_extras_fold_into_hash(self):
        a = _extras_dataset(tags=list("abcdef"))
        b = _extras_dataset(tags=list("abcdeg"))
        assert a.fingerprint() != b.fingerprint()

    def test_metadata_extras_stay_outside_hash(self):
        a = _extras_dataset(note="same rows", params={"k": 1})
        b = _extras_dataset(note="different note", params={"k": 2})
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_stable_across_calls(self):
        d = _extras_dataset(is_val=np.zeros(6, dtype=bool))
        assert d.fingerprint() == d.fingerprint()


class TestTwoGroupView:
    def test_filters_and_recodes(self):
        d = load_compas(n=2000, seed=0)
        v = two_group_view(d)
        assert v.group_names == ("African-American", "Caucasian")
        assert set(np.unique(v.sensitive)) == {0, 1}
        assert len(v) < len(d)  # Hispanic rows removed

    def test_base_rates_preserved(self):
        d = load_compas(n=4000, seed=0)
        v = two_group_view(d)
        assert v.base_rates()["African-American"] == pytest.approx(
            d.base_rates()["African-American"]
        )

    def test_custom_pair(self):
        d = load_compas(n=2000, seed=0)
        v = two_group_view(d, keep=("Caucasian", "Hispanic"))
        assert v.group_names == ("Caucasian", "Hispanic")


class TestMakeBiasedDataset:
    def test_validates_proportions(self):
        with pytest.raises(ValueError, match="proportions"):
            make_biased_dataset("x", 100, ("a", "b"), (1.0,), (0.5, 0.5))

    def test_validates_rates(self):
        with pytest.raises(ValueError, match="base_rates"):
            make_biased_dataset("x", 100, ("a", "b"), (1, 1), (0.5, 1.5))

    def test_needs_two_groups(self):
        with pytest.raises(ValueError, match="two groups"):
            make_biased_dataset("x", 100, ("a",), (1.0,), (0.5,))

    def test_sensitive_feature_optional(self):
        with_s = make_biased_dataset(
            "x", 100, ("a", "b"), (1, 1), (0.5, 0.4), seed=0
        )
        without_s = make_biased_dataset(
            "x", 100, ("a", "b"), (1, 1), (0.5, 0.4), seed=0,
            include_sensitive_feature=False,
        )
        assert with_s.n_features == without_s.n_features + 2

    def test_registry_load(self):
        d = load("adult", n=100, seed=1)
        assert d.name == "adult"
        with pytest.raises(KeyError, match="unknown dataset"):
            load("mnist")

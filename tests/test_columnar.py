"""Out-of-core columnar store: round-trip identity, views, corruption.

The columnar backend's contract is *bit identity*: an encoded-and-
reopened dataset must produce the same fingerprint, the same compiled
evaluator counts, and the same selected λ as its in-memory twin —
nothing here is approximate.  A damaged store must warn and refuse to
open (``ColumnarFormatError``), never return wrong counts.
"""

from __future__ import annotations

import json
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine, Problem
from repro.core.kernels import CompiledEvaluator
from repro.core.spec import bind_specs
from repro.datasets import (
    ColumnarDataset,
    ColumnarFormatError,
    Dataset,
    encode_dataset,
    encode_scenario,
    load,
    load_scenario,
    open_columnar,
)
from repro.datasets.columnar import ColumnarWriter
from repro.datasets.scenarios import SCENARIOS
from repro.ml import DecisionTree, GaussianNaiveBayes


def _random_dataset(rng, n, d, n_groups=2, extras=True):
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=n)
    if y.min() == y.max():
        y[: n // 2] = 1 - y[0]
    sensitive = rng.integers(0, n_groups, size=n)
    extra = {}
    if extras:
        extra = {
            "is_val": rng.random(n) < 0.3,
            "score": rng.normal(size=n),
            "seed": 7,
            "note": "metadata stays metadata",
        }
    return Dataset(
        name="unit", X=X, y=y, sensitive=sensitive,
        group_names=tuple(f"g{i}" for i in range(n_groups)),
        sensitive_attribute="grp",
        feature_names=tuple(f"f{j}" for j in range(d)),
        extras=extra,
    )


# arbitrary JSON, plus the names and values a valid manifest holds, so a
# replacement can also be another column's file or a well-formed field
_JSON_VALUES = st.one_of(
    st.recursive(
        st.none() | st.booleans() | st.integers()
        | st.floats(allow_nan=False) | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=6,
    ),
    st.sampled_from([
        "X.npy", "y.npy", "sensitive.npy", "extra_is_val.npy",
        "extra_score.npy", "../X.npy", "<f8", "<i8", "|b1", [120],
        [120, 2], 120, 119, ["g0", "g1"], ["g0"], [], {}, "0" * 40,
    ]),
)


@pytest.fixture(scope="module")
def pristine_store(tmp_path_factory):
    """A valid store, its manifest text, and the dataset it encodes."""
    root = tmp_path_factory.mktemp("pristine")
    data = _random_dataset(np.random.default_rng(8), 120, 2)
    encode_dataset(data, root)
    return root, (root / "manifest.json").read_text(), data


class TestRoundTrip:
    def test_arrays_fingerprint_and_sidecars(self, tmp_path):
        rng = np.random.default_rng(0)
        data = _random_dataset(rng, 500, 4, n_groups=3)
        manifest = encode_dataset(data, tmp_path)
        got = open_columnar(tmp_path)
        assert isinstance(got, ColumnarDataset)
        assert np.array_equal(got.X, data.X)
        assert np.array_equal(got.y, data.y)
        assert np.array_equal(got.sensitive, data.sensitive)
        assert np.array_equal(got.extras["is_val"], data.extras["is_val"])
        assert got.extras["is_val"].dtype == np.bool_
        assert got.extras["seed"] == 7 and got.extras["note"]
        # the streamed fingerprint is bit-identical to the in-memory one
        assert manifest["fingerprint"] == data.fingerprint()
        assert got.fingerprint() == data.fingerprint()
        assert got.verify_fingerprint()
        # columns stay memory-mapped through Dataset.__post_init__
        assert isinstance(got.X, np.memmap)
        assert isinstance(got.y, np.memmap)
        # the store is the manifest plus one file per column, no more
        assert "sidecars" not in manifest
        files = {spec["file"] for spec in manifest["columns"].values()}
        assert len(files) == len(manifest["columns"])
        assert {p.name for p in tmp_path.iterdir()} == files | {
            "manifest.json"
        }

    def test_store_written_by_4x_still_opens(self, tmp_path):
        # a 4.x encoder also wrote a group-sorted row index and a
        # per-feature argsort, and listed them under "sidecars"; the
        # reader never opens them, so the store opens unchanged
        data = _random_dataset(np.random.default_rng(1), 300, 3, n_groups=3)
        encode_dataset(data, tmp_path)
        counts = np.bincount(data.sensitive, minlength=3)
        np.save(tmp_path / "group_order.npy",
                np.argsort(data.sensitive, kind="stable"))
        np.save(tmp_path / "group_offsets.npy",
                np.concatenate([[0], np.cumsum(counts)]))
        np.save(tmp_path / "feature_order.npy",
                np.argsort(data.X, axis=0, kind="mergesort"))
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["sidecars"] = {
            "feature_order": "feature_order.npy",
            "group_offsets": "group_offsets.npy",
            "group_order": "group_order.npy",
        }
        (tmp_path / "manifest.json").write_text(
            json.dumps(manifest, indent=1, sort_keys=True)
        )
        got = open_columnar(tmp_path, verify=True)
        assert got.fingerprint() == data.fingerprint()
        assert np.array_equal(got.X, data.X)
        assert np.array_equal(got.y, data.y)
        assert np.array_equal(got.sensitive, data.sensitive)
        assert np.array_equal(got.extras["score"], data.extras["score"])

    def test_streaming_scenario_encode_equals_materialized(self, tmp_path):
        # odd chunk size, bool + positional float extras
        for name, overrides in (("label_noise", {}), ("drifting_mix", {})):
            root = tmp_path / name
            encode_scenario(name, root, n=3000, seed=5, chunk_rows=713,
                            **overrides)
            got = open_columnar(root)
            ref = load_scenario(name, n=3000, seed=5, **overrides)
            assert got.fingerprint() == ref.fingerprint()
            assert np.array_equal(got.X, ref.X)
            for key, value in ref.extras.items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(got.extras[key], value)
                    assert got.extras[key].dtype == value.dtype

    def test_chunk_size_does_not_change_the_store(self, tmp_path):
        a = encode_scenario("imbalance", tmp_path / "a", n=2000, seed=1,
                            chunk_rows=64)
        b = encode_scenario("imbalance", tmp_path / "b", n=2000, seed=1,
                            chunk_rows=1999)
        assert a["fingerprint"] == b["fingerprint"]

    def test_list_extras_refused(self, tmp_path):
        data = _random_dataset(np.random.default_rng(2), 50, 2, extras=False)
        data.extras["roles"] = ["a"] * 50
        with pytest.raises(ValueError, match="object array"):
            encode_dataset(data, tmp_path)

    @pytest.mark.parametrize("chunk_rows", [0, -1, 2.5])
    @pytest.mark.parametrize("entry", ["writer", "dataset", "scenario"])
    def test_bad_chunk_rows_refused_before_mkdir(self, tmp_path, entry,
                                                 chunk_rows):
        root = tmp_path / "store"
        data = _random_dataset(np.random.default_rng(2), 300, 2)
        calls = {
            "writer": lambda: ColumnarWriter(
                root, 300, name="t", chunk_rows=chunk_rows),
            "dataset": lambda: encode_dataset(
                data, root, chunk_rows=chunk_rows),
            "scenario": lambda: encode_scenario(
                "imbalance", root, n=300, chunk_rows=chunk_rows),
        }
        with pytest.raises(ValueError, match="chunk_rows"):
            calls[entry]()
        assert not root.exists()

    def test_hundred_million_row_family_registered(self):
        family = SCENARIOS["hundred_million_row"]
        assert family.n_default == 100_000_000
        small = load_scenario("hundred_million_row", n=600, seed=0)
        assert len(small) == 600 and small.n_groups == 2


class TestViewsAndZeroCopy:
    def test_subset_slice_is_a_view(self, tmp_path):
        data = _random_dataset(np.random.default_rng(3), 400, 3)
        encode_dataset(data, tmp_path)
        got = open_columnar(tmp_path)
        sub = got.subset(slice(50, 250))
        for a, b in ((sub.X, got.X), (sub.y, got.y),
                     (sub.sensitive, got.sensitive),
                     (sub.extras["is_val"], got.extras["is_val"])):
            assert np.shares_memory(a, b)
        # fancy indexing copies — numpy has no view of a scattered row
        # set; this is the documented cost of permutation splits
        fancy = got.subset(np.array([3, 1, 2]))
        assert not np.shares_memory(fancy.X, got.X)

    def test_iter_chunks_streams_views(self, tmp_path):
        data = _random_dataset(np.random.default_rng(4), 300, 2)
        encode_dataset(data, tmp_path)
        got = open_columnar(tmp_path)
        chunks = list(got.iter_chunks(chunk_size=77))
        assert sum(len(c) for c in chunks) == 300
        assert all(np.shares_memory(c.X, got.X) for c in chunks)
        assert np.array_equal(
            np.vstack([c.X for c in chunks]), data.X
        )
        with pytest.raises(ValueError, match="chunk_size"):
            next(got.iter_chunks(0))

    def test_post_init_preserves_conforming_arrays(self):
        X = np.zeros((4, 2))
        y = np.zeros(4, dtype=np.int64)
        s = np.zeros(4, dtype=np.int64)
        data = Dataset(name="t", X=X, y=y, sensitive=s)
        assert data.X is X and data.y is y and data.sensitive is s
        # wrong dtypes still coerce
        data2 = Dataset(name="t", X=X.astype(np.float32), y=list(y),
                        sensitive=s)
        assert data2.X.dtype == np.float64 and data2.y.dtype == np.int64

    def test_tree_on_mapped_matrix_matches_in_memory(self, tmp_path):
        data = _random_dataset(np.random.default_rng(7), 240, 3,
                               extras=False)
        encode_dataset(data, tmp_path)
        got = open_columnar(tmp_path)
        ref = DecisionTree(max_depth=4, random_state=0).fit(data.X, data.y)
        via_map = DecisionTree(max_depth=4, random_state=0).fit(
            got.X, got.y
        )
        assert np.array_equal(ref.predict(data.X), via_map.predict(data.X))
        assert np.array_equal(ref.threshold_, via_map.threshold_)


class TestEngineEquivalence:
    def test_grid_solve_identical_to_in_memory(self, tmp_path):
        encode_scenario("million_row", tmp_path, n=12_000, seed=0,
                        chunk_rows=2048)
        col = open_columnar(tmp_path)
        ref = load_scenario("million_row", n=12_000, seed=0)

        def slice_splits(d):
            n = len(d)
            a, b = int(round(n * 0.6)), int(round(n * 0.8))
            return d.subset(slice(0, a)), d.subset(slice(a, b))

        results = {}
        for kind, d, chunk in (("col", col, 1024), ("ref", ref, None)):
            train, val = slice_splits(d)
            engine = Engine("grid", grid_steps=8, grid_max=0.5,
                            chunk_size=chunk)
            results[kind] = engine.solve(
                Problem("SP <= 0.05"), GaussianNaiveBayes(), train, val
            ).report
        assert np.array_equal(
            results["col"].lambdas, results["ref"].lambdas
        )
        assert results["col"].lambdas[0] != 0.0
        assert (
            results["col"].validation["accuracy"]
            == results["ref"].validation["accuracy"]
        )

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(60, 300),
        d=st.integers(1, 4),
        n_groups=st.integers(2, 3),
        chunk=st.integers(1, 400),
        encode_chunk=st.integers(7, 128),
    )
    def test_roundtrip_evaluation_bitwise(self, seed, n, d, n_groups,
                                          chunk, encode_chunk):
        rng = np.random.default_rng(seed)
        data = _random_dataset(rng, n, d, n_groups=n_groups)
        with tempfile.TemporaryDirectory() as root:
            encode_dataset(data, root, chunk_rows=encode_chunk)
            got = open_columnar(root)
            assert got.fingerprint() == data.fingerprint()
            constraints = bind_specs(Problem("SP <= 0.05").specs, got)
            ref_constraints = bind_specs(Problem("SP <= 0.05").specs, data)
            model = GaussianNaiveBayes().fit(data.X, data.y)
            ev = CompiledEvaluator(constraints, got.y, chunk_size=chunk)
            ev_ref = CompiledEvaluator(ref_constraints, data.y)
            d_got, a_got = ev.score_models_batch([model], got.X)
            d_ref, a_ref = ev_ref.score_models_batch([model], data.X)
            assert np.array_equal(d_got, d_ref)
            assert np.array_equal(a_got, a_ref)


class TestCorruptionDiscipline:
    def _store(self, tmp_path):
        data = _random_dataset(np.random.default_rng(8), 120, 2)
        encode_dataset(data, tmp_path)
        return tmp_path

    def _assert_refuses(self, root, match):
        with pytest.warns(RuntimeWarning, match="refused"):
            with pytest.raises(ColumnarFormatError, match=match):
                open_columnar(root)

    def test_missing_manifest(self, tmp_path):
        self._assert_refuses(tmp_path, "no manifest")

    def test_garbled_manifest(self, tmp_path):
        root = self._store(tmp_path)
        (root / "manifest.json").write_text("{not json")
        self._assert_refuses(root, "manifest unreadable")

    def test_unsupported_format_tag(self, tmp_path):
        root = self._store(tmp_path)
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["format"] = "repro-columnar/v999"
        (root / "manifest.json").write_text(json.dumps(manifest))
        self._assert_refuses(root, "unsupported format")

    def test_missing_column_file(self, tmp_path):
        root = self._store(tmp_path)
        (root / "y.npy").unlink()
        self._assert_refuses(root, "missing")

    def test_truncated_column_file(self, tmp_path):
        root = self._store(tmp_path)
        payload = (root / "X.npy").read_bytes()
        (root / "X.npy").write_bytes(payload[: len(payload) // 2])
        self._assert_refuses(root, "X")

    def test_dtype_shape_drift(self, tmp_path):
        root = self._store(tmp_path)
        y = np.load(root / "y.npy")
        np.save(root / "y.npy", y.astype(np.int32))
        self._assert_refuses(root, "column y")

    def test_tampered_bytes_fail_verify(self, tmp_path):
        root = self._store(tmp_path)
        X = np.lib.format.open_memmap(root / "X.npy", mode="r+")
        X[0, 0] += 1.0
        X.flush()
        del X
        # structurally intact, so a plain open succeeds...
        open_columnar(root)
        # ...but a verifying open re-hashes the bytes and refuses
        self._assert_refuses_verify(root)

    def _assert_refuses_verify(self, root):
        with pytest.warns(RuntimeWarning, match="refused"):
            with pytest.raises(ColumnarFormatError, match="fingerprint"):
                open_columnar(root, verify=True)

    def test_crashed_encode_never_opens(self, tmp_path):
        # a writer that never finalized leaves no manifest behind
        writer = ColumnarWriter(tmp_path, 100, name="t")
        writer.append(np.zeros((40, 2)), np.zeros(40, dtype=np.int64),
                      np.zeros(40, dtype=np.int64))
        self._assert_refuses(tmp_path, "no manifest")
        with pytest.raises(ValueError, match="incomplete"):
            writer.finalize()

    @pytest.mark.parametrize("path, value, match", [
        ((), ["manifest"], "not an object"),
        ((), "manifest", "not an object"),
        (("columns", "X"), "X.npy", "column X"),
        (("columns", "X", "shape"), 5, "shape"),
        (("metadata",), [1, 2], "metadata"),
        (("group_names",), 5, "group_names"),
        (("columns", "X", "file"), None, "column X"),
        (("columns", "X", "file"), "<absolute>", "column X"),
        (("columns", "X", "file"), "../outside/X.npy", "column X"),
        (("columns", "y", "file"), "sensitive.npy", "column y"),
        (("fingerprint",), 5, "fingerprint"),
    ], ids=["list", "string", "spec-string", "shape-int", "metadata-list",
            "group-names-int", "file-null", "file-absolute", "file-escapes",
            "file-swapped", "fingerprint-int"])
    def test_malformed_manifest_refused(self, tmp_path, path, value, match):
        # a same-shape store next door: a manifest that could name its
        # files would open with its rows under this store's fingerprint
        root = self._store(tmp_path / "store")
        encode_dataset(
            _random_dataset(np.random.default_rng(9), 120, 2),
            tmp_path / "outside",
        )
        if value == "<absolute>":
            value = str(tmp_path / "outside" / "X.npy")
        manifest = json.loads((root / "manifest.json").read_text())
        if path:
            *parents, key = path
            target = manifest
            for parent in parents:
                target = target[parent]
            target[key] = value
        else:
            manifest = value
        (root / "manifest.json").write_text(json.dumps(manifest))
        self._assert_refuses(root, match)

    @settings(max_examples=80, deadline=None)
    @given(choice=st.data(), value=_JSON_VALUES)
    def test_one_field_replaced_refuses_or_reads_the_same_rows(
            self, pristine_store, choice, value):
        root, text, data = pristine_store
        manifest = json.loads(text)
        if choice.draw(st.booleans(), label="column spec field"):
            tag = choice.draw(st.sampled_from(sorted(manifest["columns"])))
            spec = manifest["columns"][tag]
            spec[choice.draw(st.sampled_from(sorted(spec)))] = value
        else:
            manifest[choice.draw(st.sampled_from(sorted(manifest)))] = value
        (root / "manifest.json").write_text(json.dumps(manifest))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = open_columnar(root)
        except ColumnarFormatError:
            return
        finally:
            (root / "manifest.json").write_text(text)
        assert np.array_equal(got.X, data.X)
        assert np.array_equal(got.y, data.y)
        assert np.array_equal(got.sensitive, data.sensitive)
        per_row = {k: v for k, v in got.extras.items()
                   if isinstance(v, np.ndarray)}
        assert per_row.keys() == {"is_val", "score"}
        for key, column in per_row.items():
            assert np.array_equal(column, data.extras[key])


class TestLoaderIntegration:
    def test_load_columnar_dir_and_suffix(self, tmp_path):
        encode_scenario("imbalance", tmp_path, n=1000, seed=0)
        via_dir = load("scenario:imbalance", columnar_dir=tmp_path)
        via_suffix = load("scenario:imbalance@columnar",
                          columnar_dir=tmp_path)
        assert via_dir.fingerprint() == via_suffix.fingerprint()
        assert isinstance(via_dir, ColumnarDataset)

    def test_suffix_without_dir_raises(self):
        with pytest.raises(KeyError, match="columnar"):
            load("scenario:imbalance@columnar")

    def test_name_mismatch_raises(self, tmp_path):
        encode_scenario("imbalance", tmp_path, n=500, seed=0)
        with pytest.raises(KeyError, match="holds"):
            load("scenario:million_row@columnar", columnar_dir=tmp_path)

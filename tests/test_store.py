"""Cross-run semantic cache: blob store, solution cache, engine wiring.

Three tiers, mirroring the layering in ``repro.store``:

* ``CacheStore`` — round-trips, atomicity under a thread hammer,
  corruption injection (a damaged blob must warn and read as a miss,
  never crash), and an eviction-order property test;
* ``SolutionCache`` — exact-key canonical equivalence, shape-key
  threshold erasure, and the warm-start index;
* engine/CLI integration — a canonically-equivalent re-solve through a
  fresh Engine spends **0 fits** and returns bit-identical λ, a
  tightened re-solve warm-starts into strictly fewer fits than cold,
  and the CLI ``--store-dir`` round-trip does the same end to end;
* estimator fingerprints — both persistent keys (fit blobs and
  solutions) separate every estimator that could train another model.
"""

import io
import pathlib
import shutil
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Engine, FairModel, Problem
from repro.cli import main as cli_main
from repro.core.fitter import WeightedFitter
from repro.core.strategies import get_strategy
from repro.datasets import load_scenario
from repro.ml import ExternalEstimatorAdapter, GaussianNaiveBayes
from repro.ml.base import estimator_fingerprint
from repro.store import CacheStore, SolutionCache
from repro.store.blob import content_key

KEY_A = content_key("a")
KEY_B = content_key("b")


# -- CacheStore ---------------------------------------------------------------


class TestCacheStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = CacheStore(tmp_path)
        payload = {"w": np.arange(5.0), "label": "x"}
        store.put("fit", KEY_A, payload)
        loaded = store.get("fit", KEY_A)
        assert loaded["label"] == "x"
        np.testing.assert_array_equal(loaded["w"], payload["w"])
        assert store.counters["puts"] == 1
        assert store.counters["hits"] == 1

    def test_miss_returns_default(self, tmp_path):
        store = CacheStore(tmp_path)
        assert store.get("fit", KEY_A) is None
        assert store.get("fit", KEY_A, default=7) == 7
        assert store.counters["misses"] == 2

    def test_namespaces_do_not_collide(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("fit", KEY_A, "fit-side")
        store.put("eval", KEY_A, "eval-side")
        assert store.get("fit", KEY_A) == "fit-side"
        assert store.get("eval", KEY_A) == "eval-side"

    def test_non_hex_keys_rejected(self, tmp_path):
        store = CacheStore(tmp_path)
        with pytest.raises(ValueError, match="hex"):
            store.put("fit", "../escape", "x")
        with pytest.raises(ValueError, match="hex"):
            store.get("fit", "UPPER")

    def test_delete(self, tmp_path):
        store = CacheStore(tmp_path)
        store.put("fit", KEY_A, 1)
        assert store.delete("fit", KEY_A) is True
        assert store.delete("fit", KEY_A) is False
        assert store.get("fit", KEY_A) is None

    def test_stats_counts_blobs_and_bytes(self, tmp_path):
        store = CacheStore(tmp_path, max_bytes=10**9)
        store.put("fit", KEY_A, np.zeros(16))
        store.put("eval", KEY_B, np.zeros(16))
        stats = store.stats()
        assert stats["blobs"] == 2
        assert stats["bytes"] > 0
        assert stats["max_bytes"] == 10**9

    def test_corrupt_blob_warns_and_misses(self, tmp_path):
        store = CacheStore(tmp_path)
        path = store.put("fit", KEY_A, {"ok": True})
        with open(path, "wb") as fh:
            fh.write(b"not a pickle at all")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get("fit", KEY_A) is None
        assert store.counters["corrupt"] == 1
        # the damaged file was removed: next read is a clean miss
        assert store.get("fit", KEY_A) is None
        assert store.counters["corrupt"] == 1

    def test_truncated_blob_warns_and_misses(self, tmp_path):
        store = CacheStore(tmp_path)
        path = store.put("fit", KEY_A, np.arange(1000.0))
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get("fit", KEY_A) is None

    def test_no_tmp_files_left_behind(self, tmp_path):
        store = CacheStore(tmp_path)
        for i in range(10):
            store.put("fit", content_key(str(i)), i)
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_concurrent_writers_and_readers(self, tmp_path):
        """Thread hammer: shared keys, every read sees a complete blob."""
        store = CacheStore(tmp_path)
        keys = [content_key(str(i)) for i in range(8)]
        payloads = {k: np.full(64, i, dtype=np.float64)
                    for i, k in enumerate(keys)}
        errors = []

        def writer():
            for _ in range(15):
                for key in keys:
                    store.put("fit", key, payloads[key])

        def reader():
            for _ in range(30):
                for key in keys:
                    got = store.get("fit", key)
                    if got is None:
                        continue  # not yet written
                    if not np.array_equal(got, payloads[key]):
                        errors.append(f"partial read for {key}")

        threads = (
            [threading.Thread(target=writer) for _ in range(4)]
            + [threading.Thread(target=reader) for _ in range(4)]
        )
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert store.counters["corrupt"] == 0
        for key in keys:
            np.testing.assert_array_equal(
                store.get("fit", key), payloads[key]
            )


class TestCacheStoreEviction:
    def test_over_budget_evicts_oldest_first(self, tmp_path):
        store = CacheStore(tmp_path)
        keys = [content_key(str(i)) for i in range(4)]
        for i, key in enumerate(keys):
            store.put("fit", key, np.zeros(8) + i)
        blob_size = store.stats()["bytes"] // 4
        # budget for two blobs: the two oldest must go
        store.max_bytes = 2 * blob_size + blob_size // 2
        store._evict_over_budget()
        assert store.get("fit", keys[0]) is None
        assert store.get("fit", keys[1]) is None
        assert store.get("fit", keys[2]) is not None
        assert store.get("fit", keys[3]) is not None

    def test_get_refreshes_recency(self, tmp_path):
        store = CacheStore(tmp_path)
        keys = [content_key(str(i)) for i in range(3)]
        for key in keys:
            store.put("fit", key, np.zeros(8))
        store.get("fit", keys[0])  # oldest put, now most recently used
        blob_size = store.stats()["bytes"] // 3
        store.max_bytes = 2 * blob_size + blob_size // 2
        store._evict_over_budget()
        assert store.get("fit", keys[0]) is not None
        assert store.get("fit", keys[1]) is None

    def test_put_never_evicts_its_own_blob(self, tmp_path):
        store = CacheStore(tmp_path, max_bytes=1)
        store.put("fit", KEY_A, np.zeros(64))
        assert store.get("fit", KEY_A) is not None

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(accesses=st.lists(st.integers(min_value=0, max_value=5),
                             min_size=0, max_size=12),
           survivors=st.integers(min_value=1, max_value=5))
    def test_eviction_order_is_lru(self, tmp_path, accesses, survivors):
        """Property: the blobs kept are exactly the most recently used."""
        root = tmp_path / f"p{len(accesses)}-{survivors}"
        store = CacheStore(root)
        keys = [content_key(str(i)) for i in range(6)]
        for key in keys:
            store.put("fit", key, np.zeros(8))
        for i in accesses:
            store.get("fit", keys[i])
        # recency order: puts 0..5, then the access sequence
        order = list(range(6))
        for i in accesses:
            order.remove(i)
            order.append(i)
        expected_kept = set(order[-survivors:])
        blob_size = store.stats()["bytes"] // 6
        store.max_bytes = survivors * blob_size + blob_size // 2
        store._evict_over_budget()
        kept = {
            i for i, key in enumerate(keys)
            if (root / "fit" / key[:2] / (key + ".blob")).is_file()
        }
        assert kept == expected_kept


# -- SolutionCache ------------------------------------------------------------


def desc_for(spec, epsilon, **over):
    desc = {
        "canonical": Problem(spec).canonical(),
        "epsilon": epsilon,
        "train": "tfp", "val": "vfp",
        "estimator": "GaussianNaiveBayes",
        "strategy": "binary_search",
    }
    desc.update(over)
    return desc


class TestSolutionCacheKeys:
    def test_exact_key_is_canonical(self):
        assert SolutionCache.exact_key(desc_for("SP <= 0.08", 0.08)) == \
            SolutionCache.exact_key(desc_for("sp  <=  8e-2", 0.08))

    def test_exact_key_separates_datasets(self):
        a = SolutionCache.exact_key(desc_for("SP <= 0.08", 0.08))
        b = SolutionCache.exact_key(
            desc_for("SP <= 0.08", 0.08, train="other")
        )
        assert a != b

    def test_shape_key_erases_the_threshold(self):
        tight = desc_for("SP <= 0.05", 0.05)
        loose = desc_for("SP <= 0.08", 0.08)
        assert SolutionCache.shape_key(tight) == \
            SolutionCache.shape_key(loose)
        assert SolutionCache.exact_key(tight) != \
            SolutionCache.exact_key(loose)

    def test_multi_constraint_shapes_are_not_indexable(self):
        desc = desc_for("SP <= 0.05 and FNR <= 0.05", None)
        assert SolutionCache.shape_key(desc) is None


class TestSolutionCacheWarmIndex:
    def test_roundtrip_and_tightest_looser_wins(self, tmp_path):
        cache = SolutionCache(CacheStore(tmp_path))
        cache.note_warm(desc_for("SP <= 0.2", 0.2), 0.5, False)
        cache.note_warm(desc_for("SP <= 0.1", 0.1), 1.0, True)
        warm = cache.get_warm(desc_for("SP <= 0.05", 0.05))
        assert warm == {"lambda": 1.0, "swapped": True, "epsilon": 0.1}

    def test_no_looser_epsilon_means_no_warm_start(self, tmp_path):
        cache = SolutionCache(CacheStore(tmp_path))
        cache.note_warm(desc_for("SP <= 0.05", 0.05), 1.0, False)
        # equal: the exact cache's job.  looser request: not bracketed.
        assert cache.get_warm(desc_for("SP <= 0.05", 0.05)) is None
        assert cache.get_warm(desc_for("SP <= 0.2", 0.2)) is None

    def test_foreign_payload_reads_as_miss(self, tmp_path):
        store = CacheStore(tmp_path)
        cache = SolutionCache(store)
        desc = desc_for("SP <= 0.08", 0.08)
        store.put(SolutionCache.EXACT_NS, SolutionCache.exact_key(desc),
                  {"not": "a FairModel"})
        assert cache.get(desc) is None


# -- Engine integration -------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_data():
    return load_scenario("group_sweep", n=600, seed=3)


class TestEngineStore:
    def test_canonical_resolve_is_zero_fits(self, tmp_path, sweep_data):
        cold = Engine("hill_climb", store_dir=tmp_path).solve(
            "SP <= 0.08", GaussianNaiveBayes(), sweep_data,
        )
        assert cold.report.n_fits > 0
        # fresh engine, fresh store object, equivalent spec text
        warm = Engine("hill_climb", store_dir=tmp_path).solve(
            "sp  <=  8e-2", GaussianNaiveBayes(), sweep_data,
        )
        assert warm.report.n_fits == 0
        assert warm.report.fit_paths == {"solution": 1}
        np.testing.assert_array_equal(
            warm.report.lambdas, cold.report.lambdas
        )
        np.testing.assert_array_equal(
            warm.predict(sweep_data.X), cold.predict(sweep_data.X)
        )

    def test_different_epsilon_is_not_an_exact_hit(self, tmp_path,
                                                   sweep_data):
        Engine("hill_climb", store_dir=tmp_path).solve(
            "SP <= 0.08", GaussianNaiveBayes(), sweep_data,
        )
        other = Engine("hill_climb", store_dir=tmp_path).solve(
            "SP <= 0.2", GaussianNaiveBayes(), sweep_data,
        )
        assert other.report.fit_paths.get("solution") is None

    def test_tightened_resolve_warm_starts_with_fewer_fits(self, tmp_path):
        data = load_scenario("imbalance", n=1500, seed=5)

        def solve(epsilon, store_dir):
            return Engine("binary_search", store_dir=store_dir).solve(
                f"SP <= {epsilon}", GaussianNaiveBayes(), data,
            )

        solve(0.08, tmp_path)              # seeds the warm index
        cold = solve(0.05, None)           # reference arm, no store
        warm = solve(0.05, tmp_path)
        assert warm.report.feasible
        assert warm.report.n_fits < cold.report.n_fits
        np.testing.assert_array_equal(
            warm.report.lambdas, cold.report.lambdas
        )

    @pytest.mark.parametrize("strategy, indexed", [
        ("grid", False), ("linear", False), ("binary_search", True),
    ])
    def test_only_warm_reading_strategies_write_the_index(
        self, tmp_path, strategy, indexed,
    ):
        # the index's shape key names the strategy, so an entry written
        # under grid or linear could never be read
        data = load_scenario("imbalance", n=1500, seed=5)
        Engine(strategy, store_dir=tmp_path).solve(
            "SP <= 0.08", GaussianNaiveBayes(), data,
        )
        assert (tmp_path / SolutionCache.EXACT_NS).exists()
        index = list((tmp_path / SolutionCache.WARM_NS).rglob("*.blob"))
        assert len(index) == int(indexed)

    def test_no_store_changes_nothing(self, tmp_path, sweep_data):
        plain = Engine("hill_climb").solve(
            "SP <= 0.08", GaussianNaiveBayes(), sweep_data,
        )
        stored = Engine("hill_climb", store_dir=tmp_path).solve(
            "SP <= 0.08", GaussianNaiveBayes(), sweep_data,
        )
        np.testing.assert_array_equal(
            plain.report.lambdas, stored.report.lambdas
        )
        assert plain.report.n_fits == stored.report.n_fits

    def test_corrupt_solution_blob_degrades_to_a_solve(self, tmp_path,
                                                       sweep_data):
        Engine("hill_climb", store_dir=tmp_path).solve(
            "SP <= 0.08", GaussianNaiveBayes(), sweep_data,
        )
        for blob in (tmp_path / SolutionCache.EXACT_NS).rglob("*.blob"):
            blob.write_bytes(b"rot")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            again = Engine("hill_climb", store_dir=tmp_path).solve(
                "SP <= 0.08", GaussianNaiveBayes(), sweep_data,
            )
        assert again.report.n_fits > 0
        assert again.report.feasible


    def test_solve_writes_no_eval_blobs(self, tmp_path, sweep_data):
        fair = Engine("hill_climb", store_dir=tmp_path).solve(
            "SP <= 0.08", GaussianNaiveBayes(), sweep_data,
        )
        assert not (tmp_path / "eval").exists()
        assert fair.report.eval_cache_lookups == 0
        assert fair.report.eval_cache_hits == 0
        # every store lookup is a fit blob
        assert fair.report.store_lookups > 0
        assert (tmp_path / "fit").exists()


#: the ``solution-v2`` and ``solution_index-v2`` namespaces of a store
#: written by repro 11.1.0 (see :class:`TestReleasedStoreFormat`)
STORE_11_1_0 = (
    pathlib.Path(__file__).parent / "fixtures" / "solution_store_11_1_0"
)


class TestReleasedStoreFormat:
    """A store written by an earlier release still answers this one.

    The fixture holds the solution namespaces (not the fit blobs) of
    one 11.1.0 solve, ``Engine("binary_search", store_dir=...)
    .solve("SP <= 0.08", GaussianNaiveBayes(), load_scenario("imbalance",
    n=1500, seed=5), seed=0)``: λ 0.0625 in 13 fits.  A change to the
    solution key, the warm-index key or the blob format fails here, so
    it has to be made on purpose (a namespace bump and a new fixture).
    """

    @pytest.fixture()
    def engine(self, tmp_path):
        shutil.copytree(STORE_11_1_0, tmp_path / "store")
        return Engine("binary_search", store_dir=tmp_path / "store")

    @pytest.fixture(scope="class")
    def data(self):
        return load_scenario("imbalance", n=1500, seed=5)

    def test_the_same_solve_is_an_exact_hit(self, engine, data):
        fm = engine.solve("SP <= 0.08", GaussianNaiveBayes(), data, seed=0)
        assert fm.report.fit_paths == {"solution": 1}
        assert fm.report.lambdas.tolist() == [0.0625]
        assert fm.metadata["solution_cache_hit"] is True

    def test_a_tightened_solve_warm_starts_from_the_index(self, engine,
                                                          data):
        fm = engine.solve("SP <= 0.05", GaussianNaiveBayes(), data, seed=0)
        assert fm.report.lambdas.tolist() == [0.109375]
        # 13 fits cold; the index's λ = 0.0625 is the first probe
        assert fm.report.n_fits == 9
        assert [h.lam for h in fm.report.history[:3]] == [
            0.0, 0.0625, 0.125,
        ]


# -- estimator fingerprints in the persistent keys ----------------------------


class OffsetNB(GaussianNaiveBayes):
    """NB with extra params that leave its fit unchanged."""

    def __init__(self, var_smoothing=1e-9, offsets=None, depth=3, tag="a",
                 flags=(True, 0.5)):
        super().__init__(var_smoothing=var_smoothing)
        self.offsets = offsets
        self.depth = depth
        self.tag = tag
        self.flags = flags


def _always_one(self, X):
    return np.ones(len(X), dtype=np.int64)


def _clf_in(module_name, monkeypatch, predict=None):
    """An NB subclass named ``Clf`` in a fresh importable module."""
    module = types.ModuleType(module_name)
    body = {"__module__": module_name}
    if predict is not None:
        body["predict"] = predict
    module.Clf = type("Clf", (GaussianNaiveBayes,), body)
    monkeypatch.setitem(sys.modules, module_name, module)
    return module.Clf


@pytest.fixture(scope="module")
def million_rows():
    return load_scenario("million_row", n=4000, seed=0)


def _grid_solve(store_dir, estimator, data):
    return Engine("grid", store_dir=store_dir, grid_steps=3).solve(
        "SP <= 0.9", estimator, data,
    )


class TestEstimatorFingerprintKeys:
    def test_same_named_classes_in_two_modules_do_not_share(
        self, tmp_path, monkeypatch, million_rows,
    ):
        clf_a = _clf_in("modA", monkeypatch)
        clf_b = _clf_in("modB", monkeypatch, predict=_always_one)
        first = _grid_solve(tmp_path, clf_a(), million_rows)
        assert type(first.model) is clf_a
        second = _grid_solve(tmp_path, clf_b(), million_rows)
        assert not second.metadata.get("solution_cache_hit")
        assert type(second.model) is clf_b
        assert second.predict(million_rows.X).min() == 1
        assert second.report.fit_paths.get("store", 0) == 0

    def test_one_array_element_separates_solutions(self, tmp_path,
                                                   million_rows):
        zeros = np.zeros(2000)
        changed = zeros.copy()
        changed[1000] = 1.0
        assert repr(zeros) == repr(changed)   # what a repr key would see
        _grid_solve(tmp_path, OffsetNB(offsets=zeros), million_rows)
        got = _grid_solve(tmp_path, OffsetNB(offsets=changed), million_rows)
        assert not got.metadata.get("solution_cache_hit")
        assert got.model.offsets[1000] == 1.0
        assert got.report.fit_paths.get("store", 0) == 0

    def test_unencodable_estimator_skips_the_persistent_layers(
        self, tmp_path, million_rows,
    ):
        class Duck:   # no get_params: the adapter cannot name it
            def fit(self, X, y, sample_weight=None):
                self.model_ = GaussianNaiveBayes().fit(X, y, sample_weight)
                return self

            def predict(self, X):
                return self.model_.predict(X)

        adapter = ExternalEstimatorAdapter(Duck())
        assert estimator_fingerprint(adapter) is None
        assert estimator_fingerprint(OffsetNB(offsets=len)) is None
        fair = _grid_solve(tmp_path, adapter, million_rows)
        assert fair.report.store_lookups == 0
        assert fair.report.fit_cache_lookups > 0   # memory cache still on
        assert not any(tmp_path.iterdir())

    def test_fingerprint_names_the_module_qualified_class(self):
        assert estimator_fingerprint(GaussianNaiveBayes()) != (
            estimator_fingerprint(OffsetNB())
        )
        assert estimator_fingerprint(OffsetNB(tag="x")) == (
            estimator_fingerprint(OffsetNB(tag="x"))
        )


@pytest.fixture(scope="module")
def key_splits(tmp_path_factory):
    data = load_scenario("imbalance", n=300, seed=1)
    rows = np.arange(len(data))
    store = CacheStore(tmp_path_factory.mktemp("keys"))
    return data.subset(rows[:200]), data.subset(rows[200:]), store


def _persistent_keys(estimator, train, val, store):
    """``(solution key, fit-blob key)`` of a grid solve of ``estimator``."""
    problem = Problem("SP <= 0.9")
    engine = Engine("grid", store=store)
    config = get_strategy("grid").make_config({})
    desc = engine._describe_solution(
        problem, train, val, estimator, "grid", config,
    )
    fitter = WeightedFitter(
        estimator, train.X, train.y, problem.bind(train), store=store,
    )
    key = fitter._cache_key(
        estimator_fingerprint(estimator), np.ones(len(train)), train.y, False,
    )
    return SolutionCache.exact_key(desc), fitter._store_key(key)


_BASE_PARAMS = dict(
    var_smoothing=1e-9, offsets=np.zeros(2000), depth=3, tag="a",
    flags=(True, 0.5),
)
_OTHER_FLOATS = st.floats(allow_nan=False).filter(lambda v: v != 0.0)


@st.composite
def _one_param_changed(draw):
    """The base params with exactly one value changed."""
    params = dict(_BASE_PARAMS, offsets=_BASE_PARAMS["offsets"].copy())
    name = draw(st.sampled_from(sorted(params)))
    if name == "offsets":
        index = draw(st.integers(0, 1999))
        params["offsets"][index] = draw(_OTHER_FLOATS)
    elif name == "var_smoothing":
        params[name] = draw(_OTHER_FLOATS.filter(lambda v: v != 1e-9))
    elif name == "depth":
        params[name] = draw(st.integers().filter(lambda v: v != 3))
    elif name == "tag":
        params[name] = draw(st.text().filter(lambda v: v != "a"))
    else:
        params[name] = draw(st.sampled_from(
            [(False, 0.5), (True, -0.5), (True, 0.5, None), [True, 0.5]]
        ))
    return params


class TestKeySoundnessProperty:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(params=_one_param_changed())
    def test_any_single_param_change_changes_both_keys(self, key_splits,
                                                       params):
        train, val, store = key_splits
        base = _persistent_keys(OffsetNB(**_BASE_PARAMS), train, val, store)
        changed = _persistent_keys(OffsetNB(**params), train, val, store)
        assert None not in base and None not in changed
        assert base[0] != changed[0]      # solution cache
        assert base[1] != changed[1]      # fit blobs


class TestCliStore:
    def test_store_dir_second_invocation_is_zero_fits(self, tmp_path):
        argv = [
            "train", "--dataset", "scenario:group_sweep", "--model", "NB",
            "--rows", "600", "--seed", "3", "--spec", "SP <= 0.08",
            "--store-dir", str(tmp_path / "store"),
        ]
        out1 = io.StringIO()
        assert cli_main(argv, out=out1) == 0
        assert "model fits: 0" not in out1.getvalue()

        out2 = io.StringIO()
        argv[10] = "sp  <=  8e-2"  # canonically equivalent rendering
        assert cli_main(argv, out=out2) == 0
        assert "model fits: 0" in out2.getvalue()
        assert "(solution=1)" in out2.getvalue()

        def lambdas(text):
            line = next(ln for ln in text.splitlines()
                        if ln.startswith("lambda(s):"))
            return line.split("  model fits")[0]

        assert lambdas(out1.getvalue()) == lambdas(out2.getvalue())

    def test_no_store_flag_stays_cold(self, tmp_path):
        argv = [
            "train", "--dataset", "scenario:group_sweep", "--model", "NB",
            "--rows", "600", "--seed", "3", "--spec", "SP <= 0.08",
            "--store-dir", str(tmp_path / "store"), "--no-store",
        ]
        assert cli_main(argv, out=io.StringIO()) == 0
        out = io.StringIO()
        assert cli_main(argv, out=out) == 0
        assert "model fits: 0" not in out.getvalue()
        assert not (tmp_path / "store").exists()


class TestFairModelEnvelopeExtra:
    def test_save_stamps_fingerprint_and_load_returns_it(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 3))
        y = (X[:, 0] > 0).astype(np.int64)
        fair = FairModel(GaussianNaiveBayes().fit(X, y), "SP <= 0.1")
        path = tmp_path / "m.pkl"
        fair.save(path, dataset_fingerprint="abc123")
        obj, extra = FairModel.load(path, with_extra=True)
        assert isinstance(obj, FairModel)
        assert extra["dataset_fingerprint"] == "abc123"
        # default load path is unchanged
        assert isinstance(FairModel.load(path), FairModel)

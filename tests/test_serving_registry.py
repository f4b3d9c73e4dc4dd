"""Serving tier: ModelRegistry + MicroBatcher (no HTTP involved).

Concurrency is the point of these tests: the registry is hammered from
many threads (register/get/evict races) and the batcher from many
asyncio tasks, with the invariant that coalesced ``predict_batch``
output is **bit-identical** to per-call ``predict`` regardless of how
requests land on batch boundaries.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.api import FairModel
from repro.core.exceptions import SpecificationError
from repro.core.strategies import get_strategy
from repro.datasets import load_scenario
from repro.ml import DecisionTree, GaussianNaiveBayes, LogisticRegression
from repro.serving import MicroBatcher, ModelRegistry, canonical_key
from repro.serving.registry import solver_key


def make_fair_model(seed=0, estimator=None, spec="SP <= 0.1"):
    """A fitted FairModel without a solve: fast and deterministic."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(200, 4))
    y = (X[:, 0] + 0.3 * rng.normal(size=200) > 0).astype(np.int64)
    model = (estimator or GaussianNaiveBayes()).fit(X, y)
    return FairModel(model, spec)


@pytest.fixture(scope="module")
def scenario():
    return load_scenario("group_sweep", n=600, seed=3)


class TestCanonicalKey:
    def test_reordered_and_reformatted_specs_share_a_key(self):
        base = canonical_key("SP <= 0.05 and FNR <= 0.06", "fp")
        assert canonical_key("FNR <= 0.06 and SP <= 0.05", "fp") == base
        assert canonical_key("sp  <=  5e-2 and fnr<=0.06", "fp") == base

    def test_composite_alias_expands_to_the_same_key(self):
        assert canonical_key("EO <= 0.05", "fp") == canonical_key(
            "FPR <= 0.05 and FNR <= 0.05", "fp"
        )

    def test_fingerprint_is_part_of_the_key(self):
        assert canonical_key("SP <= 0.05", "a") != canonical_key(
            "SP <= 0.05", "b"
        )


class TestModelRegistry:
    def test_register_get_roundtrip(self):
        registry = ModelRegistry()
        fair = make_fair_model()
        entry = registry.register("m", fair, dataset_fingerprint="fp")
        assert entry.spec_canonical == "SP <= 0.1"
        assert registry.get("m") is fair
        assert "m" in registry and len(registry) == 1
        assert registry.describe()[0]["estimator"] == "GaussianNaiveBayes"

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError, match="no model named"):
            ModelRegistry().get("ghost")

    def test_non_fairmodel_rejected(self):
        with pytest.raises(SpecificationError, match="FairModel"):
            ModelRegistry().register("m", object())

    def test_lookup_hits_canonical_equivalents_only(self):
        registry = ModelRegistry()
        registry.register(
            "m", make_fair_model(spec="SP <= 0.05 and FNR <= 0.06"),
            dataset_fingerprint="fp",
        )
        assert registry.lookup("fnr <= 6e-2 and SP<=0.05", "fp") == "m"
        assert registry.lookup("SP <= 0.05 and FNR <= 0.06", "other") is None
        assert registry.lookup("SP <= 0.04 and FNR <= 0.06", "fp") is None
        stats = registry.stats()
        assert stats["canonical_lookups"] == 3
        assert stats["canonical_hits"] == 1

    def test_reregister_replaces_and_drops_old_key(self):
        registry = ModelRegistry()
        registry.register("m", make_fair_model(spec="SP <= 0.05"),
                          dataset_fingerprint="fp")
        replacement = make_fair_model(spec="FNR <= 0.07")
        registry.register("m", replacement, dataset_fingerprint="fp")
        assert registry.lookup("SP <= 0.05", "fp") is None
        assert registry.lookup("FNR <= 0.07", "fp") == "m"
        assert registry.get("m") is replacement

    def test_evict_without_store_dir_drops_for_good(self):
        registry = ModelRegistry()
        registry.register("m", make_fair_model())
        assert registry.evict("m") is None
        with pytest.raises(KeyError):
            registry.get("m")
        assert len(registry) == 0

    def test_evict_with_store_dir_spools_and_reloads(self, tmp_path):
        registry = ModelRegistry(store_dir=tmp_path)
        fair = make_fair_model()
        registry.register("m", fair, dataset_fingerprint="fp")
        X = np.random.default_rng(1).normal(size=(20, 4))
        before = fair.predict(X)
        path = registry.evict("m")
        assert path is not None and (tmp_path / "m.fairmodel.pkl").exists()
        assert registry.stats()["spools"] == 1
        reloaded = registry.get("m")  # lazy reload
        assert registry.stats()["reloads"] == 1
        assert np.array_equal(reloaded.predict(X), before)
        # the canonical key survives the evict/reload round-trip
        assert registry.lookup("SP <= 0.1", "fp") == "m"

    def test_solver_key_is_part_of_the_dedup_key(self):
        registry = ModelRegistry()
        fair = make_fair_model()
        fair.metadata["solver_key"] = "nb-auto"
        registry.register("m", fair, dataset_fingerprint="fp")
        assert registry.lookup("SP <= 0.1", "fp", "nb-auto") == "m"
        assert registry.lookup("SP <= 0.1", "fp", "lr-auto") is None
        # a model with a solver key never answers a keyless lookup
        assert registry.lookup("SP <= 0.1", "fp") is None

    def test_spooled_model_keeps_its_solver_key(self, tmp_path):
        registry = ModelRegistry(store_dir=tmp_path)
        fair = make_fair_model()
        fair.metadata["solver_key"] = "nb-auto"
        registry.register("m", fair, dataset_fingerprint="fp")
        registry.evict("m")
        assert registry.get("m").metadata["solver_key"] == "nb-auto"
        assert registry.lookup("SP <= 0.1", "fp", "nb-auto") == "m"
        restarted = ModelRegistry(store_dir=tmp_path)
        assert restarted.lookup("SP <= 0.1", "fp", "nb-auto") == "m"
        assert restarted.lookup("SP <= 0.1", "fp") is None

    def test_solver_key_covers_estimator_strategy_and_options(self):
        def key(estimator, strategy, **options):
            config = get_strategy(strategy).make_config(options)
            return solver_key(estimator, strategy, config)

        base = key(GaussianNaiveBayes(), "binary_search")
        assert key(GaussianNaiveBayes(), "binary_search") == base
        assert key(LogisticRegression(), "binary_search") != base
        assert key(GaussianNaiveBayes(), "grid") != base
        assert key(GaussianNaiveBayes(), "binary_search", tau=0.1) != base
        # the validated config, not the request: defaults spelled out
        # name the same solver
        assert key(GaussianNaiveBayes(), "binary_search", tau=1e-3) == base

    def test_save_and_load_explicit_paths(self, tmp_path):
        registry = ModelRegistry()
        registry.register("m", make_fair_model())
        path = registry.save("m", tmp_path / "artifact.pkl")
        other = ModelRegistry()
        entry = other.load("copy", path, dataset_fingerprint="fp")
        assert entry.source == "load"
        assert other.lookup("SP <= 0.1", "fp") == "copy"

    def test_save_without_store_dir_needs_a_path(self):
        registry = ModelRegistry()
        registry.register("m", make_fair_model())
        with pytest.raises(SpecificationError, match="store_dir"):
            registry.save("m")

    def test_max_models_lru_eviction(self, tmp_path):
        registry = ModelRegistry(store_dir=tmp_path, max_models=2)
        for i in range(3):
            registry.register(f"m{i}", make_fair_model(seed=i))
        stats = registry.stats()
        assert stats["resident"] == 2 and stats["models"] == 3
        assert stats["evictions"] == 1
        # the oldest (m0) was spooled, not lost
        assert registry.get("m0") is not None
        assert registry.stats()["reloads"] == 1

    def test_max_models_validated(self):
        with pytest.raises(SpecificationError):
            ModelRegistry(max_models=0)


class TestRegistryRestore:
    """Spool files survive a process restart (ISSUE 7)."""

    def test_restart_restores_spooled_models(self, tmp_path):
        first = ModelRegistry(store_dir=tmp_path)
        fair = make_fair_model()
        first.register("m", fair, dataset_fingerprint="fp")
        first.evict("m")
        X = np.random.default_rng(1).normal(size=(20, 4))
        before = fair.predict(X)

        second = ModelRegistry(store_dir=tmp_path)  # "new process"
        assert second.names() == ["m"]
        assert second.stats()["restored"] == 1
        entry = second.describe()[0]
        assert entry["source"] == "restore"
        assert entry["resident"] is False
        # canonical dedup works again without any re-registration
        assert second.lookup("sp <= 1e-1", "fp") == "m"
        assert np.array_equal(second.get("m").predict(X), before)

    def test_restore_skips_unreadable_spools(self, tmp_path):
        (tmp_path / "bad.fairmodel.pkl").write_bytes(b"rot")
        with pytest.warns(RuntimeWarning, match="unreadable"):
            registry = ModelRegistry(store_dir=tmp_path)
        assert len(registry) == 0

    def test_restore_does_not_clobber_loaded_models(self, tmp_path):
        first = ModelRegistry(store_dir=tmp_path)
        first.register("m", make_fair_model(), dataset_fingerprint="fp")
        first.evict("m")
        second = ModelRegistry(store_dir=tmp_path)
        assert second.stats()["restored"] == 1
        # a fresh register under the same name wins over the spool
        second.register("m", make_fair_model(seed=9))
        assert second.get("m") is not None

    def test_stale_fingerprint_spool_warns_and_misses(self, tmp_path):
        """The regression this PR fixes: a spool file whose recorded
        dataset fingerprint no longer matches the registry's entry must
        not be served — warn, drop the entry, raise KeyError."""
        registry = ModelRegistry(store_dir=tmp_path)
        registry.register("m", make_fair_model(), dataset_fingerprint="old")
        registry.evict("m")
        # the file is replaced out-of-band by a model tuned on other data
        make_fair_model(seed=9).save(
            tmp_path / "m.fairmodel.pkl", dataset_fingerprint="new",
        )
        with pytest.warns(RuntimeWarning, match="fingerprint"):
            with pytest.raises(KeyError, match="stale"):
                registry.get("m")
        assert "m" not in registry
        assert registry.lookup("SP <= 0.1", "old") is None

    def test_unstamped_spool_still_reloads(self, tmp_path):
        """Pre-ISSUE-7 spool files carry no fingerprint: they reload."""
        registry = ModelRegistry(store_dir=tmp_path)
        registry.register("m", make_fair_model(), dataset_fingerprint="fp")
        registry.evict("m")
        make_fair_model().save(tmp_path / "m.fairmodel.pkl")  # no stamp
        assert registry.get("m") is not None


class TestRegistryConcurrency:
    N_THREADS = 8
    OPS_PER_THREAD = 60

    def test_register_get_evict_hammer(self, tmp_path):
        """No lost updates, no crashes, coherent counters under races."""
        registry = ModelRegistry(store_dir=tmp_path)
        names = [f"m{i}" for i in range(4)]
        models = {name: make_fair_model(seed=i)
                  for i, name in enumerate(names)}
        for name, fair in models.items():
            registry.register(name, fair, dataset_fingerprint=name)
        failures = []
        barrier = threading.Barrier(self.N_THREADS)

        def worker(worker_id):
            rng = np.random.default_rng(worker_id)
            barrier.wait()
            try:
                for _ in range(self.OPS_PER_THREAD):
                    name = names[int(rng.integers(len(names)))]
                    op = int(rng.integers(4))
                    if op == 0:
                        registry.register(
                            name, models[name], dataset_fingerprint=name,
                        )
                    elif op == 1:
                        try:
                            registry.get(name)
                        except KeyError:
                            pass  # raced with an unspooled evict
                    elif op == 2:
                        try:
                            registry.evict(name)
                        except KeyError:
                            pass
                    else:
                        registry.lookup("SP <= 0.1", name)
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                failures.append((worker_id, exc))

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        stats = registry.stats()
        assert stats["resident"] <= stats["models"] <= len(names)
        assert stats["canonical_hits"] <= stats["canonical_lookups"]
        # every surviving name still resolves and predicts correctly
        X = np.random.default_rng(9).normal(size=(10, 4))
        for name in registry.names():
            got = registry.get(name).predict(X)
            assert np.array_equal(got, models[name].predict(X))


def run_batched(fair, chunks, **knobs):
    """Submit all chunks concurrently through one MicroBatcher."""

    async def main():
        batcher = MicroBatcher(fair.predict_batch, **knobs)
        await batcher.start()
        try:
            results = await asyncio.gather(
                *(batcher.submit(chunk) for chunk in chunks)
            )
            return results, batcher.stats()
        finally:
            await batcher.close()

    return asyncio.run(main())


class TestMicroBatcher:
    @pytest.mark.parametrize("estimator", [
        GaussianNaiveBayes(),
        DecisionTree(max_depth=3),
        LogisticRegression(max_iter=50),
    ])
    def test_coalesced_output_bit_identical_to_per_call(self, estimator):
        fair = make_fair_model(seed=5, estimator=estimator)
        rng = np.random.default_rng(11)
        chunks = [
            rng.normal(size=(int(rng.integers(1, 7)), 4)) for _ in range(40)
        ]
        results, stats = run_batched(
            fair, chunks, max_batch_size=16,
        )
        for chunk, got in zip(chunks, results):
            assert got.dtype == np.int64
            assert np.array_equal(got, fair.predict(chunk))
        assert stats["requests"] == len(chunks)
        assert stats["batches"] >= 1

    def test_batch_sizes_respect_the_bound(self):
        fair = make_fair_model(seed=6)
        chunks = [np.zeros((2, 4)) for _ in range(30)]
        _, stats = run_batched(
            fair, chunks, max_batch_size=4,
        )
        sizes = [int(size) for size in stats["histogram"]]
        assert max(sizes) <= 4
        assert sum(
            size * count for size, count in
            ((int(s), c) for s, c in stats["histogram"].items())
        ) == 30

    def test_unbatched_mode_is_per_request(self):
        fair = make_fair_model(seed=7)
        chunks = [np.zeros((1, 4)) for _ in range(10)]
        results, stats = run_batched(
            fair, chunks, max_batch_size=1,
        )
        assert stats["batches"] == 10
        assert stats["histogram"] == {"1": 10}
        assert stats["coalesced"] == 0
        for got in results:
            assert np.array_equal(got, fair.predict(chunks[0]))

    def test_predict_failure_propagates_to_every_request(self):
        def boom(chunks):
            raise RuntimeError("model exploded")

        async def main():
            batcher = MicroBatcher(boom, max_batch_size=8)
            await batcher.start()
            try:
                results = await asyncio.gather(
                    *(batcher.submit(np.zeros((1, 4))) for _ in range(5)),
                    return_exceptions=True,
                )
                return results
            finally:
                await batcher.close()

        results = asyncio.run(main())
        assert len(results) == 5
        assert all(isinstance(r, RuntimeError) for r in results)

    @pytest.mark.parametrize("estimator", [
        GaussianNaiveBayes(), DecisionTree(max_depth=3),
    ])
    def test_wrong_width_request_fails_alone(self, estimator):
        # coalesced with well-formed requests, a 3-column block used to
        # fail the whole stack: every client got the ValueError
        fair = make_fair_model(seed=9, estimator=estimator)
        rng = np.random.default_rng(12)
        good = [rng.normal(size=(2, 4)) for _ in range(3)]
        bad = rng.normal(size=(2, 3))

        async def main():
            batcher = MicroBatcher(
                fair.predict_batch, max_batch_size=8,
            )
            await batcher.start()
            try:
                results = await asyncio.gather(
                    *(batcher.submit(rows) for rows in (*good[:2], bad,
                                                        good[2])),
                    return_exceptions=True,
                )
                return results, batcher.stats()
            finally:
                await batcher.close()

        results, stats = asyncio.run(main())
        assert isinstance(results[2], ValueError)
        for rows, got in zip(good, (results[0], results[1], results[3])):
            assert np.array_equal(got, fair.predict(rows))
        assert stats["requests"] == 3
        assert stats["batch_errors"] == 1

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda c: c, max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda c: c, n_workers=0)

    def test_max_wait_us_keyword_is_gone(self):
        # removed in 7.0.0: batches no longer wait on a timer
        with pytest.raises(TypeError):
            MicroBatcher(lambda c: c, max_wait_us=0)
        assert "max_wait_us" not in MicroBatcher(lambda c: c).stats()

    def test_lone_request_does_not_wait_for_stragglers(self):
        # the second request arrives while the first one's pass runs,
        # so it forms its own batch instead of joining a held-open one
        fair = make_fair_model(seed=10)
        rows = np.zeros((2, 4))

        async def main():
            batcher = MicroBatcher(fair.predict_batch)
            await batcher.start()
            try:
                first = asyncio.ensure_future(batcher.submit(rows))
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                second = asyncio.ensure_future(batcher.submit(rows))
                await asyncio.gather(first, second)
                return batcher.stats()
            finally:
                await batcher.close()

        assert asyncio.run(main())["histogram"] == {"1": 2}

    def test_requests_queued_during_a_pass_form_one_next_batch(self):
        started, release = threading.Event(), threading.Event()

        def blocking_predict(chunks):
            started.set()
            release.wait(10)
            return [np.zeros(len(c), dtype=np.int64) for c in chunks]

        async def main():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher(blocking_predict)
            await batcher.start()
            try:
                first = asyncio.ensure_future(batcher.submit(np.zeros((1, 4))))
                await loop.run_in_executor(None, started.wait, 10)
                rest = [
                    asyncio.ensure_future(batcher.submit(np.zeros((1, 4))))
                    for _ in range(5)
                ]
                await asyncio.sleep(0)
                release.set()
                await asyncio.gather(first, *rest)
                return batcher.stats()
            finally:
                await batcher.close()

        assert asyncio.run(main())["histogram"] == {"1": 1, "5": 1}

    def test_task_storm_from_many_producers(self, scenario):
        """Batch-boundary determinism under a real concurrent storm."""
        fair = make_fair_model(seed=8)
        X = scenario.X[:, :4]
        rng = np.random.default_rng(21)
        starts = rng.integers(0, len(X) - 8, size=120)

        async def main():
            batcher = MicroBatcher(
                fair.predict_batch, max_batch_size=32, n_workers=2,
            )
            await batcher.start()
            try:
                async def one(start):
                    # stagger arrivals so batches form at random cuts
                    await asyncio.sleep(
                        float(rng.integers(0, 4)) / 1e4
                    )
                    return await batcher.submit(X[start:start + 8])

                results = await asyncio.gather(*(one(s) for s in starts))
                return results, batcher.stats()
            finally:
                await batcher.close()

        results, stats = asyncio.run(main())
        for start, got in zip(starts, results):
            assert np.array_equal(got, fair.predict(X[start:start + 8]))
        assert stats["requests"] == len(starts)

"""Resilience end to end: chaos against the store and the service.

The resilience layer's claims, exercised for real: injected faults land
on the same degradation paths as organic ones — a flaky disk reads as a
cache miss, a poisoned batch fails only its own waiters, expired
requests answer 504 instead of occupying batch slots, overload sheds
429, failing retunes trip a per-model breaker to 503 and recover
through a half-open probe, and ``stop()`` drains instead of hanging.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import threading
import time
import warnings

import numpy as np
import pytest

from repro.api import Engine, Problem
from repro.core.executor import submit_job
from repro.datasets import load_scenario
from repro.ml import GaussianNaiveBayes
from repro.resilience import (
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    FaultRule,
    RetryPolicy,
    active_plan,
)
from repro.serving import (
    FairnessService,
    JobFailedError,
    MicroBatcher,
    ModelRegistry,
    ServingClient,
    ServingError,
    serve_in_thread,
)
from repro.store import CacheStore
from repro.store.blob import content_key

SMOKE_PLAN = pathlib.Path(__file__).parent / "fault_plans" / "smoke.json"


# -- store degradation ---------------------------------------------------------


class TestStoreDegradation:
    def _store(self, tmp_path, **kwargs):
        return CacheStore(tmp_path / "cache", **kwargs)

    def test_injected_get_failure_reads_as_miss(self, tmp_path):
        store = self._store(tmp_path)
        key = content_key("payload")
        store.put("fit", key, {"x": 1})
        plan = FaultPlan(
            [FaultRule("store.get", "raise", error="OSError")], seed=0,
        )
        with active_plan(plan):
            with pytest.warns(RuntimeWarning, match="cache miss"):
                assert store.get("fit", key, default="fell-back") == (
                    "fell-back"
                )
        assert store.counters["io_errors"] == 1
        assert store.counters["misses"] == 1
        # chaos over: the blob itself was never harmed
        assert store.get("fit", key) == {"x": 1}

    def test_injected_put_failure_drops_the_put(self, tmp_path):
        store = self._store(tmp_path)
        key = content_key("dropped")
        plan = FaultPlan(
            [FaultRule("store.put", "raise", error="OSError")], seed=0,
        )
        with active_plan(plan):
            with pytest.warns(RuntimeWarning, match="drop"):
                assert store.put("fit", key, {"x": 2}) is None
        assert store.counters["io_errors"] == 1
        assert store.get("fit", key) is None  # nothing was published

    def test_truncate_fault_exercises_corrupt_blob_path(self, tmp_path):
        store = self._store(tmp_path)
        key = content_key("to-corrupt")
        store.put("fit", key, {"big": list(range(500))})
        plan = FaultPlan(
            [FaultRule("store.get", "truncate", max_fires=1)], seed=0,
        )
        with active_plan(plan):
            with pytest.warns(RuntimeWarning, match="corrupt"):
                assert store.get("fit", key, default="miss") == "miss"
        assert store.counters["corrupt"] == 1
        # the chopped blob was removed: the next read is a clean miss
        assert store.get("fit", key) is None
        assert store.counters["corrupt"] == 1

    def test_breaker_opens_and_skips_io(self, tmp_path):
        store = self._store(
            tmp_path,
            breaker=CircuitBreaker(threshold=2, cooldown_s=600.0),
        )
        key = content_key("gated")
        plan = FaultPlan(
            [FaultRule("store.get", "raise", error="OSError")], seed=0,
        )
        with active_plan(plan):
            for _ in range(2):
                with pytest.warns(RuntimeWarning):
                    store.get("fit", key)
            # breaker now open: misses come back without touching disk
            # (no warning — the site is never reached)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert store.get("fit", key, default="shed") == "shed"
        assert store.counters["io_errors"] == 2
        assert store.counters["breaker_skips"] >= 1
        assert store.stats()["breaker"]["state"] == "open"

    def test_breaker_false_disables_the_gate(self, tmp_path):
        store = self._store(tmp_path, breaker=False)
        assert store.breaker is None
        assert store.stats()["breaker"] is None


# -- micro-batcher resilience --------------------------------------------------


def _labels(chunks):
    return [np.zeros(len(chunk), dtype=np.int64) for chunk in chunks]


class TestBatcherResilience:
    def test_expired_entries_dropped_before_the_batch_runs(self):
        fitted = []

        def spying_predict(chunks):
            fitted.extend(len(c) for c in chunks)
            return _labels(chunks)

        async def main():
            batcher = MicroBatcher(
                spying_predict, max_batch_size=8,
            )
            await batcher.start()
            try:
                live = batcher.submit(np.zeros((2, 3)))
                dead = batcher.submit(
                    np.zeros((5, 3)), deadline=Deadline.after(0.0),
                )
                results = await asyncio.gather(
                    live, dead, return_exceptions=True,
                )
                return results, batcher.stats()
            finally:
                await batcher.close()

        results, stats = asyncio.run(main())
        assert isinstance(results[1], DeadlineExceeded)
        assert np.array_equal(results[0], np.zeros(2, dtype=np.int64))
        assert stats["expired"] == 1
        assert 5 not in fitted  # the expired rows never cost model time

    def test_good_request_succeeds_after_poisoned_batch(self):
        # ISSUE 8 satellite: the worker loop must survive a poisoned
        # request on the same model and keep answering the next one
        def moody_predict(chunks):
            if any(np.isnan(chunk).any() for chunk in chunks):
                raise RuntimeError("poisoned rows")
            return _labels(chunks)

        async def main():
            batcher = MicroBatcher(
                moody_predict, max_batch_size=8, name="moody",
            )
            await batcher.start()
            try:
                with pytest.raises(RuntimeError, match="poisoned"):
                    await batcher.submit(np.full((2, 3), np.nan))
                good = await batcher.submit(np.zeros((3, 3)))
                return good, batcher.stats()
            finally:
                await batcher.close()

        good, stats = asyncio.run(main())
        assert np.array_equal(good, np.zeros(3, dtype=np.int64))
        assert stats["batch_errors"] == 1
        assert stats["requests"] == 1  # only the good one counts

    def test_injected_batch_fault_fails_only_its_batch(self):
        plan = FaultPlan(
            [FaultRule("batcher.predict", "raise", max_fires=1)], seed=0,
        )

        async def main():
            batcher = MicroBatcher(
                _labels, max_batch_size=4,
            )
            await batcher.start()
            try:
                with pytest.raises(RuntimeError, match="fault-injection"):
                    await batcher.submit(np.zeros((1, 3)))
                return await batcher.submit(np.zeros((2, 3)))
            finally:
                await batcher.close()

        with active_plan(plan):
            good = asyncio.run(main())
        assert np.array_equal(good, np.zeros(2, dtype=np.int64))

    def test_drain_close_answers_queued_requests(self):
        async def main():
            batcher = MicroBatcher(
                _labels, max_batch_size=4,
            )
            await batcher.start()
            futures = [
                asyncio.ensure_future(batcher.submit(np.zeros((1, 3))))
                for _ in range(6)
            ]
            await asyncio.sleep(0)  # enqueue before the drain begins
            report = await batcher.close(drain=True, drain_timeout_s=5.0)
            results = await asyncio.gather(
                *futures, return_exceptions=True,
            )
            return report, results

        report, results = asyncio.run(main())
        assert report["drained"] is True
        assert report["failed_queued"] == 0
        assert all(isinstance(r, np.ndarray) for r in results)


# -- service-level degradation -------------------------------------------------

SCENARIO_N = 900
SCENARIO_SEED = 5


@pytest.fixture(scope="module")
def dataset():
    return load_scenario("group_sweep", n=SCENARIO_N, seed=SCENARIO_SEED)


@pytest.fixture(scope="module")
def fair_model(dataset):
    return Engine("auto").solve(
        Problem("SP <= 0.08"), GaussianNaiveBayes(), dataset,
        seed=SCENARIO_SEED,
    )


def _make_service(dataset, fair_model, **kwargs):
    registry = ModelRegistry()
    registry.register(
        "gs", fair_model, dataset_fingerprint=dataset.fingerprint(),
    )
    kwargs.setdefault("max_batch_size", 16)
    return FairnessService(registry=registry, **kwargs)


@pytest.fixture()
def server(dataset, fair_model):
    with serve_in_thread(_make_service(dataset, fair_model)) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServingClient(server.host, server.port) as c:
        yield c


class TestServiceDegradation:
    def test_predict_deadline_answers_504(self, server, client, dataset):
        plan = FaultPlan(
            [FaultRule("batcher.predict", "delay", ms=150.0)], seed=0,
        )
        with active_plan(plan):
            with pytest.raises(ServingError) as excinfo:
                client.predict("gs", dataset.X[:2], timeout_ms=30)
        assert excinfo.value.status == 504
        assert excinfo.value.payload["deadline_exceeded"] is True
        stats = client.stats()
        assert stats["admission"]["deadline_expired"] >= 1

    def test_generous_deadline_still_answers(self, client, dataset,
                                             fair_model):
        got = client.predict("gs", dataset.X[:5], timeout_ms=30_000)
        assert np.array_equal(got, fair_model.predict(dataset.X[:5]))

    def test_bad_timeout_ms_is_400(self, client, dataset):
        with pytest.raises(ServingError) as excinfo:
            client.predict("gs", dataset.X[:2], timeout_ms=-5)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), True, 1e300],
        ids=["nan", "inf", "true", "past-timer-max"],
    )
    @pytest.mark.parametrize("route", ["/predict", "/retune"])
    def test_unusable_timeout_ms_is_400(self, client, dataset, route, value):
        if route == "/predict":
            body = {"model": "gs", "rows": dataset.X[:2].tolist()}
        else:
            body = {"spec": "SP <= 0.2", "dataset": "scenario:group_sweep",
                    "n": 200, "name": "gs"}

        def state():
            # every request, this one included, counts as admitted
            stats = client.stats()
            counters = {key: count for key, count in stats["admission"].items()
                        if key not in ("admitted", "completed", "errors")}
            return counters, stats["resilience"]["breakers"], stats["jobs"]

        before = state()
        with pytest.raises(ServingError) as excinfo:
            client._request("POST", route, dict(body, timeout_ms=value))
        assert excinfo.value.status == 400
        assert "timeout_ms" in excinfo.value.payload["error"]
        assert state() == before

    def test_predict_overload_sheds_429(self, server, client, dataset):
        service = server.service
        service._inflight = service.max_inflight  # saturate admission
        try:
            with pytest.raises(ServingError) as excinfo:
                client.predict("gs", dataset.X[:2])
        finally:
            service._inflight = 0
        assert excinfo.value.status == 429
        assert excinfo.value.payload["shed"] is True
        assert excinfo.value.payload["retry_after_s"] > 0
        stats = client.stats()
        assert stats["admission"]["shed_predict"] >= 1
        assert stats["resilience"]["max_inflight"] == 256

    def test_retune_sheds_when_job_table_is_full(self, dataset,
                                                 fair_model):
        service = _make_service(dataset, fair_model, max_jobs=0)
        with serve_in_thread(service) as handle:
            with ServingClient(handle.host, handle.port) as client:
                with pytest.raises(ServingError) as excinfo:
                    client.retune(
                        "SP <= 0.2", "scenario:group_sweep", n=200,
                        name="shed-me",
                    )
        assert excinfo.value.status == 429
        assert service._counters["shed_retune"] == 1

    def test_retune_breaker_cycle(self, dataset, fair_model):
        service = _make_service(
            dataset, fair_model,
            breaker_threshold=1, breaker_cooldown_s=0.3,
        )
        with serve_in_thread(service) as handle:
            with ServingClient(handle.host, handle.port) as client:
                # 1. a failing solve (unknown dataset) trips the breaker
                job = client.retune(
                    "SP <= 0.2", "no-such-dataset", name="braky",
                )
                with pytest.raises(JobFailedError) as excinfo:
                    client.wait_job(job["job_id"])
                assert excinfo.value.job_status == "error"
                # 2. while open: immediate 503 with the breaker state
                with pytest.raises(ServingError) as shed:
                    client.retune(
                        "SP <= 0.2", "scenario:group_sweep", n=200,
                        name="braky",
                    )
                assert shed.value.status == 503
                assert shed.value.payload["state"] == "open"
                assert shed.value.payload["retry_after_s"] >= 0
                # 3. after the cooldown: one half-open probe runs a
                # real solve and closes the breaker again
                time.sleep(0.4)
                probe = client.retune(
                    "SP <= 0.2", "scenario:group_sweep", n=200,
                    seed=SCENARIO_SEED, name="braky",
                )
                done = client.wait_job(probe["job_id"])
                assert done["status"] == "done"
                stats = client.stats()
        breaker = stats["resilience"]["breakers"]["braky"]
        assert breaker["state"] == "closed"
        assert breaker["opens"] == 1
        assert breaker["cycles"] == 1
        assert stats["admission"]["breaker_rejected"] == 1
        assert stats["admission"]["retune_failures"] == 1

    def test_infeasible_retunes_leave_the_breaker_closed(
        self, dataset, fair_model,
    ):
        # an infeasible spec ran the solver to completion: the request
        # failed, not the model, so the breaker reads it as a success
        service = _make_service(dataset, fair_model, breaker_threshold=2)
        request = dict(spec="SP <= 0.1", dataset="adult", n=1500, seed=0,
                       name="m")
        with serve_in_thread(service) as handle:
            with ServingClient(handle.host, handle.port) as client:
                for _ in range(2):
                    job = client.retune(
                        **request, strategy="grid",
                        options={"grid_steps": 3},
                    )
                    with pytest.raises(JobFailedError) as excinfo:
                        client.wait_job(job["job_id"])
                    assert excinfo.value.job_status == "error"
                    assert client.job(job["job_id"])["infeasible"] is True
                job = client.retune(**request)
                done = client.wait_job(job["job_id"])
                assert done["result"]["solves"] == 1
                stats = client.stats()
        assert stats["resilience"]["breakers"]["m"]["state"] == "closed"
        assert stats["admission"]["retune_failures"] == 0

    def test_refused_specification_retunes_leave_the_breaker_closed(
        self, dataset, fair_model,
    ):
        # one row cannot hold both groups: the job's SpecificationError
        # refused the request's data, not the model
        service = _make_service(dataset, fair_model, breaker_threshold=2)
        request = dict(spec="SP <= 0.1", dataset="adult", seed=0, name="m")
        with serve_in_thread(service) as handle:
            with ServingClient(handle.host, handle.port) as client:
                for _ in range(2):
                    job = client.retune(**request, n=1)
                    with pytest.raises(JobFailedError) as excinfo:
                        client.wait_job(job["job_id"])
                    assert excinfo.value.job_status == "error"
                    assert "infeasible" not in client.job(job["job_id"])
                job = client.retune(**request, n=1500)
                done = client.wait_job(job["job_id"])
                assert done["result"]["solves"] == 1
                stats = client.stats()
        assert stats["resilience"]["breakers"]["m"]["state"] == "closed"
        assert stats["admission"]["retune_failures"] == 0

    def test_wait_job_surfaces_terminal_error(self, client):
        job = client.retune("SP <= 0.2", "no-such-dataset", name="doomed")
        with pytest.raises(JobFailedError) as excinfo:
            client.wait_job(job["job_id"])
        message = str(excinfo.value)
        assert "finished error" in message
        assert "no-such-dataset" in message
        assert excinfo.value.payload["status"] == "error"

    def test_retune_timeout_publishes_timeout_status(self, client):
        job = client.retune(
            "SP <= 0.05", "scenario:group_sweep", n=800,
            name="too-slow", timeout_ms=1,
        )
        with pytest.raises(JobFailedError) as excinfo:
            client.wait_job(job["job_id"])
        assert excinfo.value.job_status == "timeout"
        assert "budget" in str(excinfo.value)

    def test_job_status_includes_traceback_on_error(self, client):
        job = client.retune("SP <= 0.2", "no-such-dataset", name="tb")
        with pytest.raises(JobFailedError):
            client.wait_job(job["job_id"])
        status = client.job(job["job_id"])
        assert "_run_retune" in status["traceback"]

    def test_stats_exposes_fault_plan_when_active(self, server, client,
                                                  dataset):
        plan = FaultPlan(
            [FaultRule("service.dispatch", "delay", ms=0.0)], seed=4,
        )
        with active_plan(plan):
            client.predict("gs", dataset.X[:2])
            stats = client.stats()
        assert stats["resilience"]["faults"]["seed"] == 4
        assert stats["resilience"]["faults"]["calls"][
            "service.dispatch"
        ] >= 1
        assert client.stats()["resilience"]["faults"] is None


class TestGracefulStop:
    def test_stop_reports_drain_and_cancels_jobs(self, dataset,
                                                 fair_model):
        service = _make_service(dataset, fair_model)
        handle = serve_in_thread(service)
        with ServingClient(handle.host, handle.port) as client:
            client.predict("gs", dataset.X[:3])
        release = threading.Event()
        stuck = submit_job(lambda: release.wait(10), name="stuck")
        service._jobs["stuck"] = (stuck, {"model": "m", "spec": "s"})
        try:
            report = handle.stop()
        finally:
            release.set()
        assert report["forced"] is False
        assert report["drained"] is True
        assert report["cancelled_jobs"] == 1
        assert stuck.status == "cancelled"
        assert report["unjoined_threads"] == []
        assert not handle.thread.is_alive()

    def test_stop_escalates_instead_of_hanging(self, dataset,
                                               fair_model):
        service = _make_service(dataset, fair_model)
        handle = serve_in_thread(service)

        async def wedged_stop(drain_timeout_s=5.0):
            await asyncio.sleep(60)

        service.stop = wedged_stop
        t0 = time.monotonic()
        report = handle.stop(timeout=0.5)
        assert time.monotonic() - t0 < 5.0
        assert report["forced"] is True
        handle.thread.join(5.0)
        assert not handle.thread.is_alive()


# -- client transport retries --------------------------------------------------


class _FakeResponse:
    status = 200

    def read(self):
        return json.dumps({"ok": True}).encode()


class _ScriptedConn:
    """One connection attempt; ``fail`` is None, "send", or "recv"."""

    def __init__(self, fail=None):
        self.fail = fail
        self.requests = []

    def request(self, method, path, body=None, headers=None):
        self.requests.append((method, path))
        if self.fail == "send":
            raise ConnectionError("send failed")

    def getresponse(self):
        if self.fail == "recv":
            raise ConnectionError("connection dropped mid-response")
        return _FakeResponse()

    def close(self):
        pass


def _scripted_client(fails, max_attempts=3):
    client = ServingClient(
        "127.0.0.1", 1,
        retry=RetryPolicy(
            max_attempts=max_attempts, base_s=0.0, cap_s=0.0,
            jitter=False,
        ),
    )
    conns = [_ScriptedConn(fail) for fail in fails]
    queue = iter(conns)
    client._connection = lambda: next(queue)
    return client, conns


class TestClientRetrySafety:
    def test_send_failure_retries_even_non_idempotent(self):
        # the request never reached the server: retrying /retune is safe
        client, conns = _scripted_client(["send", None])
        assert client._request("POST", "/retune", {"x": 1}) == {"ok": True}
        assert [len(c.requests) for c in conns] == [1, 1]

    def test_response_failure_does_not_retry_retune(self):
        # the job may already be running server-side: surfacing the
        # failure beats silently submitting it twice
        client, conns = _scripted_client(["recv", None])
        with pytest.raises(ConnectionError):
            client._request("POST", "/retune", {"x": 1})
        assert [len(c.requests) for c in conns] == [1, 0]

    def test_response_failure_retries_predict(self):
        client, _ = _scripted_client(["recv", None])
        assert client._request("POST", "/predict", {"x": 1}) == {
            "ok": True,
        }

    def test_get_retries_up_to_max_attempts(self):
        client, conns = _scripted_client(["recv", "recv", None])
        assert client._request("GET", "/healthz") == {"ok": True}
        assert [len(c.requests) for c in conns] == [1, 1, 1]
        client, _ = _scripted_client(["recv", "recv", "recv"])
        with pytest.raises(ConnectionError):
            client._request("GET", "/healthz")

    def test_retry_false_disables_retries(self):
        client = ServingClient("127.0.0.1", 1, retry=False)
        assert client.retry is None
        conn = _ScriptedConn("send")
        client._connection = lambda: conn
        with pytest.raises(ConnectionError):
            client._request("GET", "/healthz")
        assert len(conn.requests) == 1


# -- the committed chaos plan stays survivable ---------------------------------


class TestSmokePlan:
    def test_smoke_plan_loads_and_names_only_known_sites(self):
        plan = FaultPlan.from_file(SMOKE_PLAN)
        assert plan.rules, "smoke plan must carry rules"

    def test_predictions_stay_bit_identical_under_smoke_plan(
        self, dataset, fair_model,
    ):
        # the CI chaos-smoke job runs the ordinary serving tests under
        # this exact plan; a correctness-affecting rule belongs in a
        # dedicated test, never in smoke.json
        plan = FaultPlan.from_file(SMOKE_PLAN)
        with active_plan(plan):
            service = _make_service(dataset, fair_model)
            with serve_in_thread(service) as handle:
                with ServingClient(handle.host, handle.port) as client:
                    for start in range(0, 60, 7):
                        rows = dataset.X[start:start + 7]
                        got = client.predict("gs", rows)
                        assert np.array_equal(
                            got, fair_model.predict(rows),
                        )
            assert plan.stats()["calls"]  # chaos actually ran

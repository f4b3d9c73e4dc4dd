"""Serving tier: the HTTP service end to end (client → service → model).

A real server thread on a real socket: predictions through the
micro-batcher must be bit-identical to direct ``FairModel.predict``
under a multi-threaded client hammer, retune jobs must dedup through
the registry on canonically-equivalent specs, and every error path must
come back as a clean status code instead of a dead connection.
"""

import threading

import numpy as np
import pytest

from repro.api import Engine, FairModel, Problem
from repro.core.exceptions import SpecificationError
from repro.datasets import load_scenario
from repro.ml import DecisionTree, GaussianNaiveBayes
from repro.serving import (
    FairnessService,
    JobFailedError,
    ModelRegistry,
    ServingClient,
    ServingError,
    serve_in_thread,
)

SCENARIO_N = 1200
SCENARIO_SEED = 5


@pytest.fixture(scope="module")
def dataset():
    return load_scenario("group_sweep", n=SCENARIO_N, seed=SCENARIO_SEED)


@pytest.fixture(scope="module")
def fair_model(dataset):
    engine = Engine("auto")
    return engine.solve(
        Problem("SP <= 0.08"), GaussianNaiveBayes(), dataset,
        seed=SCENARIO_SEED,
    )


@pytest.fixture()
def server(dataset, fair_model):
    registry = ModelRegistry()
    registry.register(
        "gs", fair_model, dataset_fingerprint=dataset.fingerprint(),
    )
    service = FairnessService(registry=registry, max_batch_size=16)
    with serve_in_thread(service) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServingClient(server.host, server.port) as c:
        yield c


class TestBasics:
    def test_healthz_and_models(self, client):
        health = client.healthz()
        assert health["ok"] is True and health["models"] == 1
        (row,) = client.models()
        assert row["name"] == "gs"
        assert row["estimator"] == "GaussianNaiveBayes"
        assert row["spec"] == "SP <= 0.08"

    def test_predict_matches_direct_model(self, client, dataset, fair_model):
        rows = dataset.X[:17]
        got = client.predict("gs", rows)
        assert np.array_equal(got, fair_model.predict(rows))

    def test_audit_on_named_dataset(self, client, fair_model):
        out = client.audit(
            "gs", dataset="scenario:group_sweep", n=400, seed=2,
        )
        direct = fair_model.audit(
            load_scenario("group_sweep", n=400, seed=2)
        )
        assert out["audit"]["accuracy"] == pytest.approx(direct["accuracy"])
        assert out["n_rows"] == 400

    def test_audit_on_inline_data(self, client, dataset, fair_model):
        sub = dataset.subset(np.arange(60))
        out = client.audit("gs", data={
            "X": sub.X.tolist(),
            "y": sub.y.tolist(),
            "sensitive": sub.sensitive.tolist(),
        })
        assert out["audit"]["accuracy"] == pytest.approx(
            fair_model.audit(sub)["accuracy"]
        )

    def test_stats_shape(self, client, dataset):
        client.predict("gs", dataset.X[:3])
        stats = client.stats()
        assert stats["batching"]["enabled"] is True
        assert "max_wait_us" not in stats["batching"]
        assert "gs" in stats["batching"]["per_model"]
        assert stats["registry"]["models"] == 1
        assert stats["admission"]["admitted"] >= 1
        assert "queue_depth" in stats
        assert stats["store"] is None  # no --store-dir on this server

    def test_max_wait_us_keyword_is_gone(self):
        # removed in 7.0.0: batches form from whatever queued during the
        # previous pass, so there is no straggler window to configure
        with pytest.raises(TypeError):
            FairnessService(max_wait_us=0)

    def test_stats_reports_store_counters(self, tmp_path):
        service = FairnessService(store_dir=tmp_path)
        stats = service._stats()
        assert stats["store"]["hits"] == 0
        assert stats["store"]["max_bytes"] is None

    def test_keep_alive_connection_reuse(self, client, dataset):
        for _ in range(4):
            client.healthz()
        client.predict("gs", dataset.X[:2])


class TestErrorPaths:
    def test_unknown_model_is_404(self, client, dataset):
        with pytest.raises(ServingError) as excinfo:
            client.predict("ghost", dataset.X[:2])
        assert excinfo.value.status == 404

    def test_empty_rows_is_400(self, client):
        with pytest.raises(ServingError) as excinfo:
            client._request("POST", "/predict", {"model": "gs", "rows": []})
        assert excinfo.value.status == 400

    def test_ragged_rows_is_400(self, client):
        with pytest.raises(ServingError) as excinfo:
            client._request(
                "POST", "/predict",
                {"model": "gs", "rows": [[1.0, 2.0], [1.0]]},
            )
        assert excinfo.value.status == 400

    def test_wrong_width_on_tree_model_is_400(self, dataset):
        # a tree reads only the columns its splits use; before trees
        # checked their width, extra columns answered 200 with labels
        tree = DecisionTree(max_depth=4).fit(dataset.X, dataset.y)
        registry = ModelRegistry()
        registry.register("tree", FairModel(tree, "SP <= 0.08"))
        service = FairnessService(registry=registry)
        d = dataset.X.shape[1]
        with serve_in_thread(service) as handle:
            with ServingClient(handle.host, handle.port) as c:
                for width in (d + 1, d - 1):
                    rows = np.zeros((2, width))
                    with pytest.raises(ServingError) as excinfo:
                        c.predict("tree", rows)
                    assert excinfo.value.status == 400
                    assert f"X has {width} features" in str(excinfo.value)
                assert np.array_equal(
                    c.predict("tree", dataset.X[:5]),
                    tree.predict(dataset.X[:5]),
                )

    def test_empty_inline_audit_is_400(self, client):
        # the Engine/audit empty-dataset guard surfaces as a clean 400
        with pytest.raises(ServingError) as excinfo:
            client.audit("gs", data={"X": [], "y": [], "sensitive": []})
        assert excinfo.value.status == 400
        assert "zero rows" in str(excinfo.value)

    def test_bad_json_is_400(self, client):
        conn = client._connection()
        conn.request(
            "POST", "/predict", body=b"{not json",
            headers={"Content-Type": "application/json",
                     "Content-Length": "9"},
        )
        response = conn.getresponse()
        response.read()
        assert response.status == 400

    def test_unknown_route_is_404_and_bad_method_is_405(self, client):
        with pytest.raises(ServingError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServingError) as excinfo:
            client._request("GET", "/predict")
        assert excinfo.value.status == 405

    def test_bad_retune_spec_is_400(self, client):
        with pytest.raises(ServingError) as excinfo:
            client.retune("SP <= banana", "scenario:group_sweep")
        assert excinfo.value.status == 400

    def test_unknown_retune_estimator_is_400(self, client):
        with pytest.raises(ServingError) as excinfo:
            client.retune("SP <= 0.1", "scenario:group_sweep",
                          estimator="NOPE")
        assert excinfo.value.status == 400

    def test_retune_engine_parameter_option_is_400(self, client, tmp_path):
        # options reach Engine(**options); a constructor parameter such
        # as store_dir must be refused before any engine (or store) is
        # built, so nothing is created, read or evicted under the path
        target = tmp_path / "planted"
        target.mkdir()
        with pytest.raises(ServingError) as excinfo:
            client.retune(
                "SP <= 0.1", "scenario:group_sweep",
                options={"store_dir": str(target), "store_max_bytes": 1},
            )
        assert excinfo.value.status == 400
        assert "store_dir" in str(excinfo.value)
        assert list(target.iterdir()) == []

    def test_retune_strategy_option_is_accepted(self, client):
        job = client.retune(
            "SP <= 0.1", "scenario:group_sweep", name="tau", n=600, seed=3,
            options={"tau": 1e-4},
        )
        assert client.wait_job(job["job_id"])["status"] == "done"

    @pytest.mark.parametrize("options", [
        {"tau": 0}, {"tau": -1.0}, {"delta": 0},
    ])
    def test_retune_bad_search_width_is_400(self, client, options):
        # a zero width would start a job whose bisection never ends
        with pytest.raises(ServingError) as excinfo:
            client.retune(
                "SP <= 0.1", "scenario:group_sweep",
                strategy="binary_search", options=options,
            )
        assert excinfo.value.status == 400
        assert next(iter(options)) in str(excinfo.value)

    def test_retune_warm_seed_option_is_400(self, client):
        # a warm seed is no strategy option: refused before any job
        with pytest.raises(ServingError) as excinfo:
            client.retune(
                "SP <= 0.1", "scenario:group_sweep",
                options={"warm_lambdas": [0.1]},
            )
        assert excinfo.value.status == 400
        assert "warm_lambdas" in str(excinfo.value)

    @pytest.mark.parametrize("strategy,options", [
        ("grid", b'{"grid_max": 1e999}'),
        ("grid", b'{"grid_max": NaN}'),
        ("race", b'{"interleave": 0}'),
        ("race", b'{"strategies": "grid"}'),
    ])
    def test_retune_bad_strategy_knob_is_400(self, client, strategy,
                                             options):
        # json.loads accepts NaN and reads 1e999 as inf; the Engine
        # refuses the knob by name before any job (or breaker) sees it
        body = (
            b'{"spec": "SP <= 0.1", "dataset": "scenario:group_sweep", '
            b'"strategy": "' + strategy.encode() + b'", "options": '
            + options + b'}'
        )
        conn = client._connection()
        conn.request(
            "POST", "/retune", body=body,
            headers={"Content-Type": "application/json",
                     "Content-Length": str(len(body))},
        )
        response = conn.getresponse()
        payload = response.read().decode()
        assert response.status == 400
        assert options.decode().split('"')[1] in payload

    def test_auto_retune_bad_search_width_ends_in_error(self, client):
        # "auto" builds its config at solve time, inside the job
        job = client.retune(
            "SP <= 0.1", "scenario:group_sweep", name="tau0", n=600,
            seed=3, options={"tau": 0},
        )
        with pytest.raises(JobFailedError) as excinfo:
            client.wait_job(job["job_id"])
        assert excinfo.value.job_status == "error"
        assert "tau" in str(excinfo.value)

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServingError) as excinfo:
            client.job("999999")
        assert excinfo.value.status == 404


#: (request fields, the field the 400 names): ``n`` is absent, null or
#: a JSON integer >= 1, ``seed`` absent or a JSON integer >= 0
BAD_DATASET_ARGS = [
    ({"n": 0}, "n"), ({"n": -5}, "n"), ({"n": True}, "n"),
    ({"n": 1.7}, "n"), ({"n": "12"}, "n"),
    ({"seed": -3}, "seed"), ({"seed": True}, "seed"),
    ({"seed": 1.5}, "seed"), ({"seed": "1"}, "seed"),
    ({"seed": None}, "seed"),
]


class TestDatasetArguments:
    """``/audit``, ``/retune`` and ``/update``'s ``base`` refuse a bad
    ``n`` or ``seed`` on the request, before any job, auditor or
    breaker state exists."""

    @staticmethod
    def _body(route, fields):
        named = {"dataset": "scenario:group_sweep", **fields}
        if route == "/audit":
            return {"model": "gs", **named}
        if route == "/retune":
            return {"spec": "SP <= 0.1", "name": "m", **named}
        return {"model": "gs", "base": named}

    @pytest.mark.parametrize("route", ["/audit", "/retune", "/update"])
    @pytest.mark.parametrize(
        "fields,field", BAD_DATASET_ARGS,
        ids=[f"{k}={v!r}" for (d, _f) in BAD_DATASET_ARGS
             for k, v in d.items()],
    )
    def test_bad_value_is_400_naming_the_field(self, server, client,
                                               route, fields, field):
        with pytest.raises(ServingError) as excinfo:
            client._request("POST", route, self._body(route, fields))
        assert excinfo.value.status == 400
        assert f"{field} must be a JSON integer" in str(excinfo.value)
        service = server.service
        assert service._jobs == {}
        assert service._auditors == {}
        assert client.stats()["resilience"]["breakers"] == {}

    def test_null_n_and_a_zero_seed_pass(self, client):
        # null n loads the dataset's default size
        out = client._request("POST", "/audit", self._body(
            "/audit", {"n": None, "seed": 0},
        ))
        assert out["n_rows"] == 20000


class TestNamedDatasetsOffTheLoop:
    @pytest.mark.parametrize("route", ["/audit", "/update"])
    def test_healthz_answers_while_a_named_dataset_loads(
        self, server, monkeypatch, route,
    ):
        # the loader blocks until released: were it called on the event
        # loop, /healthz could not answer before its 5 s timeout
        import repro.serving.service as service_mod

        started, release = threading.Event(), threading.Event()
        real_load = service_mod.load

        def blocked_load(*args, **kwargs):
            started.set()
            release.wait(30)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(service_mod, "load", blocked_load)
        body = TestDatasetArguments._body(route, {"n": 400, "seed": 2})
        out = {}

        def send():
            with ServingClient(server.host, server.port) as c:
                out["reply"] = c._request("POST", route, body)

        sender = threading.Thread(target=send)
        sender.start()
        try:
            assert started.wait(10)
            with ServingClient(server.host, server.port, timeout=5.0) as c:
                assert c.healthz()["ok"] is True
        finally:
            release.set()
            sender.join(30)
        assert not sender.is_alive()
        assert "error" not in out["reply"]
        if route == "/audit":
            assert out["reply"]["n_rows"] == 400

    def test_concurrent_seeds_keep_one_auditor(self, server, monkeypatch):
        # both seeds pass the "no auditor yet" check before either has
        # loaded its base: the one that builds second is refused like
        # any later seed, instead of replacing the first's auditor
        import repro.serving.service as service_mod

        arrived, release = threading.Semaphore(0), threading.Event()
        real_load = service_mod.load

        def blocked_load(*args, **kwargs):
            arrived.release()
            release.wait(30)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(service_mod, "load", blocked_load)
        body = TestDatasetArguments._body("/update", {"n": 400, "seed": 2})
        statuses = []

        def send():
            with ServingClient(server.host, server.port) as c:
                try:
                    c._request("POST", "/update", body)
                    statuses.append(200)
                except ServingError as exc:
                    statuses.append(exc.status)

        senders = [threading.Thread(target=send) for _ in range(2)]
        for sender in senders:
            sender.start()
        try:
            assert arrived.acquire(timeout=10)
            assert arrived.acquire(timeout=10)
        finally:
            release.set()
            for sender in senders:
                sender.join(30)
        assert not any(sender.is_alive() for sender in senders)
        assert sorted(statuses) == [200, 400]
        assert list(server.service._auditors) == ["gs"]


class TestRetune:
    def test_retune_job_then_canonical_dedup(self, client):
        job = client.retune(
            "FNR <= 0.15 and SP <= 0.10", "scenario:group_sweep",
            name="tuned", n=900, seed=4, estimator="NB",
        )
        status = client.wait_job(job["job_id"])
        assert status["status"] == "done"
        result = status["result"]
        assert result["registry_hit"] is False and result["solves"] == 1
        assert "tuned" in {row["name"] for row in client.models()}

        # canonically equivalent: clauses reordered, epsilons reformatted
        job2 = client.retune(
            "sp <= 1e-1 and FNR<=0.15", "scenario:group_sweep",
            n=900, seed=4, estimator="NB",
        )
        status2 = client.wait_job(job2["job_id"])
        assert status2["status"] == "done"
        result2 = status2["result"]
        assert result2["registry_hit"] is True
        assert result2["model"] == "tuned" and result2["solves"] == 0

        stats = client.stats()
        assert stats["admission"]["solves"] == 1
        assert stats["admission"]["retune_registry_hits"] == 1
        assert stats["registry"]["canonical_hits"] >= 1

        # the deduped model serves predictions immediately
        probe = load_scenario("group_sweep", n=900, seed=4)
        preds = client.predict("tuned", probe.X[:9])
        assert preds.shape == (9,)

    @pytest.mark.parametrize("change", [
        {"estimator": "LR"},
        {"strategy": "grid", "options": {"grid_steps": 9, "grid_max": 0.5}},
        {"options": {"tau": 1e-2}},
    ], ids=["estimator", "strategy", "options"])
    def test_retune_by_another_solver_does_not_dedup(self, client, change):
        request = dict(spec="SP <= 0.1", dataset="adult", n=1500, seed=0,
                       estimator="NB")
        job = client.retune(**request, name="nb")
        first = client.wait_job(job["job_id"])["result"]
        assert first["registry_hit"] is False
        # same spec and data, another estimator / strategy / options
        job2 = client.retune(**dict(request, **change), name="other")
        result = client.wait_job(job2["job_id"])["result"]
        assert result["registry_hit"] is False and result["solves"] == 1
        assert result["model"] == "other"
        assert client.stats()["admission"]["solves"] == 2

    @pytest.mark.parametrize("first, second", [
        ({"strategy": "auto"}, {"strategy": "binary_search"}),
        ({}, {"options": {"tau": 1e-3}}),
    ], ids=["auto-then-resolved", "default-options-spelled-out"])
    def test_retune_by_the_same_solver_dedups(self, client, first, second):
        # the key is the solver as it runs: "auto" resolves to
        # binary_search for one constraint, and tau=1e-3 is its default
        request = dict(spec="SP <= 0.1", dataset="adult", n=1500, seed=0,
                       estimator="NB")
        job = client.retune(**request, **first, name="nb")
        assert client.wait_job(job["job_id"])["result"]["solves"] == 1
        job2 = client.retune(**request, **second, name="same")
        result = client.wait_job(job2["job_id"])["result"]
        assert result["registry_hit"] is True and result["solves"] == 0
        assert result["model"] == "nb"
        assert client.stats()["admission"]["solves"] == 1

    def test_retune_on_different_data_does_not_dedup(self, client):
        job = client.retune(
            "SP <= 0.07", "scenario:group_sweep", name="a", n=700, seed=1,
        )
        assert client.wait_job(job["job_id"])["result"]["registry_hit"] is False
        job2 = client.retune(
            "SP <= 0.07", "scenario:group_sweep", n=700, seed=2,
        )
        result = client.wait_job(job2["job_id"])["result"]
        assert result["registry_hit"] is False  # different fingerprint


class TestUpdate:
    """POST /update: the incremental engine's front door."""

    BASE = {"dataset": "scenario:group_sweep", "n": 400, "seed": 7}

    def _direct_auditor(self, fair_model):
        from repro.incremental import IncrementalAuditor
        base = load_scenario("group_sweep", n=400, seed=7)
        return IncrementalAuditor(fair_model.specs, fair_model, base)

    def test_seed_append_retire_matches_direct_auditor(
        self, client, fair_model,
    ):
        direct = self._direct_auditor(fair_model)
        seeded = client.update("gs", base=self.BASE, tolerance=10.0)
        assert seeded["ops"] == [] and seeded["rows"] == 0
        assert seeded["audit"]["n_live"] == 400
        assert seeded["audit"]["fingerprint"] == direct.fingerprint
        assert seeded["retune"] == {"triggered": False}

        batch = load_scenario("group_sweep", n=60, seed=11)
        out = client.update("gs", append={
            "X": batch.X, "y": batch.y, "sensitive": batch.sensitive,
        }, retire=[0, 5, 9])
        direct.append_rows(batch)
        snapshot = direct.retire_rows(np.array([0, 5, 9]))
        assert out["ops"] == ["append", "retire"] and out["rows"] == 63
        # JSON round-trips float64 exactly (shortest-repr), so the
        # served audit must equal the in-process auditor to the bit
        assert out["audit"]["disparities"] == [
            float(d) for d in snapshot["disparities"]
        ]
        assert out["audit"]["accuracy"] == float(snapshot["accuracy"])
        assert out["audit"]["max_violation"] == float(
            snapshot["max_violation"]
        )
        assert out["audit"]["n_live"] == 457
        assert out["audit"]["fingerprint"] == direct.fingerprint

        stats = client.stats()
        assert stats["admission"]["updates"] == 2
        assert stats["admission"]["update_rows"] == 63
        inc = stats["incremental"]["gs"]
        assert inc["n_live"] == 457 and inc["n_updates"] == 2
        assert inc["fingerprint"] == direct.fingerprint
        assert inc["tolerance"] == 10.0

    def test_first_update_without_base_is_400(self, client):
        with pytest.raises(ServingError, match="must carry 'base'") as e:
            client.update("gs", retire=[0])
        assert e.value.status == 400

    def test_reseed_with_base_is_400(self, client):
        client.update("gs", base=self.BASE, tolerance=10.0)
        with pytest.raises(ServingError, match="already seeded") as e:
            client.update("gs", base=self.BASE)
        assert e.value.status == 400

    def test_update_unknown_model_is_404(self, client):
        with pytest.raises(ServingError) as e:
            client.update("ghost", base=self.BASE)
        assert e.value.status == 404

    def test_bad_tolerance_is_400(self, client):
        # the typed client coerces tolerance; hit the route raw to pin
        # the server-side validation
        with pytest.raises(ServingError, match="tolerance") as e:
            client._request("POST", "/update", {
                "model": "gs", "base": self.BASE, "tolerance": "tight",
            })
        assert e.value.status == 400

    def test_unknown_append_group_is_400(self, client):
        client.update("gs", base=self.BASE, tolerance=10.0)
        with pytest.raises(ServingError, match="exceed group_names") as e:
            client.update("gs", append={
                "X": [[0.0] * 8], "y": [0], "sensitive": [9],
            })
        assert e.value.status == 400

    def _stats_row(self, client):
        row = client.stats()["incremental"]["gs"]
        return {key: row[key] for key in ("n_live", "n_updates",
                                          "fingerprint", "tolerance")}

    def _raw_update(self, client, **body):
        with pytest.raises(ServingError) as e:
            client._request("POST", "/update", {"model": "gs", **body})
        assert e.value.status == 400
        return str(e.value)

    def test_non_binary_append_label_is_400(self, client):
        client.update("gs", base=self.BASE, tolerance=10.0)
        before = self._stats_row(client)
        batch = load_scenario("group_sweep", n=10, seed=11)
        message = self._raw_update(client, append={
            "X": batch.X.tolist(), "y": [2] * 10,
            "sensitive": batch.sensitive.tolist(),
        })
        assert "[2]" in message
        assert self._stats_row(client) == before

    def test_audit_with_non_binary_inline_label_is_400(self, client, dataset):
        sub = dataset.subset(np.arange(30))
        with pytest.raises(ServingError, match=r"\[2\]") as e:
            client.audit("gs", data={
                "X": sub.X.tolist(),
                "y": [2] + sub.y[1:].tolist(),
                "sensitive": sub.sensitive.tolist(),
            })
        assert e.value.status == 400

    def test_fractional_retire_id_is_400(self, client):
        client.update("gs", base=self.BASE, tolerance=10.0)
        before = self._stats_row(client)
        assert "retire" in self._raw_update(client, retire=[1.5])
        assert self._stats_row(client) == before

    def test_bool_retire_id_is_400(self, client):
        client.update("gs", base=self.BASE, tolerance=10.0)
        before = self._stats_row(client)
        assert "retire" in self._raw_update(client, retire=[True])
        assert self._stats_row(client) == before

    def test_string_retire_id_is_400(self, client):
        client.update("gs", base=self.BASE, tolerance=10.0)
        before = self._stats_row(client)
        assert "retire" in self._raw_update(client, retire=["3"])
        assert self._stats_row(client) == before

    def test_huge_retire_id_is_400(self, client):
        client.update("gs", base=self.BASE, tolerance=10.0)
        before = self._stats_row(client)
        assert "out of range" in self._raw_update(client, retire=[2 ** 70])
        assert self._stats_row(client) == before

    def test_refused_retire_applies_no_append(self, client):
        client.update("gs", base=self.BASE, tolerance=10.0)
        client.update("gs", retire=[1])
        before = self._stats_row(client)
        batch = load_scenario("group_sweep", n=5, seed=11)
        message = self._raw_update(client, append={
            "X": batch.X.tolist(), "y": batch.y.tolist(),
            "sensitive": batch.sensitive.tolist(),
        }, retire=[1])
        assert "already retired" in message
        assert self._stats_row(client) == before
        # the corrected request applies once
        out = client.update("gs", append={
            "X": batch.X, "y": batch.y, "sensitive": batch.sensitive,
        }, retire=[2])
        assert out["audit"]["n_live"] == before["n_live"] + 5 - 1
        assert out["audit"]["n_total"] == 405

    def test_retire_may_name_rows_appended_in_the_same_update(self, client):
        client.update("gs", base=self.BASE, tolerance=10.0)
        batch = load_scenario("group_sweep", n=5, seed=11)
        out = client.update("gs", append={
            "X": batch.X, "y": batch.y, "sensitive": batch.sensitive,
        }, retire=[404])
        assert out["ops"] == ["append", "retire"]
        assert out["audit"]["n_live"] == 404
        self._raw_update(client, retire=[405])  # out of range now

    def test_nan_tolerance_is_400(self, client):
        client.update("gs", base=self.BASE, tolerance=10.0)
        before = self._stats_row(client)
        assert "tolerance" in self._raw_update(client, tolerance=float("nan"))
        assert "tolerance" in self._raw_update(client, tolerance=1e999)
        assert self._stats_row(client) == before

    def test_bool_tolerance_is_400(self, client):
        client.update("gs", base=self.BASE, tolerance=10.0)
        before = self._stats_row(client)
        assert "tolerance" in self._raw_update(client, tolerance=True)
        assert self._stats_row(client) == before

    def test_drift_breach_triggers_warm_retune_job(self, client):
        # tolerance below any possible max-violation forces the breach
        out = client.update("gs", base=self.BASE, tolerance=-10.0)
        retune = out["retune"]
        assert retune["triggered"] is True
        assert retune["tolerance"] == -10.0
        status = client.wait_job(retune["job_id"])
        result = status["result"]
        assert result["warm"] is True and result["model"] == "gs"
        assert result["dataset_fingerprint"] == out["audit"]["fingerprint"]
        (row,) = client.models()
        assert row["name"] == "gs"
        stats = client.stats()
        assert stats["admission"]["drift_retunes"] == 1
        # the refit model serves predictions immediately
        probe = load_scenario("group_sweep", n=20, seed=3)
        assert client.predict("gs", probe.X).shape == (20,)

    def test_fdr_drift_retune_climbs_cold(self, client):
        # a multi-group FDR model solved at a nonzero Λ: its warm seed
        # would need a model to chain from, so the retune climbs cold
        base = {"dataset": "scenario:group_sweep", "n": 1500, "seed": 0}
        job = client.retune("FDR <= 0.08", name="m", estimator="NB", **base)
        client.wait_job(job["job_id"])
        out = client.update("m", base=base, tolerance=-1.0)
        assert out["retune"]["triggered"] is True
        status = client.wait_job(out["retune"]["job_id"])
        assert status["status"] == "done"
        assert status["result"]["warm"] is True
        assert status["result"]["feasible"] is True
        assert client.stats()["admission"]["retune_failures"] == 0

    def test_retune_false_reports_disabled(self, client):
        out = client.update(
            "gs", base=self.BASE, tolerance=-10.0, retune=False,
        )
        assert out["retune"]["triggered"] is False
        assert out["retune"]["reason"] == "disabled"
        assert client.stats()["admission"]["drift_retunes"] == 0


class TestConcurrentClients:
    N_CLIENTS = 6
    REQUESTS = 12

    def test_hammer_bit_identical_predictions(
        self, server, dataset, fair_model,
    ):
        expected = fair_model.predict(dataset.X)
        failures = []
        barrier = threading.Barrier(self.N_CLIENTS)

        def worker(worker_id):
            rng = np.random.default_rng(worker_id)
            try:
                with ServingClient(server.host, server.port) as c:
                    barrier.wait()
                    for _ in range(self.REQUESTS):
                        start = int(rng.integers(0, len(dataset.X) - 6))
                        got = c.predict("gs", dataset.X[start:start + 6])
                        if not np.array_equal(
                            got, expected[start:start + 6]
                        ):
                            failures.append((worker_id, start))
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                failures.append((worker_id, exc))

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.N_CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []

        with ServingClient(server.host, server.port) as c:
            stats = c.stats()
        batcher = stats["batching"]["per_model"]["gs"]
        assert batcher["requests"] == self.N_CLIENTS * self.REQUESTS
        sizes = {int(s) for s in batcher["histogram"]}
        assert max(sizes) <= 16


class TestConstructorKnobs:
    @pytest.mark.parametrize("knob", ["max_batch_size", "n_workers"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_batcher_knob_below_one_refused_at_construction(
        self, knob, value,
    ):
        # before 11.1.0 the service started and refused every /predict
        with pytest.raises(SpecificationError, match=f"{knob} must be >= 1"):
            FairnessService(**{knob: value})


class TestBatchingDisabled:
    def test_unbatched_service_still_bit_identical(self, dataset, fair_model):
        registry = ModelRegistry()
        registry.register("gs", fair_model)
        service = FairnessService(registry=registry, max_batch_size=1)
        with serve_in_thread(service) as handle:
            with ServingClient(handle.host, handle.port) as c:
                rows = dataset.X[:11]
                assert np.array_equal(
                    c.predict("gs", rows), fair_model.predict(rows)
                )
                stats = c.stats()
                assert stats["batching"]["enabled"] is False
                assert stats["batching"]["max_batch_size"] == 1
                histogram = (
                    stats["batching"]["per_model"]["gs"]["histogram"]
                )
                assert histogram == {"1": 1}

"""Resilience harness: chaos serving, breaker cycle, drain.

The resilience layer provides deterministic fault injection
(:mod:`repro.resilience.faults`), deadlines/retries/circuit breakers
(:mod:`repro.resilience.policy`), admission control with load shedding,
and crash-safe degradation in the blob store.  This harness drives each
claim end to end and gates the invariants the layer rests on:

* **chaos serving** — the real ``repro serve`` subprocess runs under the
  committed ``tests/fault_plans/smoke.json`` (injected store I/O
  failures and latency at every site) while the closed-loop load
  generator compares every answer against a locally solved twin.
  Gate: **zero** wrong predictions (bitwise), zero request errors —
  chaos may add latency, never wrongness.
* **breaker cycle** — consecutive failing retunes trip the per-model
  circuit breaker (503 while open), and after the cooldown a half-open
  probe retune closes it again.  Gate: at least one full
  open → half-open → closed cycle observed in ``/stats``.
* **drain** — ``stop()`` answers accepted work and reports a clean
  drain (``drained=True``, nothing forced, no unjoined threads).

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf/bench_resilience.py
    PYTHONPATH=src python benchmarks/perf/bench_resilience.py \
        --quick --max-p99-ms 1000
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.api import Engine, Problem  # noqa: E402
from repro.datasets import load_scenario  # noqa: E402
from repro.ml import GaussianNaiveBayes  # noqa: E402
from repro.serving import (  # noqa: E402
    FairnessService,
    JobFailedError,
    ModelRegistry,
    ServingClient,
    ServingError,
    run_load,
    serve_in_thread,
)

DEFAULT_OUT = pathlib.Path(__file__).parent / "BENCH_resilience.json"
SCHEMA = "bench_resilience/v1"
SMOKE_PLAN = REPO_ROOT / "tests" / "fault_plans" / "smoke.json"

MODEL_NAME = "gs"
SPEC = "SP <= 0.08"
ESTIMATOR = "NB"
DATASET = "scenario:group_sweep"


class ServerProcess:
    """A ``repro serve`` subprocess; parses the ready line for the port."""

    def __init__(self, *extra_args):
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0", *extra_args,
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        port = None
        for _ in range(10):  # the fault-plan banner precedes the ready line
            line = self.proc.stdout.readline()
            match = re.search(r"serving on [\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            rest = self.proc.stdout.read()
            self.stop()
            raise RuntimeError(f"server failed to boot: {rest}")
        self.port = port

    def stop(self):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def solve_local_twin(rows, seed):
    """The model the chaos server should exactly reproduce."""
    data = load_scenario("group_sweep", n=rows, seed=seed)
    fair = Engine("auto").solve(
        Problem(SPEC), GaussianNaiveBayes(), data, seed=seed,
    )
    return data, fair


def arm_chaos_serving(*, rows, seed, n_clients, requests, pool_X, expected):
    """Load-test a server running under the committed smoke fault plan."""
    with tempfile.TemporaryDirectory() as store_dir:
        with ServerProcess(
            "--fault-plan", str(SMOKE_PLAN), "--store-dir", store_dir,
        ) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                job = client.retune(
                    SPEC, DATASET, name=MODEL_NAME, estimator=ESTIMATOR,
                    n=rows, seed=seed,
                )
                client.wait_job(job["job_id"], timeout=300)
            report = run_load(
                "127.0.0.1", server.port, MODEL_NAME, pool_X, expected,
                n_clients=n_clients, requests_per_client=requests,
                rows_per_request=4,
            )
            with ServingClient("127.0.0.1", server.port) as client:
                stats = client.stats()
    faults = stats["resilience"]["faults"]
    return {
        "fault_plan": str(SMOKE_PLAN.relative_to(REPO_ROOT)),
        "load": report.to_dict(),
        "faults_fired": faults["fired"],
        "site_calls": faults["calls"],
    }


def _service(dataset, model, **kwargs):
    registry = ModelRegistry()
    registry.register(
        MODEL_NAME, model, dataset_fingerprint=dataset.fingerprint(),
    )
    return FairnessService(registry=registry, **kwargs)


def arm_breaker_cycle(*, dataset, model, probe_rows, seed):
    """Trip the per-model retune breaker, then recover through a probe."""
    service = _service(
        dataset, model, breaker_threshold=2, breaker_cooldown_s=0.5,
    )
    rejected_503 = 0
    with serve_in_thread(service) as handle:
        with ServingClient(handle.host, handle.port) as client:
            for _ in range(2):  # threshold failures trip the breaker
                job = client.retune(
                    SPEC, "no-such-dataset", name=MODEL_NAME,
                )
                try:
                    client.wait_job(job["job_id"])
                except JobFailedError:
                    pass
            try:
                client.retune(SPEC, DATASET, n=probe_rows, name=MODEL_NAME)
            except ServingError as exc:
                if exc.status == 503 and exc.payload.get("state") == "open":
                    rejected_503 += 1
            time.sleep(0.7)  # cooldown: the next retune is the probe
            job = client.retune(
                "SP <= 0.2", DATASET, n=probe_rows, seed=seed,
                estimator=ESTIMATOR, name=MODEL_NAME,
            )
            probe = client.wait_job(job["job_id"], timeout=300)
            stats = client.stats()
    breaker = stats["resilience"]["breakers"][MODEL_NAME]
    return {
        "rejected_503_while_open": rejected_503,
        "probe_status": probe["status"],
        "breaker": breaker,
        "retune_failures": stats["admission"]["retune_failures"],
    }


def arm_drain(*, dataset, model, requests):
    """Serve traffic, then gate that ``stop()`` drains cleanly."""
    service = _service(dataset, model)
    handle = serve_in_thread(service)
    try:
        with ServingClient(handle.host, handle.port) as client:
            for start in range(requests):
                client.predict(
                    MODEL_NAME, dataset.X[start:start + 4],
                )
    finally:
        t0 = time.perf_counter()
        report = handle.stop()
        stop_ms = (time.perf_counter() - t0) * 1e3
    return {
        "requests": requests,
        "stop_ms": round(stop_ms, 2),
        "report": report,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--rows", type=int, default=3000,
                        help="scenario rows for the served model "
                             "(default 3000)")
    parser.add_argument("--clients", type=int, default=16,
                        help="concurrent chaos-load clients (default 16)")
    parser.add_argument("--requests", type=int, default=30,
                        help="requests per client (default 30)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizes (fewer rows and requests)")
    parser.add_argument("--max-p99-ms", type=float, default=None,
                        metavar="MS",
                        help="exit non-zero if chaos-load p99 exceeds "
                             "MS milliseconds")
    args = parser.parse_args(argv)

    rows = 900 if args.quick else args.rows
    clients = 8 if args.quick else args.clients
    requests = 10 if args.quick else args.requests
    probe_rows = 300 if args.quick else 800

    print(f"solving local twin ({DATASET}, n={rows}, seed={args.seed})")
    data, fair = solve_local_twin(rows, args.seed)
    expected = fair.predict(data.X)

    print(f"chaos serving under {SMOKE_PLAN.name} "
          f"({clients} clients x {requests} requests)")
    chaos = arm_chaos_serving(
        rows=rows, seed=args.seed, n_clients=clients, requests=requests,
        pool_X=data.X, expected=expected,
    )
    load = chaos["load"]
    print(f"  ok={load['predictions_ok']} errors={load['errors']} "
          f"shed={load['shed']} p99={load['p99_ms']:.2f}ms "
          f"faults_fired={sum(chaos['faults_fired'].values())}")

    print("cycling the retune circuit breaker")
    breaker = arm_breaker_cycle(
        dataset=data, model=fair, probe_rows=probe_rows, seed=args.seed,
    )
    print(f"  opens={breaker['breaker']['opens']} "
          f"cycles={breaker['breaker']['cycles']} "
          f"state={breaker['breaker']['state']}")

    print("graceful drain")
    drain = arm_drain(dataset=data, model=fair, requests=8)
    print(f"  drained={drain['report']['drained']} "
          f"forced={drain['report']['forced']} "
          f"stop={drain['stop_ms']}ms")

    failures = []
    if not load["predictions_ok"]:
        failures.append("chaos load: predictions diverged from local twin")
    if load["errors"]:
        failures.append(f"chaos load: {load['errors']} request errors")
    if not sum(chaos["faults_fired"].values()):
        failures.append("chaos load: fault plan never fired")
    if args.max_p99_ms is not None and load["p99_ms"] > args.max_p99_ms:
        failures.append(
            f"chaos load: p99 {load['p99_ms']}ms > {args.max_p99_ms}ms"
        )
    if breaker["breaker"]["cycles"] < 1:
        failures.append("breaker: no full open->half-open->closed cycle")
    if breaker["rejected_503_while_open"] < 1:
        failures.append("breaker: open state never rejected a retune")
    if breaker["probe_status"] != "done":
        failures.append(
            f"breaker: probe retune finished {breaker['probe_status']}"
        )
    if not drain["report"]["drained"]:
        failures.append("drain: stop() did not drain")
    if drain["report"]["forced"] or drain["report"]["unjoined_threads"]:
        failures.append("drain: stop() escalated on a healthy server")

    payload = {
        "schema": SCHEMA,
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "model": {
            "name": MODEL_NAME,
            "spec": SPEC,
            "estimator": ESTIMATOR,
            "dataset": DATASET,
            "rows": rows,
            "seed": args.seed,
        },
        "arms": {
            "chaos_serving": chaos,
            "breaker_cycle": breaker,
            "drain": drain,
        },
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

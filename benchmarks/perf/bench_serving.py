"""Serving harness: micro-batched HTTP serving vs per-request dispatch.

ISSUE 6 put a fairness-as-a-service layer over the facade: a model
registry with spec-canonical dedup keys, an asyncio HTTP front end, and
a per-model micro-batcher that coalesces concurrent ``/predict`` calls
into one ``FairModel.predict_batch``.  This harness measures what the
coalescing buys under a closed-loop multi-client load and gates the two
invariants the subsystem rests on:

* **bit-identical predictions** — every coalesced per-request answer is
  compared against a *locally* solved twin of the served model (same
  scenario rows, same Engine, same seed), so a batching bug that
  perturbs even one label fails the run;
* **canonical retune dedup** — a second ``/retune`` whose spec is a
  reordered/reformatted equivalent of the first must come back as a
  registry hit with zero solves.

The server runs in its own subprocess (own GIL) via ``repro serve``;
the model is created through ``POST /retune`` exactly as a client
would.  Both arms use the identical pipeline — the "off" arm is the
batcher pinned to ``max_batch_size=1`` — so the measured gap is
coalescing, not a different code path.  Two floors gate it: batching
must win at the largest client count (``--min-speedup``), and must not
lose much at one client (``--min-one-client-ratio``), where there is
nothing to coalesce and any idle wait before a pass shows up directly.

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf/bench_serving.py
    PYTHONPATH=src python benchmarks/perf/bench_serving.py \
        --quick --min-speedup 1.0 --min-one-client-ratio 0.5 \
        --max-p99-ms 500
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

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.api import Engine, Problem  # noqa: E402
from repro.datasets import load  # noqa: E402
from repro.ml.adapters import resolve_model  # noqa: E402
from repro.serving import ServingClient, run_load  # noqa: E402

DEFAULT_OUT = pathlib.Path(__file__).parent / "BENCH_serving.json"
SCHEMA = "bench_serving/v1"

MODEL_NAME = "gs"
SPEC = "SP <= 0.08"
# reordered clauses + scientific-notation epsilon: canonically identical
EQUIVALENT_SPEC = "sp  <=  8e-2"
ESTIMATOR = "NB"
DATASET = "scenario:group_sweep"
CLIENT_COUNTS = (1, 8, 32)
MAX_BATCH_SIZE = 32
ROWS_PER_REQUEST = 4


class ServerProcess:
    """A ``repro serve`` subprocess; parses the ready line for the port."""

    def __init__(self, *, batching, seed):
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--max-batch-size", str(MAX_BATCH_SIZE if batching else 1),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        )
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"serving on [\d.]+:(\d+)", line)
        if not match:
            rest = self.proc.stdout.read()
            self.stop()
            raise RuntimeError(f"server failed to boot: {line}{rest}")
        self.port = int(match.group(1))

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
    """The same solve ``/retune`` runs server-side, done locally."""
    data = load(DATASET, n=rows, seed=seed)
    fair = Engine("auto").solve(
        Problem(SPEC), resolve_model(ESTIMATOR), data, seed=seed,
    )
    return data, fair.predict(data.X)


def retune_and_dedup(client, rows, seed):
    """Create the model via /retune, then gate the canonical dedup."""
    job = client.retune(
        SPEC, DATASET, name=MODEL_NAME, estimator=ESTIMATOR,
        n=rows, seed=seed,
    )
    status = client.wait_job(job["job_id"], timeout=300)
    if status["status"] != "done":
        raise RuntimeError(f"retune failed: {status.get('error')}")
    first = status["result"]

    job = client.retune(
        EQUIVALENT_SPEC, DATASET, estimator=ESTIMATOR, n=rows, seed=seed,
    )
    status = client.wait_job(job["job_id"], timeout=300)
    if status["status"] != "done":
        raise RuntimeError(f"dedup retune failed: {status.get('error')}")
    second = status["result"]
    return {
        "first_solves": first["solves"],
        "equivalent_spec": EQUIVALENT_SPEC,
        "registry_hit_on_equivalent": bool(second.get("registry_hit")),
        "equivalent_solves": second["solves"],
        "resolved_model": second.get("model"),
    }


def run_arm(*, batching, rows, seed, requests_per_client, pool_X, expected):
    label = "batching_on" if batching else "batching_off"
    with ServerProcess(batching=batching, seed=seed) as server:
        with ServingClient("127.0.0.1", server.port) as client:
            retune = retune_and_dedup(client, rows, seed)
            stats_before = client.stats()
        by_clients = {}
        for n_clients in CLIENT_COUNTS:
            report = run_load(
                "127.0.0.1", server.port, MODEL_NAME, pool_X, expected,
                n_clients=n_clients,
                requests_per_client=requests_per_client,
                rows_per_request=ROWS_PER_REQUEST,
            )
            by_clients[str(n_clients)] = report.to_dict()
        with ServingClient("127.0.0.1", server.port) as client:
            stats_after = client.stats()
    batcher = stats_after["batching"]["per_model"].get(MODEL_NAME, {})
    return label, {
        "knobs": {
            "batching": batching,
            "max_batch_size": MAX_BATCH_SIZE if batching else 1,
        },
        "retune": retune,
        "clients": by_clients,
        "mean_batch_size": batcher.get("mean_batch_size"),
        "coalesced": batcher.get("coalesced"),
        "registry_canonical_hits": (
            stats_before["registry"]["canonical_hits"]
        ),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--rows", type=int, default=4000,
                        help="scenario rows for the retune solve and the "
                             "request pool (default 4000)")
    parser.add_argument("--requests", type=int, default=40,
                        help="requests per client per load run (default 40)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizes (fewer rows and requests)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        metavar="X",
                        help="exit non-zero if batched/unbatched throughput "
                             "at the largest client count is < X")
    parser.add_argument("--min-one-client-ratio", type=float, default=None,
                        metavar="X",
                        help="exit non-zero if batched/unbatched throughput "
                             "at 1 client is < X")
    parser.add_argument("--max-p99-ms", type=float, default=None,
                        metavar="MS",
                        help="exit non-zero if any load run's p99 exceeds "
                             "MS milliseconds")
    args = parser.parse_args(argv)

    rows = 1200 if args.quick else args.rows
    requests = 12 if args.quick else args.requests

    print(f"solving local twin ({DATASET}, n={rows}, seed={args.seed})")
    data, expected = solve_local_twin(rows, args.seed)

    arms = {}
    for batching in (False, True):
        label, result = run_arm(
            batching=batching, rows=rows, seed=args.seed,
            requests_per_client=requests, pool_X=data.X, expected=expected,
        )
        arms[label] = result
        for n_clients, report in result["clients"].items():
            print(
                f"{label:14s} clients={n_clients:>2s} "
                f"throughput={report['throughput_rps']:>8.1f} rps "
                f"p50={report['p50_ms']:.2f}ms p99={report['p99_ms']:.2f}ms "
                f"ok={report['predictions_ok']}"
            )

    def speedup_at(n_clients):
        return (
            arms["batching_on"]["clients"][n_clients]["throughput_rps"]
            / arms["batching_off"]["clients"][n_clients]["throughput_rps"]
        )

    top = str(max(CLIENT_COUNTS))
    speedup, one_client = speedup_at(top), speedup_at("1")

    failures = []
    for label, result in arms.items():
        if not result["retune"]["registry_hit_on_equivalent"]:
            failures.append(f"{label}: canonical retune did not dedup")
        if result["retune"]["equivalent_solves"] != 0:
            failures.append(f"{label}: dedup retune ran a solve")
        for n_clients, report in result["clients"].items():
            if not report["predictions_ok"]:
                failures.append(
                    f"{label} clients={n_clients}: predictions diverged "
                    "from the local twin"
                )
            if report["errors"]:
                failures.append(
                    f"{label} clients={n_clients}: "
                    f"{report['errors']} request errors"
                )
            if (args.max_p99_ms is not None
                    and report["p99_ms"] > args.max_p99_ms):
                failures.append(
                    f"{label} clients={n_clients}: p99 "
                    f"{report['p99_ms']}ms > {args.max_p99_ms}ms"
                )
    if args.min_speedup is not None and speedup < args.min_speedup:
        failures.append(
            f"speedup at {top} clients {speedup:.2f} < {args.min_speedup}"
        )
    if (args.min_one_client_ratio is not None
            and one_client < args.min_one_client_ratio):
        failures.append(
            f"batched/unbatched at 1 client {one_client:.2f} < "
            f"{args.min_one_client_ratio}"
        )

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
        "rows_per_request": ROWS_PER_REQUEST,
        "requests_per_client": requests,
        "client_counts": list(CLIENT_COUNTS),
        "arms": arms,
        "speedup_at_max_clients": round(speedup, 2),
        "speedup_at_one_client": round(one_client, 2),
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"speedup at 1 client: x{one_client:.2f}")
    print(f"speedup at {top} clients: x{speedup:.2f}")
    print(f"wrote {args.out}")
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Out-of-core columnar backend: encode-once amortization and bounded RSS.

Compares λ-searches over the same scenario rows held two ways — fully
materialized in memory versus memory-mapped off an encoded columnar
store — at 10^6 and 10^7 rows.  Every paired arm must select the
*identical* λ (the store round-trip is bit-exact by construction; the
harness fails if it ever is not), so the benchmark's axes are cost
axes only:

* **encode amortization** — encoding is a one-time O(n) pass; every
  later run re-opens the store in milliseconds instead of regenerating
  (or re-loading) the rows.
* **memory** — peak traced allocations (``tracemalloc``, which numpy
  buffers report into) and peak RSS per arm.  Each arm runs in its own
  subprocess so ``ru_maxrss`` is isolated.  On the sequential
  ``binary_search`` arms (candidate batches of size 1) the columnar
  path must stay under **1/3** of the in-memory peak at >= 10^6 rows —
  the grid arms allocate (B, n) candidate-weight matrices on both
  sides, so they gate on λ-equality and wall-clock only.

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf/bench_columnar.py
    PYTHONPATH=src python benchmarks/perf/bench_columnar.py \
        --quick --max-slowdown 1.5

The committed ``BENCH_columnar.json`` is produced at full size — the
headline is a **10,000,000-row** λ-grid search off the mapped store.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

DEFAULT_OUT = pathlib.Path(__file__).parent / "BENCH_columnar.json"
SCHEMA = "bench_columnar/v1"
CHUNK = 65_536
MEMORY_GATE_ROWS = 1_000_000   # bs-arm 1/3 gate applies at or above this
MEMORY_GATE_RATIO = 1.0 / 3.0


def workloads(quick=False):
    entries = {
        "million_row": dict(
            scenario="million_row",
            n=120_000 if quick else 1_000_000,
            spec="SP <= 0.05",
            grid_options={"grid_steps": 8, "grid_max": 0.5},
            strategies=("grid", "binary_search"),
            headline=False,
        ),
        "ten_million_row": dict(
            scenario="hundred_million_row",
            n=240_000 if quick else 10_000_000,
            spec="SP <= 0.08",
            grid_options={"grid_steps": 8, "grid_max": 0.5},
            # one strategy at the headline size: the bs memory gate is
            # already decided at 10^6 and the grid pass dominates wall
            strategies=("grid",),
            headline=True,
        ),
    }
    return entries


def _slice_splits(dataset, train_frac=0.2):
    """Contiguous train/val slices (val-heavy, like bench_scenarios).

    Slices keep memmap columns as views — a permutation split would
    materialize every row and erase the out-of-core memory story.
    Scenario rows are i.i.d. across generation blocks, so contiguous
    slices are a sound split protocol for them.
    """
    n = len(dataset)
    cut = int(round(n * train_frac))
    return dataset.subset(slice(0, cut)), dataset.subset(slice(cut, n))


# ---------------------------------------------------------------- child

def _arm_solve(spec):
    """One measured arm: load/open -> split -> solve, all traced.

    tracemalloc starts *before* the dataset exists so the in-memory
    arm pays for materializing the rows and the columnar arm pays only
    for what it actually allocates — that asymmetry is the measurement.
    """
    from repro.api import Engine, Problem
    from repro.datasets import load_scenario, open_columnar
    from repro.ml.naive_bayes import GaussianNaiveBayes

    tracemalloc.start()
    t0 = time.perf_counter()
    if spec["mode"] == "columnar":
        dataset = open_columnar(spec["store"])
        chunk_size = CHUNK
    else:
        dataset = load_scenario(spec["scenario"], n=spec["n"], seed=0)
        chunk_size = None
    train, val = _slice_splits(dataset)
    engine = Engine(
        spec["strategy"], chunk_size=chunk_size, **spec["options"]
    )
    fair = engine.solve(
        Problem(spec["spec"]), GaussianNaiveBayes(), train, val
    )
    elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    report = fair.report
    return dict(
        seconds=round(elapsed, 4),
        peak_traced_mb=round(peak / 1e6, 2),
        peak_rss_mb=round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
        lambdas=report.lambdas.tolist(),
        n_fits=report.n_fits,
    )


def _run_child(spec):
    """Execute one arm in a fresh interpreter; return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()),
         "--arm", json.dumps(spec)],
        capture_output=True, text=True,
        env=dict(PYTHONPATH=str(REPO_ROOT / "src"), PATH="/usr/bin:/bin",
                 HOME=str(pathlib.Path.home())),
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"arm {spec.get('kind')}/{spec.get('mode', '')} failed:\n"
            f"{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


# --------------------------------------------------------------- parent

def _encode_store(workload, root):
    from repro.datasets import encode_scenario, open_columnar

    t0 = time.perf_counter()
    manifest = encode_scenario(
        workload["scenario"], root, n=workload["n"], seed=0,
        chunk_rows=CHUNK,
    )
    encode_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    open_columnar(root)
    reopen_seconds = time.perf_counter() - t0
    store_bytes = sum(
        p.stat().st_size for p in pathlib.Path(root).iterdir()
        if p.is_file()
    )
    return dict(
        seconds=round(encode_seconds, 4),
        reopen_seconds=round(reopen_seconds, 4),
        rows_per_second=int(workload["n"] / max(encode_seconds, 1e-9)),
        store_bytes=store_bytes,
        fingerprint=manifest["fingerprint"],
    )


def run_workload(name, workload):
    entry = {
        "scenario": workload["scenario"],
        "rows": workload["n"],
        "spec": workload["spec"],
        "chunk_size": CHUNK,
        "headline": workload["headline"],
        "strategies": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_columnar_") as root:
        print(f"[bench_columnar] {name}: encoding {workload['n']} rows ...",
              flush=True)
        entry["encode"] = _encode_store(workload, root)
        for strategy in workload["strategies"]:
            options = (
                workload["grid_options"] if strategy == "grid" else {}
            )
            arms = {}
            for mode in ("inmem", "columnar"):
                print(f"[bench_columnar] {name}: {strategy}/{mode} ...",
                      flush=True)
                arms[mode] = _run_child(dict(
                    kind="solve", mode=mode, store=root,
                    scenario=workload["scenario"], n=workload["n"],
                    spec=workload["spec"], strategy=strategy,
                    options=options,
                ))
            pair = dict(
                inmem=arms["inmem"],
                columnar=arms["columnar"],
                selected_lambda_match=(
                    arms["inmem"]["lambdas"] == arms["columnar"]["lambdas"]
                ),
                peak_traced_ratio=round(
                    arms["columnar"]["peak_traced_mb"]
                    / max(arms["inmem"]["peak_traced_mb"], 1e-9), 3,
                ),
                peak_rss_ratio=round(
                    arms["columnar"]["peak_rss_mb"]
                    / max(arms["inmem"]["peak_rss_mb"], 1e-9), 3,
                ),
            )
            entry["strategies"][strategy] = pair
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizes (~1/8 rows)")
    parser.add_argument("--max-slowdown", type=float, default=None,
                        metavar="X",
                        help="exit non-zero if a columnar grid arm is "
                             "more than X times slower than in-memory")
    parser.add_argument("--arm", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.arm is not None:   # child mode: one measured arm
        print(json.dumps(_arm_solve(json.loads(args.arm))))
        return 0

    registry = workloads(quick=args.quick)
    selected = (
        args.workloads.split(",") if args.workloads else list(registry)
    )
    unknown = sorted(set(selected) - set(registry))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {list(registry)}")

    report = {
        "schema": SCHEMA,
        "quick": args.quick,
        "chunk_size": CHUNK,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": {},
    }
    failures = []
    for name in selected:
        entry = run_workload(name, registry[name])
        report["workloads"][name] = entry
        for strategy, pair in entry["strategies"].items():
            print(
                f"  {name}/{strategy}: inmem "
                f"{pair['inmem']['seconds']:.2f}s "
                f"{pair['inmem']['peak_traced_mb']:.0f}MB | columnar "
                f"{pair['columnar']['seconds']:.2f}s "
                f"{pair['columnar']['peak_traced_mb']:.0f}MB | "
                f"traced_ratio={pair['peak_traced_ratio']} "
                f"rss_ratio={pair['peak_rss_ratio']} | "
                f"lambda_match={pair['selected_lambda_match']}"
            )
            if not pair["selected_lambda_match"]:
                failures.append(
                    f"{name}/{strategy}: columnar selected a different λ"
                )
            if (strategy == "binary_search"
                    and entry["rows"] >= MEMORY_GATE_ROWS
                    and pair["peak_traced_ratio"] > MEMORY_GATE_RATIO):
                failures.append(
                    f"{name}/{strategy}: traced-memory ratio "
                    f"{pair['peak_traced_ratio']} exceeds "
                    f"{MEMORY_GATE_RATIO:.3f}"
                )
            if (args.max_slowdown is not None and strategy == "grid"
                    and pair["columnar"]["seconds"]
                    > args.max_slowdown * pair["inmem"]["seconds"]):
                failures.append(
                    f"{name}/{strategy}: columnar "
                    f"{pair['columnar']['seconds']:.2f}s vs in-memory "
                    f"{pair['inmem']['seconds']:.2f}s exceeds "
                    f"{args.max_slowdown:.1f}x"
                )

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_columnar] wrote {args.out}")
    for failure in failures:
        print(f"[bench_columnar] FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Fit-side acceleration harness: batched/presorted fits vs serial fits.

PR 2 compiled the constraint side; this harness times what ISSUE 3
accelerated — the per-candidate model fits themselves.  Each workload
runs one identical λ grid search twice through the compiled engine:

* **serial** — estimator variants with the batch protocol hidden and
  (for trees) the per-node-mergesort builder of the test oracle
  (``tests/tree_oracle.py``, ``PerNodeSortTree``), i.e. the seed-state
  fit path: one ``clone().fit()`` and one ``predict`` per candidate;
* **batched** — the fast path: batched IRLS for logistic
  regression (one vectorized damped-Newton pass over all candidates,
  batched Hessian solves), shared-:class:`~repro.ml.tree.PresortedDataset`
  index-partition builds for trees, and stacked ``predict_batch`` scoring.

Both sides go through the fit memoization cache, which has no switch.
It only skips fits whose resolved weights repeat an earlier fit, so on
the serial side it can only shorten the time the batched side must beat.

Both sides must select the **identical λ** (trees are bit-for-bit
identical; IRLS coefficients agree to reduction-order round-off, see
``tests/test_batch_protocol.py``), and the batched side must be faster —
the committed ``BENCH_fits.json`` shows the ≥ 3x headline speedups, and
CI re-runs the harness at ``--quick`` size with ``--fail-below 1.0``.

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf/bench_fits.py
    PYTHONPATH=src python benchmarks/perf/bench_fits.py \
        --workloads tree_grid --quick --fail-below 1.0
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
for _path in (REPO_ROOT / "src", REPO_ROOT / "tests"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402

from repro.api import Engine, Problem  # noqa: E402
from repro.core.exceptions import InfeasibleConstraintError  # noqa: E402
from repro.datasets.synthetic import make_biased_dataset  # noqa: E402
from repro.ml.logistic import LogisticRegression  # noqa: E402
from repro.ml.model_selection import train_test_split  # noqa: E402
from repro.ml.tree import DecisionTree  # noqa: E402
from tree_oracle import PerNodeSortTree  # noqa: E402

DEFAULT_OUT = pathlib.Path(__file__).parent / "BENCH_fits.json"
SCHEMA = "bench_fits/v1"


class SerialLogisticRegression(LogisticRegression):
    """IRLS logistic with the batch protocol hidden: serial baseline."""

    fit_weighted_batch = None
    predict_batch = None


def _logistic_seed_baseline(mode):
    """Headline pairing: the seed fit path vs the ISSUE 3 fast path.

    Serial side is the estimator exactly as the seed engine consumed it
    — default lbfgs solver, one ``clone().fit()`` per candidate; the
    batched side is batched IRLS.  Both converge the same strictly
    convex loss to tolerance, so the selected λ must agree (gated in
    CI); accuracies agree to optimizer tolerance.
    """
    if mode == "batched":
        return LogisticRegression(solver="irls", max_iter=100)
    return SerialLogisticRegression()


def _logistic_same_solver(mode):
    """Algorithm-fixed pairing: serial IRLS vs the identical batched
    IRLS — isolates the pure batching gain (shared Gram blocks, one
    batched Hessian solve, convergence masks) from the solver change."""
    cls = LogisticRegression if mode == "batched" else SerialLogisticRegression
    return cls(solver="irls", max_iter=100)


def _tree(mode):
    if mode == "batched":
        return DecisionTree(max_depth=12, min_samples_leaf=2)
    return PerNodeSortTree(max_depth=12, min_samples_leaf=2)


def _synthetic(n, seed=1, wide=False):
    return make_biased_dataset(
        "synthetic-fits", n, ("a", "b"), (0.55, 0.45), (0.4, 0.52),
        seed=seed,
        n_informative=3, n_group_correlated=2,
        n_noise=3 if wide else 1, n_categorical=0,
    )


def workloads(quick=False):
    """Workload registry: name -> dataset/estimator/strategy settings.

    ``quick`` shrinks row counts for the CI smoke run; the committed
    ``BENCH_fits.json`` is produced at full size.
    """
    scale = 0.3 if quick else 1.0

    def rows(n):
        return max(1000, int(n * scale))

    return {
        "logistic_grid": dict(
            dataset=lambda: _synthetic(rows(3000)),
            estimator=_logistic_seed_baseline,
            spec="SP <= 0.12 and MR <= 0.25 and FPR <= 0.25",
            strategy="grid",
            options={"grid_steps": 5},
            headline=True,
        ),
        "logistic_grid_same_solver": dict(
            dataset=lambda: _synthetic(rows(3000)),
            estimator=_logistic_same_solver,
            spec="SP <= 0.12 and MR <= 0.25 and FPR <= 0.25",
            strategy="grid",
            options={"grid_steps": 5},
            headline=False,
        ),
        "tree_grid": dict(
            dataset=lambda: _synthetic(rows(5500), wide=True),
            estimator=_tree,
            spec="SP <= 0.14 and MR <= 0.3",
            strategy="grid",
            options={"grid_steps": 6},
            headline=True,
        ),
        "logistic_single_grid": dict(
            dataset=lambda: _synthetic(rows(6000)),
            estimator=_logistic_same_solver,
            spec="SP <= 0.1",
            strategy="grid",
            options={"grid_steps": 16},
            headline=False,
        ),
    }


def _splits(dataset):
    idx = np.arange(len(dataset))
    strat = dataset.sensitive * 2 + dataset.y
    tr, va = train_test_split(idx, test_size=0.4, seed=0, stratify=strat)
    return dataset.subset(tr), dataset.subset(va)


def _solve(mode, workload, train, val):
    # the serial side hides the batch protocol (see its estimators);
    # both sides memoize repeated fits
    engine = Engine(workload["strategy"], **workload["options"])
    problem = Problem(workload["spec"])
    estimator = workload["estimator"](mode)
    t0 = time.perf_counter()
    try:
        fair = engine.solve(problem, estimator, train, val)
        report = fair.report
        result = dict(
            lambdas=report.lambdas.tolist(),
            feasible=True,
            n_fits=report.n_fits,
            accuracy=report.validation["accuracy"],
            fit_cache_hits=report.fit_cache_hits,
            fit_paths=report.fit_paths,
        )
    except InfeasibleConstraintError:
        # the full grid was still scanned — timing stays valid
        result = dict(
            lambdas=None, feasible=False, n_fits=None, accuracy=None,
            fit_cache_hits=None, fit_paths=None,
        )
    elapsed = time.perf_counter() - t0
    return elapsed, result


def run_workload(name, workload, repeats):
    dataset = workload["dataset"]()
    train, val = _splits(dataset)
    k = len(Problem(workload["spec"]).bind(train))
    timings, results = {}, {}
    for mode in ("serial", "batched"):
        best = np.inf
        for _ in range(repeats):
            elapsed, result = _solve(mode, workload, train, val)
            best = min(best, elapsed)
        timings[mode] = best
        results[mode] = result
    serial, batched = results["serial"], results["batched"]
    speedup = timings["serial"] / timings["batched"]
    return {
        "estimator": type(workload["estimator"]("batched")).__name__,
        "strategy": workload["strategy"],
        "spec": workload["spec"],
        "constraints": k,
        "rows_train": len(train),
        "rows_val": len(val),
        "n_fits": serial["n_fits"],
        "serial_seconds": round(timings["serial"], 4),
        "batched_seconds": round(timings["batched"], 4),
        "speedup": round(speedup, 2),
        "feasible": serial["feasible"],
        "selected_lambdas": serial["lambdas"],
        "selected_lambda_match": serial["lambdas"] == batched["lambdas"],
        "accuracy_delta": (
            abs(serial["accuracy"] - batched["accuracy"])
            if serial["accuracy"] is not None
            and batched["accuracy"] is not None
            else None
        ),
        "batched_fit_cache_hits": batched["fit_cache_hits"],
        "batched_fit_paths": batched["fit_paths"],
        "headline": workload["headline"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing per mode (default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizes (~1/3 rows)")
    parser.add_argument("--fail-below", type=float, default=None,
                        metavar="X",
                        help="exit non-zero if any workload speedup < X "
                             "or selected λ diverge")
    args = parser.parse_args(argv)

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
        "repeats": args.repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": {},
    }
    for name in selected:
        print(f"[bench_fits] {name} ...", flush=True)
        entry = run_workload(name, registry[name], args.repeats)
        report["workloads"][name] = entry
        print(
            f"  serial {entry['serial_seconds']:.3f}s | batched "
            f"{entry['batched_seconds']:.3f}s | speedup "
            f"{entry['speedup']:.2f}x | lambda_match="
            f"{entry['selected_lambda_match']} | fit_cache_hits="
            f"{entry['batched_fit_cache_hits']}"
        )
    speedups = [w["speedup"] for w in report["workloads"].values()]
    report["summary"] = {
        "min_speedup": min(speedups),
        "max_speedup": max(speedups),
        "all_lambdas_match": all(
            w["selected_lambda_match"]
            for w in report["workloads"].values()
        ),
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"[bench_fits] wrote {args.out}")

    if args.fail_below is not None:
        if min(speedups) < args.fail_below:
            print(
                f"[bench_fits] FAIL: min speedup {min(speedups):.2f}x "
                f"< threshold {args.fail_below:.2f}x",
                file=sys.stderr,
            )
            return 1
        if not report["summary"]["all_lambdas_match"]:
            print(
                "[bench_fits] FAIL: serial and batched paths selected "
                "different lambdas",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

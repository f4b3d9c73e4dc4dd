"""Incremental engine: O(batch) audit updates vs from-scratch recompute.

:mod:`repro.incremental` keeps fairness audits exact under data
updates.  This harness measures the two properties the subsystem
promises, on the ``million_row`` scaling scenario:

* **per-batch audit cost is independent of the audited row count** —
  appending a fixed-size batch through
  :meth:`~repro.incremental.IncrementalAuditor.append_rows` (count
  deltas over the changed rows only) must be an order of magnitude
  cheaper than a from-scratch :class:`~repro.core.kernels.
  CompiledEvaluator` pass over all live rows.  Each append is followed
  by a :meth:`~repro.incremental.IncrementalAuditor.retire_rows` of the
  oldest batch of live rows, and both snapshots must agree
  **bit-for-bit** with the recompute (the gate checks the append
  speedup and every snapshot);
* **drift retunes are warm** — when the updated max-violation breaches
  the drift tolerance, the λ re-search seeded from the deployed model's
  fitted λ (:func:`~repro.incremental.warm_retune`) must spend strictly
  fewer model fits than the cold reference solve on the same live rows.

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf/bench_updates.py
    PYTHONPATH=src python benchmarks/perf/bench_updates.py --quick
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.api import Engine  # noqa: E402
from repro.datasets.scenarios import load_scenario  # noqa: E402
from repro.incremental import IncrementalAuditor, warm_retune  # noqa: E402

DEFAULT_OUT = pathlib.Path(__file__).parent / "BENCH_updates.json"
SCHEMA = "bench_updates/v1"

SPEC = "SP <= 0.05"
ESTIMATOR = "LR"

# update-cost arm: million_row, fixed-size batches against a big base
UPDATE_SCENARIO = "million_row"
FULL_BASE_ROWS = 1_000_000
QUICK_BASE_ROWS = 120_000
BATCH_ROWS = 2_000
FULL_BATCHES = 10
QUICK_BATCHES = 5
# committed (full) runs must clear the headline ratio; the CI smoke
# base is ~8x smaller, so its gate is a floor, not the headline
FULL_MIN_SPEEDUP = 10.0
QUICK_MIN_SPEEDUP = 1.5

# retune arm: the concept-drift stream; the tighter epsilon keeps the
# post-drift optimum at a nonzero λ, so the warm bracket has something
# to save (at a loose epsilon the cold re-solve is feasible at λ=0 and
# nothing can beat one fit)
RETUNE_SCENARIO = "label_drift"
RETUNE_SPEC = "SP <= 0.02"
FULL_RETUNE_ROWS = 30_000
QUICK_RETUNE_ROWS = 8_000


def fit_model(dataset, spec, seed):
    engine = Engine("binary_search")
    model = engine.solve(spec, ESTIMATOR, dataset, seed=seed)
    return model


def same_audit(snapshot, reference):
    """Whether an incremental snapshot equals a recompute bit for bit."""
    return (
        snapshot["disparities"].tobytes()
        == reference["disparities"].tobytes()
        and snapshot["accuracy"] == reference["accuracy"]
        and snapshot["max_violation"] == reference["max_violation"]
    )


def run_update_arm(base_rows, n_batches, seed):
    """Fixed-size appends and retires: incremental audit vs recompute.

    The recompute arm re-binds the constraints and re-scores the stored
    predictions through the batched evaluator — the cheapest honest
    from-scratch audit (it does not even re-predict), so the measured
    ratio under-states the incremental engine's advantage.
    """
    fit_rows = min(base_rows, 50_000)
    head = load_scenario(UPDATE_SCENARIO, n=fit_rows, seed=seed)
    model = fit_model(head, SPEC, seed)

    base = load_scenario(UPDATE_SCENARIO, n=base_rows, seed=seed)
    start = time.perf_counter()
    auditor = IncrementalAuditor(SPEC, model, base)
    init_s = time.perf_counter() - start

    stream = load_scenario(
        UPDATE_SCENARIO, n=n_batches * BATCH_ROWS, seed=seed + 1,
    )

    inc_s, ret_s, full_s = [], [], []
    bit_identical = True
    for b in range(n_batches):
        batch = stream.subset(
            np.arange(b * BATCH_ROWS, (b + 1) * BATCH_ROWS)
        )
        start = time.perf_counter()
        snapshot = auditor.append_rows(batch)
        inc_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        reference = auditor.recompute()
        full_s.append(time.perf_counter() - start)
        bit_identical = same_audit(snapshot, reference) and bit_identical
        # row ids are append order, so the oldest live rows come first
        oldest = np.arange(b * BATCH_ROWS, (b + 1) * BATCH_ROWS)
        start = time.perf_counter()
        snapshot = auditor.retire_rows(oldest)
        ret_s.append(time.perf_counter() - start)
        bit_identical = (
            same_audit(snapshot, auditor.recompute()) and bit_identical
        )
    inc_median = statistics.median(inc_s)
    ret_median = statistics.median(ret_s)
    full_median = statistics.median(full_s)
    return {
        "scenario": UPDATE_SCENARIO,
        "base_rows": base_rows,
        "batch_rows": BATCH_ROWS,
        "n_batches": n_batches,
        "auditor_init_s": round(init_s, 4),
        "incremental_s": [round(t, 6) for t in inc_s],
        "retire_s": [round(t, 6) for t in ret_s],
        "recompute_s": [round(t, 6) for t in full_s],
        "incremental_median_s": round(inc_median, 6),
        "retire_median_s": round(ret_median, 6),
        "recompute_median_s": round(full_median, 6),
        "speedup": round(full_median / max(inc_median, 1e-9), 2),
        "bit_identical": bit_identical,
        "final_live_rows": auditor.n_live,
    }


def run_retune_arm(total_rows, seed):
    """Drift the base rates, then re-search λ warm vs cold."""
    full = load_scenario(RETUNE_SCENARIO, n=total_rows, seed=seed,
                         drift_rows=total_rows)
    head = full.subset(np.arange(total_rows // 2))
    tail = full.subset(np.arange(total_rows // 2, total_rows))
    model = fit_model(head, RETUNE_SPEC, seed)

    auditor = IncrementalAuditor(RETUNE_SPEC, model, head)
    before = auditor.audit()
    after = auditor.append_rows(tail)

    live = auditor.live_dataset()
    cold = Engine("binary_search").solve(
        RETUNE_SPEC, ESTIMATOR, live, seed=seed,
    )
    warm = warm_retune(auditor, seed=seed, strategy="binary_search")
    return {
        "scenario": RETUNE_SCENARIO,
        "spec": RETUNE_SPEC,
        "total_rows": total_rows,
        "fit_n_fits": model.report.n_fits,
        "max_violation_before": round(before["max_violation"], 6),
        "max_violation_after_drift": round(after["max_violation"], 6),
        "cold_n_fits": cold.report.n_fits,
        "warm_n_fits": warm.report.n_fits,
        "fits_saved": cold.report.n_fits - warm.report.n_fits,
        "cold_feasible": bool(cold.report.feasible),
        "warm_feasible": bool(warm.report.feasible),
        "max_violation_after_retune": round(
            auditor.max_violation(), 6
        ),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizes (smaller base, fewer batches)")
    args = parser.parse_args(argv)

    base_rows = QUICK_BASE_ROWS if args.quick else FULL_BASE_ROWS
    n_batches = QUICK_BATCHES if args.quick else FULL_BATCHES
    retune_rows = QUICK_RETUNE_ROWS if args.quick else FULL_RETUNE_ROWS
    min_speedup = QUICK_MIN_SPEEDUP if args.quick else FULL_MIN_SPEEDUP

    print(f"update arm: {UPDATE_SCENARIO} base={base_rows} "
          f"batch={BATCH_ROWS} x{n_batches}")
    update = run_update_arm(base_rows, n_batches, args.seed)
    print(f"  incremental: {update['incremental_median_s'] * 1e3:.2f}ms "
          f"median/batch append, "
          f"{update['retire_median_s'] * 1e3:.2f}ms retire")
    print(f"  recompute:   {update['recompute_median_s'] * 1e3:.2f}ms "
          f"median/batch  x{update['speedup']}")
    print(f"  bit-identical after every batch: "
          f"{update['bit_identical']}")

    print(f"retune arm: {RETUNE_SCENARIO} n={retune_rows}")
    retune = run_retune_arm(retune_rows, args.seed)
    print(f"  drift: max violation {retune['max_violation_before']} -> "
          f"{retune['max_violation_after_drift']}")
    print(f"  cold: {retune['cold_n_fits']} fits, "
          f"warm: {retune['warm_n_fits']} fits "
          f"({retune['fits_saved']} saved)")

    failures = []
    if not update["bit_identical"]:
        failures.append(
            "incremental audit diverged from the from-scratch recompute"
        )
    if update["speedup"] < min_speedup:
        failures.append(
            f"update speedup x{update['speedup']} below the "
            f"x{min_speedup} gate"
        )
    if retune["warm_n_fits"] >= retune["cold_n_fits"]:
        failures.append(
            f"warm retune spent {retune['warm_n_fits']} fits, not "
            f"strictly fewer than cold's {retune['cold_n_fits']}"
        )
    if not retune["warm_feasible"]:
        failures.append("warm retune landed on an infeasible model")

    payload = {
        "schema": SCHEMA,
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "spec": SPEC,
        "estimator": ESTIMATOR,
        "update": update,
        "retune": retune,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

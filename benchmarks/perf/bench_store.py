"""Cross-run semantic cache: persistent store vs cold re-solves.

:mod:`repro.store` is a content-addressed on-disk blob store
underneath the in-memory fit cache, plus a canonical solution cache
keyed on ``SpecSet.canonical()`` × ``Dataset.fingerprint()`` ×
estimator fingerprint × strategy config.  This
harness runs the CLI (``python -m repro train``) the way a user would —
separate processes sharing only ``--store-dir`` — and gates the two
properties the subsystem promises:

* **canonical re-solve is free** — re-running a finished solve under a
  reformatted-but-equivalent spec (``"sp  <=  8e-2"`` for
  ``"SP <= 0.08"``) must spend **0 model fits** and return
  **bit-identical lambdas**, served from the solution cache;
* **warm starts strictly help** — tightening the threshold after a
  seeded solve (same canonical shape, smaller epsilon) must spend
  strictly fewer fits than the cold ``--no-store`` reference arm, while
  still landing on a feasible model.

Each arm is a fresh subprocess, so every hit measured here crossed a
process boundary through the on-disk store — nothing is served from
in-process memory.

Run from the repository root::

    PYTHONPATH=src python benchmarks/perf/bench_store.py
    PYTHONPATH=src python benchmarks/perf/bench_store.py --quick
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

DEFAULT_OUT = pathlib.Path(__file__).parent / "BENCH_store.json"
SCHEMA = "bench_store/v1"

# -- canonical re-solve arm (multi-constraint, hill climb) -------------------
GRID_DATASET = "scenario:group_sweep"
GRID_SPEC = "SP <= 0.08"
# scientific-notation epsilon + whitespace: canonically identical
GRID_EQUIVALENT_SPEC = "sp  <=  8e-2"

# -- warm-start arm (single constraint, binary search) -----------------------
WARM_DATASET = "scenario:imbalance"
WARM_SEED_EPSILON = 0.08     # the loose solve that seeds the store
WARM_TIGHT_EPSILON = 0.05    # the tightened re-solve being measured

ESTIMATOR = "NB"

_FITS_RE = re.compile(r"model fits: (\d+)")
_LAMBDAS_RE = re.compile(r"lambda\(s\): (\[[^\]]*\])")
_STORE_RE = re.compile(r"store (\d+)/(\d+) hits \(([^)]*)\)")


def run_train(dataset, rows, seed, *, spec=None, epsilon=None,
              search="auto", store_dir=None, no_store=False):
    """One ``repro train`` subprocess; returns its parsed outcome."""
    cmd = [
        sys.executable, "-m", "repro", "train",
        "--dataset", dataset, "--model", ESTIMATOR,
        "--rows", str(rows), "--seed", str(seed), "--search", search,
    ]
    if spec is not None:
        cmd += ["--spec", spec]
    else:
        cmd += ["--metric", "SP", "--epsilon", str(epsilon)]
    if store_dir is not None:
        cmd += ["--store-dir", str(store_dir)]
    if no_store:
        cmd += ["--no-store"]
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, timeout=600,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(
            f"train failed ({proc.returncode}): {proc.stdout}{proc.stderr}"
        )
    fits = _FITS_RE.search(proc.stdout)
    lambdas = _LAMBDAS_RE.search(proc.stdout)
    store = _STORE_RE.search(proc.stdout)
    if not (fits and lambdas and store):
        raise RuntimeError(f"unparseable train output: {proc.stdout}")
    return {
        "fits": int(fits.group(1)),
        "lambdas": json.loads(lambdas.group(1)),
        "store_hits": int(store.group(1)),
        "store_lookups": int(store.group(2)),
        "fit_paths": store.group(3),
        "wall_s": round(elapsed, 3),
    }


def run_grid_arms(store_dir, rows, seed):
    """Cold solve, then an equivalent-spec re-solve through the store."""
    cold = run_train(
        GRID_DATASET, rows, seed, spec=GRID_SPEC, store_dir=store_dir,
    )
    rehit = run_train(
        GRID_DATASET, rows, seed, spec=GRID_EQUIVALENT_SPEC,
        store_dir=store_dir,
    )
    return {
        "dataset": GRID_DATASET,
        "spec": GRID_SPEC,
        "equivalent_spec": GRID_EQUIVALENT_SPEC,
        "cold": cold,
        "rehit": rehit,
        "speedup": round(cold["wall_s"] / max(rehit["wall_s"], 1e-9), 2),
    }


def run_warm_arms(store_dir, rows, seed):
    """Seed at a loose epsilon, then tighten: warm vs cold reference."""
    seed_run = run_train(
        WARM_DATASET, rows, seed, epsilon=WARM_SEED_EPSILON,
        search="binary_search", store_dir=store_dir,
    )
    cold_tight = run_train(
        WARM_DATASET, rows, seed, epsilon=WARM_TIGHT_EPSILON,
        search="binary_search", store_dir=store_dir, no_store=True,
    )
    warm_tight = run_train(
        WARM_DATASET, rows, seed, epsilon=WARM_TIGHT_EPSILON,
        search="binary_search", store_dir=store_dir,
    )
    return {
        "dataset": WARM_DATASET,
        "seed_epsilon": WARM_SEED_EPSILON,
        "tight_epsilon": WARM_TIGHT_EPSILON,
        "seed_run": seed_run,
        "cold_tight": cold_tight,
        "warm_tight": warm_tight,
        "fits_saved": cold_tight["fits"] - warm_tight["fits"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--rows", type=int, default=2000,
                        help="scenario rows per solve (default 2000)")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke sizes (fewer rows)")
    args = parser.parse_args(argv)

    rows = 600 if args.quick else args.rows
    warm_rows = 1500 if args.quick else max(args.rows, 1500)

    with tempfile.TemporaryDirectory(prefix="bench_store_") as td:
        print(f"grid arm: {GRID_DATASET} n={rows} seed={args.seed}")
        grid = run_grid_arms(pathlib.Path(td) / "grid", rows, args.seed)
        print(
            f"  cold:  {grid['cold']['fits']} fits "
            f"{grid['cold']['wall_s']}s"
        )
        print(
            f"  rehit: {grid['rehit']['fits']} fits "
            f"{grid['rehit']['wall_s']}s "
            f"({grid['rehit']['fit_paths']}) x{grid['speedup']}"
        )

        print(f"warm arm: {WARM_DATASET} n={warm_rows} seed=5")
        warm = run_warm_arms(pathlib.Path(td) / "warm", warm_rows, 5)
        print(f"  seed  (eps={WARM_SEED_EPSILON}): "
              f"{warm['seed_run']['fits']} fits")
        print(f"  cold  (eps={WARM_TIGHT_EPSILON}): "
              f"{warm['cold_tight']['fits']} fits")
        print(f"  warm  (eps={WARM_TIGHT_EPSILON}): "
              f"{warm['warm_tight']['fits']} fits "
              f"({warm['warm_tight']['fit_paths']})")

    failures = []
    if grid["rehit"]["fits"] != 0:
        failures.append(
            f"canonical re-solve spent {grid['rehit']['fits']} fits, "
            "expected 0"
        )
    if grid["rehit"]["lambdas"] != grid["cold"]["lambdas"]:
        failures.append(
            f"canonical re-solve lambdas {grid['rehit']['lambdas']} != "
            f"cold lambdas {grid['cold']['lambdas']}"
        )
    if grid["rehit"]["store_hits"] < 1:
        failures.append("canonical re-solve did not hit the store")
    if warm["warm_tight"]["fits"] >= warm["cold_tight"]["fits"]:
        failures.append(
            f"warm tightened solve spent {warm['warm_tight']['fits']} fits, "
            f"not strictly fewer than cold's {warm['cold_tight']['fits']}"
        )

    payload = {
        "schema": SCHEMA,
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "estimator": ESTIMATOR,
        "grid": grid,
        "warm": warm,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

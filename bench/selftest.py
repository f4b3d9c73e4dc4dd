"""Self-test of the benchmark harness at tiny sizes.

Run from the repository root (under a minute)::

    python3 bench/selftest.py

Checks that

* every workload, untraced and traced, exits 0 and prints each metric
  named in ``BENCHMARK.json`` with its unit, both in the readable lines
  and in the final JSON object;
* the correctness checks catch a deliberately wrong prediction, on the
  solve path (a flipped model label makes the report disagree with the
  fresh audit) and on the serving path (a flipped label in a
  ``/predict`` answer);
* a traced run refuses to start when a layer entry point is missing;
* a run leaves ``git status --porcelain`` unchanged.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

WORKLOADS = ("paper_twins", "fit_heavy", "eval_outofcore", "serve_mix")


def git_status():
    try:
        return subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None   # not a git checkout: nothing to compare


def check_metrics_printed(spec, tmp):
    failures = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   workload, "--seed", "0", "--seconds", "1", "--trace",
                   str(trace), "--tiny"]
            spans = pathlib.Path(tmp) / f"{workload}.spans.json"
            if trace:
                cmd += ["--spans", str(spans)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=300)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: JSON keys {sorted(result)}")
            if not result["correct"]:
                failures.append(f"{where}: correct is false\n{proc.stdout}")
            for metric in spec[key]:
                name, unit = metric["name"], metric["unit"]
                got = result["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    failures.append(f"{where}: JSON lacks {name} [{unit}]")
                if not any(
                    line.split()[:1] == [name] and line.split()[-1] == unit
                    for line in lines[:-1]
                ):
                    failures.append(f"{where}: no '{name} ... {unit}' line")
            if trace and not spans.exists():
                failures.append(f"{where}: span file not written")
            print(f"ok  {where}", flush=True)
    return failures


def check_wrong_prediction_caught(tmp):
    import numpy as np
    from repro.ml.base import BaseClassifier
    from repro.serving.client import ServingClient
    from workloads import PaperTwins, ServeMix

    failures = []
    workload = PaperTwins([0], True, tmp)
    workload.setup()
    outcomes = workload.run_pass()
    failed, _ = workload.check(outcomes)
    if failed:
        failures.append(f"solve check fails an unaltered pass: {failed}")
    original = BaseClassifier.predict

    def flipped(self, X):
        labels = np.array(original(self, X))
        labels[0] = 1 - labels[0]
        return labels

    BaseClassifier.predict = flipped
    try:
        failed, _ = workload.check(outcomes)
    finally:
        BaseClassifier.predict = original
    if not failed:
        failures.append("solve check missed a flipped model label")
    print("ok  solve check catches a flipped label", flush=True)

    serve = ServeMix(0, True, rate=50)
    serve.setup()
    try:
        _, bad, _ = serve.phase_b_pass(0)
        if bad:
            failures.append(f"serving check fails unaltered answers: {bad}")
        original_predict = ServingClient.predict

        def wrong(self, model, rows, timeout_ms=None):
            labels = original_predict(self, model, rows, timeout_ms)
            labels[0] = 1 - labels[0]
            return labels

        ServingClient.predict = wrong
        try:
            _, bad, _ = serve.phase_b_pass(0)
        finally:
            ServingClient.predict = original_predict
        if bad != serve.pass_requests:
            failures.append(
                f"serving check caught {bad}/{serve.pass_requests} "
                "flipped answers"
            )
    finally:
        serve.close()
    print("ok  serving check catches a flipped label", flush=True)
    return failures


def check_missing_layer_fails():
    import tracing

    points = tracing.LAYER_POINTS
    tracing.LAYER_POINTS = points + (
        ("repro.api", "Engine", "no_such_entry_point", "solve"),
    )
    try:
        tracing.Tracer().install()
    except RuntimeError:
        failures = []
    else:
        failures = ["tracer installed despite a missing entry point"]
    finally:
        tracing.LAYER_POINTS = points
    print("ok  tracer refuses a missing entry point", flush=True)
    return failures


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = git_status()
    with tempfile.TemporaryDirectory() as tmp:
        failures = check_metrics_printed(spec, tmp)
        failures += check_wrong_prediction_caught(tmp)
    failures += check_missing_layer_fails()
    after = git_status()
    if before != after:
        failures.append(f"git status changed:\n{before}\n->\n{after}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

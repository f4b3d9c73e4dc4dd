"""One benchmark for fair solves and serving.

Run from the repository root::

    python3 bench/run.py --workload paper_twins --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload serve_mix --seed 1 --seconds 20 \\
        --trace 1 --spans /tmp/serve_mix.spans.json

Workloads: ``paper_twins``, ``fit_heavy``, ``eval_outofcore`` and
``serve_mix`` (see ``bench/README.md``).  ``--trace 0`` measures the
end-to-end metrics with no instrumentation installed; ``--trace 1``
instead wraps the program's layer entry points and prints the per-layer
table.  Every output is checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import time

# One BLAS thread, set before numpy loads; the served subprocess inherits
# it.  On a shared 2-core host OpenBLAS's second thread spin-waits: one
# busy neighbour process slowed a pass 1.8-2.5x with two threads and
# not at all with one.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: ``serve_mix`` set-ups per run.  Every timed figure is scaled to a
#: fixed host speed (``workloads.scaled``) and is then the fastest of
#: several samples, since what noise is left only ever slows a sample
#: down.  The first, cold set-up never counts as fastest.
SETUP_REPS = 5

END_TO_END = {"setup_s": "s", "work_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "spec.bind_s": "s", "planner.self_s": "s", "planner.batches": "count",
    "planner.candidates": "count", "executor.self_s": "s",
    "kernels.weights_s": "s", "fitter.self_s": "s",
    "fitter.fits_logical": "count", "fitter.fits_trained": "count",
    "ml.fit_s": "s", "ml.fit_calls": "count", "ml.predict_s": "s",
    "ml.predict_rows": "count", "kernels.score_s": "s",
    "kernels.score_calls": "count", "audit.final_s": "s",
    "trace.coverage": "ratio", "trace.overhead": "ratio",
}

#: figures of layers that only some workloads call, and cache hit ratios,
#: which are 0 on some workloads: printed in the readable lines of a
#: traced run that called the layer or looked the cache up, never in the
#: JSON, where a metric is non-zero on every workload
WHERE_CALLED = {
    "fitter.cache_hit_ratio": "ratio",
    "kernels.eval_cache_hit_ratio": "ratio", "store.get_s": "s",
    "store.put_s": "s", "store.hit_ratio": "ratio",
    "store.bytes_written": "bytes", "datasets.fingerprint_s": "s",
    "datasets.encode_s": "s", "datasets.open_s": "s",
    "serving.http_ms": "ms", "batcher.wait_ms": "ms",
    "batcher.predict_ms": "ms", "batcher.batch_size_mean": "count",
    "incremental.update_ms": "ms", "incremental.audit_ms": "ms",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, metavar="PATH",
                        help="with --trace 1, write the span file here")
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the harness self-test")
    return parser.parse_args(argv)


def load_frozen():
    return json.loads((HERE / "frozen.json").read_text())


def ratio(num, den):
    return num / den if den else 0.0


def lambda_notes(name, input_seeds, digest_runs, frozen, tiny):
    """Compare each pass's λ digests with the frozen ones."""
    table = frozen["lambda"].get(name, {})
    want = None
    if not tiny and all(str(s) in table for s in input_seeds):
        want = [d for s in input_seeds for d in table[str(s)]]
    notes = []
    for digests in digest_runs:
        if digests != digest_runs[0]:
            notes.append("lambda_unstable: passes selected different λ")
            break
    if want is None:
        notes.append("lambda_unfrozen: no frozen digests for this input")
    elif digest_runs and digest_runs[0] != want:
        changed = [i for i, (a, b) in enumerate(zip(digest_runs[0], want))
                   if a != b]
        notes.append(f"lambda_changed: solves {changed}")
    return notes


# -- solve workloads ----------------------------------------------------------

def run_solves(workload, seconds, trace):
    from tracing import Tracer
    from workloads import scaled

    tracer = Tracer() if trace else None
    setups, raw_setups, setup_spans = [], [], []
    passes = {False: [], True: []}
    solve_times, untraced_solves, digest_runs, extras = [], [], [], []
    attempted = failed = 0
    failed_labels = set()
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        traced = bool(trace) and k % 2 == 1
        if k == 0 or not trace:
            # untraced, every pass has its own set-up, so the set-up
            # samples spread over the run as the pass samples do
            _, raw, setup_s = scaled(lambda: workload.setup(tracer))
            setups.append(setup_s)
            raw_setups.append(raw)
            if tracer:
                setup_spans = list(tracer.spans)
                tracer.spans.clear()
        if traced:
            tracer.run_id = k
            tracer.install()
        try:
            t0 = time.perf_counter()
            outcomes = workload.run_pass()
            elapsed = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        extras.append(workload.end_pass())
        passes[traced].append(elapsed)
        solve_times.extend(o.seconds for o in outcomes)
        if not traced:
            untraced_solves.append([(o.scaled, o.seconds) for o in outcomes])
        bad, digests = workload.check(outcomes)
        attempted += len(outcomes)
        failed += len(bad)
        failed_labels.update(bad)
        digest_runs.append(digests)
        del outcomes   # the next set-up replaces the data they hold
        k += 1
        if time.perf_counter() >= deadline and (not trace or k >= 2):
            break
    workload.close()
    return {
        "setups": setups, "raw_setups": raw_setups, "passes": passes,
        "solve_times": solve_times,
        "untraced_solves": untraced_solves,
        "digest_runs": digest_runs, "attempted": attempted,
        "failed": failed, "failed_labels": sorted(failed_labels),
        "extras": extras, "tracer": tracer, "setup_spans": setup_spans,
    }


def solve_layer_metrics(table, n):
    """Per-pass layer metrics from a :func:`layer_table` of ``n`` passes."""
    def g(name, key="self_s"):
        return table.get(name, {}).get(key, 0.0) / n

    solve = table.get("solve", {})
    out = {
        "spec.bind_s": g("spec.bind"),
        "planner.self_s": g("planner"),
        "planner.batches": g("executor", "outer_calls"),
        "planner.candidates": g("executor", "candidates"),
        "executor.self_s": g("executor"),
        "kernels.weights_s": g("kernels.weights"),
        "fitter.self_s": g("fitter"),
        "fitter.fits_logical": solve.get("fits_logical", 0) / n,
        "fitter.fits_trained": g("ml.fit", "trained"),
        "ml.fit_s": g("ml.fit"),
        "ml.fit_calls": g("ml.fit", "outer_calls"),
        "ml.predict_s": g("ml.predict"),
        "ml.predict_rows": g("ml.predict", "rows"),
        "kernels.score_s": g("kernels.score"),
        "kernels.score_calls": g("kernels.score", "outer_calls"),
        "audit.final_s": g("audit.final"),
    }
    for name in ("store.get", "store.put", "datasets.fingerprint"):
        if name in table:
            out[name + "_s"] = g(name)
    for name, cache in (("fitter.cache_hit_ratio", "fit_cache"),
                        ("kernels.eval_cache_hit_ratio", "eval_cache"),
                        ("store.hit_ratio", "store")):
        if solve.get(cache + "_lookups"):
            out[name] = solve[cache + "_hits"] / solve[cache + "_lookups"]
    return out


def report_solves(res, trace, spans_path):
    from tracing import coverage, layer_table

    out = {}
    passes = res["passes"]
    lines = [
        f"  passes: {len(passes[False])} untraced, {len(passes[True])} traced;"
        f" solves: {res['attempted']}",
        "  untraced pass_s: " + " ".join(f"{p:.4f}" for p in passes[False]),
        f"  solve_p50_ms {statistics.median(res['solve_times']) * 1e3:.4f} ms"
        f" (n={len(res['solve_times'])} solves)",
    ]
    if not trace:
        # each solve's fastest time over the untraced passes, summed
        best = [min(times) for times in zip(*res["untraced_solves"])]
        out["setup_s"] = min(res["setups"])
        out["work_s"] = sum(b[0] for b in best)
        lines += [
            f"  work_s sums the fastest of {len(passes[False])} passes for "
            f"each of {len(best)} solves; unscaled "
            f"{sum(b[1] for b in best):.4f} s",
            f"  setup_s is the fastest of {len(res['setups'])} set-ups; "
            f"unscaled {min(res['raw_setups']):.4f} s",
        ]
        out["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        return out, lines
    tracer = res["tracer"]
    n = len(passes[True])
    table = layer_table(tracer.spans)
    out.update(solve_layer_metrics(table, n))
    written = [e["store_bytes"] for e in res["extras"] if "store_bytes" in e]
    if written:
        out["store.bytes_written"] = statistics.median(written)
    out["trace.coverage"] = coverage(tracer.spans) or 0.0
    out["trace.overhead"] = (
        statistics.median(passes[True]) / statistics.median(passes[False])
        - 1.0
    )
    setup_table = layer_table(res["setup_spans"])
    for name in ("datasets.encode", "datasets.open"):
        if name in setup_table:
            out[name + "_s"] = setup_table[name]["self_s"]
    lines += format_layer_table(
        table, n, statistics.median(passes[True]), "per traced pass",
    )
    if spans_path:
        tracer.spans.extend(res["setup_spans"])
        tracer.write(spans_path)
    return out, lines


def format_layer_table(table, n, root_s, unit):
    lines = [f"  layer table ({unit}; self time = span minus children):",
             f"    {'layer':24s} {'calls':>9s} {'self_s':>11s} {'share':>7s}"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = f"{row['self_s'] / n / root_s:7.1%}" if root_s else ""
        lines.append(
            f"    {name:24s} {row['calls'] / n:9.1f} "
            f"{row['self_s'] / n:11.6f} {share}"
        )
    return lines


# -- serve_mix ----------------------------------------------------------------

def run_serve(workload, seconds, trace, workdir, spans_path):
    from tracing import layer_table, read_spans
    from workloads import lambda_digest, scaled

    out, lines = {}, []
    workload.twin()
    setups = []
    reps = 1 if trace else SETUP_REPS
    try:
        for _ in range(reps):
            setups.append(scaled(workload.setup)[1:])
        digest = [lambda_digest(workload.retune_lambdas)]
        base = serve_phases(workload, seconds / 2 if trace else seconds)
        runs = [base]
        if trace:
            server_spans = workdir / "server.spans.json"
            workload.setup(spans_path=server_spans)
            traced = serve_phases(workload, seconds / 2)
            runs.append(traced)
            workload.close()   # the launcher writes its spans on exit
            spans = read_spans(server_spans)
        else:
            rss = workload.server.peak_rss_mb()
    finally:
        workload.close()

    # every set-up submitted one /retune
    attempted = sum(r["attempted"] for r in runs) + reps + bool(trace)
    failed = sum(r["failed"] for r in runs)
    lines += serve_lines(base)
    if not trace:
        raw_setup, out["setup_s"] = min(setups, key=lambda t: t[1])
        raw_pass, out["work_s"] = min(base["scaled_s"], key=lambda t: t[1])
        out["peak_rss_mb"] = rss
        lines += [
            f"  work_s is the fastest of {len(base['scaled_s'])} phase-B "
            f"passes; unscaled {raw_pass:.4f} s",
            f"  setup_s is the fastest of {len(setups)} set-ups; unscaled "
            f"{raw_setup:.4f} s",
        ]
    else:
        out.update(serve_layer_metrics(spans, base, traced))
        lines += format_layer_table(
            layer_table(spans), 1, 0.0, "server process, whole run",
        )
        if spans_path:
            shutil.copyfile(server_spans, spans_path)
    return out, lines, attempted, failed, digest


def serve_phases(workload, seconds):
    """Phase A then phase-B passes; returns the measured figures.

    Phase A gets 60% of the time, enough for about 1700 open-loop
    samples in a 20-second run, so p99 has 17 samples beyond it.
    """
    from workloads import scaled

    t_end = time.perf_counter() + seconds
    a = workload.phase_a(0.6 * seconds)
    passes, bad_b, offset, svc = [], 0, 0, list(a["svc"])
    scaled_s = []
    while True:
        (elapsed, bad, times), *timings = scaled(
            lambda: workload.phase_b_pass(offset))
        offset += workload.pass_requests
        passes.append(elapsed)
        scaled_s.append(timings)
        bad_b += bad
        svc.extend(times)
        if time.perf_counter() >= t_end and len(passes) >= 2:
            break
    update_ok = workload.check_updates()
    n_pred = len(a["lat"]) + a["bad"] + offset
    return {
        "a": a, "pass_s": passes, "scaled_s": scaled_s, "bad_b": bad_b,
        "n_b": offset,
        "svc": svc, "update_ok": update_ok,
        "attempted": n_pred + len(a["upd"]) + a["upd_bad"],
        "failed": a["bad"] + bad_b + a["upd_bad"] + (not update_ok),
    }


def serve_lines(res):
    from workloads import percentile

    a = res["a"]
    good_b = res["n_b"] - res["bad_b"]
    lines = [
        f"  predict_p50_ms {percentile(a['lat'], 50) * 1e3:.4f} ms"
        f" (open loop, n={len(a['lat'])})",
        f"  predict_p99_ms {percentile(a['lat'], 99) * 1e3:.4f} ms"
        f" (open loop, n={len(a['lat'])})",
        f"  predict_rps {good_b / sum(res['pass_s']):.2f} req/s"
        f" (closed loop, 2 connections, n={res['n_b']})",
        f"  update_p50_ms {statistics.median(a['upd']) * 1e3:.4f} ms"
        f" (n={len(a['upd'])})",
        f"  loadgen.late_ms {percentile(a['late'], 99) * 1e3:.4f} ms"
        " (p99 open-loop send lateness)",
        f"  update audit matches a from-scratch audit: {res['update_ok']}",
    ]
    return lines


def serve_layer_metrics(spans, base, traced):
    from tracing import layer_table

    def durations(name):
        return [(s[4] - s[3]) / 1e6 for s in spans if s[2] == name]

    table = layer_table(spans)
    out = solve_layer_metrics(table, 1)
    submit = durations("batcher.submit")
    batches = [(s[4] - s[3]) / 1e6 for s in spans
               if s[2] == "batcher.predict"]
    sizes = [s[6]["requests"] for s in spans if s[2] == "batcher.predict"]
    # a request waits for its batch's predict: weight batches by size
    per_request_predict = ratio(
        sum(d * k for d, k in zip(batches, sizes)), sum(sizes)
    )
    # every /predict the traced server saw, as the client timed it
    client_ms = statistics.fmean(traced["svc"]) * 1e3
    mean_submit = statistics.fmean(submit) if submit else 0.0
    n_updates = len(traced["a"]["upd"])
    out.update({
        "batcher.batch_size_mean": ratio(sum(sizes), len(sizes)),
        "serving.http_ms": client_ms - mean_submit,
        "batcher.wait_ms": mean_submit - per_request_predict,
        "batcher.predict_ms": ratio(sum(batches), len(batches)),
        "incremental.update_ms": ratio(
            sum(durations("incremental.update")), n_updates),
        "incremental.audit_ms": ratio(
            sum(durations("incremental.audit")), n_updates),
        "trace.coverage": min(1.0, ratio(mean_submit, client_ms)),
        "trace.overhead": (
            statistics.median(traced["pass_s"])
            / statistics.median(base["pass_s"]) - 1.0
        ),
    })
    return out


# -- entry point --------------------------------------------------------------

def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import repro  # noqa: F401  (the program under test)
    except ImportError as exc:
        print(f"cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    frozen = load_frozen()
    pool = frozen["seed_pool"]
    cls = WORKLOADS[args.workload]
    draws = getattr(cls, "draws", None)
    input_seeds = [pool[(args.seed + i) % len(pool)]
                   for i in range(1 if args.tiny or not draws else draws)]
    seed_arg = input_seeds if draws else input_seeds[0]
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve_mix":
            workload = cls(seed_arg, args.tiny, frozen["serve_mix_rate_rps"])
            metrics, lines, attempted, failed, digests = run_serve(
                workload, args.seconds, args.trace, workdir, args.spans,
            )
            digest_runs = [digests]
        else:
            workload = cls(seed_arg, args.tiny, workdir)
            res = run_solves(workload, args.seconds, args.trace)
            metrics, lines = report_solves(res, args.trace, args.spans)
            attempted, failed = res["attempted"], res["failed"]
            digest_runs = res["digest_runs"]
            if res["failed_labels"]:
                lines.append(f"  failed solves: {res['failed_labels']}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    notes = lambda_notes(args.workload, input_seeds, digest_runs, frozen,
                         args.tiny)
    print(f"workload {args.workload}  seed {args.seed} (input seeds "
          f"{input_seeds})  trace {args.trace}")
    for line in lines:
        print(line)
    print(f"  error_rate {ratio(failed, attempted):.6f} ratio "
          f"({failed}/{attempted} operations failed)")
    for note in notes:
        print(f"  {note}")
    units = PER_LAYER if args.trace else END_TO_END
    shown = dict(units)
    if args.trace:
        shown.update(WHERE_CALLED)
    for name, unit in shown.items():
        if name in metrics:
            print(f"  {name:30s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: ``python -m repro``.

Small front door for the library — train a fair model on one of the
benchmark twins and print the evaluation, without writing any code.

Examples
--------
List the available datasets, metrics, models and search strategies::

    python -m repro list

Train fair logistic regression on COMPAS under SP ≤ 0.03::

    python -m repro train --dataset compas --metric SP --epsilon 0.03

The same constraint written in the declarative spec DSL::

    python -m repro train --dataset compas --spec "SP <= 0.03"

Equalized odds (two clauses), a specific search strategy with a solver
knob, and a saved deployable artifact::

    python -m repro train --dataset adult \
        --spec "FPR <= 0.05 and FNR <= 0.05" \
        --search hill_climb --strategy-opt tau=1e-4 \
        --save fair_model.pkl

Serve saved models over HTTP (micro-batched prediction, background
retune jobs), then load-test the running server::

    python -m repro serve --port 8000 --load prod=fair_model.pkl
    python -m repro bench-serve --port 8000 --model prod \
        --dataset adult --clients 8
"""

from __future__ import annotations

import argparse
import ast
import asyncio
import sys

from .analysis.runner import ESTIMATOR_FACTORIES
from .api import Engine, Problem
from .core.exceptions import InfeasibleConstraintError, SpecificationError
from .core.fairness_metrics import METRIC_FACTORIES
from .core.spec import FairnessSpec
from .core.strategies import available_strategies, check_option_names
from .datasets import LOADERS, available_scenarios, load, two_group_view
from .ml.adapters import external_model_names, resolve_model
from .ml.model_selection import train_val_test_split

__all__ = ["main", "build_parser", "inventory"]


def inventory():
    """Every registry the CLI exposes, enumerated in one place.

    ``repro list`` renders exactly this dict, and the ``train`` help
    strings draw from it, so the listing cannot drift between the two
    code paths.
    """
    return {
        "datasets": sorted(LOADERS),
        "scenarios": [f"scenario:{name}" for name in available_scenarios()],
        "metrics": sorted(METRIC_FACTORIES),
        "models": (
            sorted(ESTIMATOR_FACTORIES) + external_model_names()
            + ["ext:<module:Class>"]
        ),
        "strategies": ["auto"] + available_strategies(),
        "storage": [
            "in-memory (default)",
            "columnar (repro encode --out DIR; train with "
            "--columnar-dir DIR or <name>@columnar)",
        ],
    }


def _strategy_opt(text):
    """Parse one ``key=value`` pair; values go through literal_eval."""
    key, sep, value = text.partition("=")
    if not sep or not key.strip():
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {text!r}"
        )
    try:
        parsed = ast.literal_eval(value)
    except (ValueError, SyntaxError):
        parsed = value  # plain string option
    return key.strip(), parsed


def build_parser():
    known = inventory()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OmniFair reproduction — declarative group-fair training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list",
        help="list datasets, scenarios, metrics, models, strategies "
             "and storage backends",
    )

    encode = sub.add_parser(
        "encode",
        help="encode a dataset into an out-of-core columnar store "
             "(one memory-mapped .npy file per column plus a "
             "manifest); scenario families stream block-by-block and "
             "never materialize the matrix",
    )
    encode.add_argument("--dataset", required=True, metavar="NAME",
                        help="benchmark twin "
                             f"({', '.join(known['datasets'])}) or "
                             "scenario:<name> (see 'list'); scenarios "
                             "are streamed, twins are loaded then "
                             "encoded")
    encode.add_argument("--out", required=True, metavar="DIR",
                        help="store directory (created if needed)")
    encode.add_argument("--rows", type=int, default=None,
                        help="row count (default: the family/twin "
                             "default — hundred_million_row defaults "
                             "to 1e8)")
    encode.add_argument("--seed", type=int, default=0)
    encode.add_argument("--chunk-size", type=int, default=65_536,
                        metavar="ROWS",
                        help="encoder block rows (bounds encode memory; "
                             "default 65536)")

    train = sub.add_parser("train", help="train a fair model on a twin")
    train.add_argument("--dataset", required=True,
                       metavar="NAME",
                       help="benchmark twin "
                            f"({', '.join(known['datasets'])}) or a "
                            "registered scenario family as "
                            "scenario:<name> (see 'list')")
    train.add_argument("--spec", action="append", default=None,
                       metavar="DSL",
                       help="declarative spec, e.g. 'SP(race) <= 0.03' or "
                            "'FPR <= 0.05 and FNR <= 0.05'; repeatable "
                            "(clauses are conjoined); overrides "
                            "--metric/--epsilon")
    train.add_argument("--metric", default="SP",
                       choices=sorted(METRIC_FACTORIES))
    train.add_argument("--epsilon", type=float, default=0.03)
    train.add_argument("--search", default="auto",
                       choices=["auto"] + available_strategies(),
                       help="search strategy from the registry "
                            "(default: auto)")
    train.add_argument("--strategy-opt", action="append", default=None,
                       type=_strategy_opt, metavar="KEY=VALUE",
                       help="solver knob passed to the strategy config, "
                            "e.g. tau=1e-4 or grid_steps=9; repeatable")
    train.add_argument("--model", default="LR", metavar="MODEL",
                       help="in-repo short name "
                            f"({', '.join(sorted(ESTIMATOR_FACTORIES))}), "
                            "a registered external model name, or an "
                            "import path ext:module:ClassName (wrapped "
                            "in ExternalEstimatorAdapter)")
    train.add_argument("--rows", type=int, default=4000,
                       help="twin size (default 4000; ignored with "
                            "--columnar-dir — the store's rows are "
                            "the dataset)")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--columnar-dir", default=None, metavar="DIR",
                       help="open --dataset out-of-core from a columnar "
                            "store written by 'repro encode' (columns "
                            "stay memory-mapped; splits are contiguous "
                            "slices so nothing is materialized)")
    train.add_argument("--two-group", action="store_true",
                       help="restrict multi-group datasets to the classic "
                            "pair (COMPAS: African-American vs Caucasian)")
    train.add_argument("--subsample", type=float, default=None,
                       help="bounding-stage subsample fraction (§8 pruning)")
    train.add_argument("--chunk-size", type=int, default=None,
                       metavar="ROWS",
                       help="stream validation scoring over row blocks "
                            "of this size (bit-identical to in-memory "
                            "evaluation; for datasets too large for one "
                            "stacked mask product)")
    train.add_argument("--store-dir", default=None, metavar="DIR",
                       help="persistent cross-run cache directory: exact "
                            "canonical re-solves return the stored model "
                            "with 0 fits, tightened re-solves warm-start, "
                            "and individual fit artifacts are reused "
                            "across processes")
    train.add_argument("--no-store", action="store_true",
                       help="ignore --store-dir for this run (cold-solve "
                            "reference arm for benchmarks)")
    train.add_argument("--save", metavar="PATH", default=None,
                       help="save the deployable FairModel artifact")

    serve = sub.add_parser(
        "serve",
        help="serve registered FairModels over HTTP (micro-batched "
             "prediction, audits, background retune jobs)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="listening port (0 picks a free one; the "
                            "bound address is printed on startup)")
    serve.add_argument("--load", action="append", default=None,
                       metavar="NAME=PATH",
                       help="register a saved FairModel artifact under "
                            "NAME; repeatable")
    serve.add_argument("--store-dir", default=None, metavar="DIR",
                       help="persistence directory: the registry spools "
                            "evicted models here, previously spooled "
                            "models are re-registered on startup, and "
                            "retune jobs share a cross-run fit/"
                            "solution cache rooted here")
    serve.add_argument("--max-models", type=int, default=None,
                       help="resident-model bound (LRU eviction beyond it)")
    serve.add_argument("--max-batch-size", type=int, default=32,
                       help="requests coalesced per predict pass "
                            "(default 32; 1 runs every /predict on its "
                            "own pass, the benchmark's off arm)")
    serve.add_argument("--n-workers", type=int, default=1,
                       help="per-model batch workers (default 1)")
    serve.add_argument("--max-inflight", type=int, default=256,
                       help="concurrent /predict admission bound; "
                            "beyond it requests shed with 429 + "
                            "Retry-After (default 256)")
    serve.add_argument("--max-jobs", type=int, default=32,
                       help="active retune job bound; beyond it "
                            "/retune sheds with 429 (default 32)")
    serve.add_argument("--fault-plan", default=None, metavar="PATH",
                       help="install a deterministic fault-injection "
                            "plan (JSON; see docs/resilience.md) for "
                            "chaos testing — the REPRO_FAULT_PLAN env "
                            "var is the equivalent ambient switch")

    bench = sub.add_parser(
        "bench-serve",
        help="closed-loop load generator against a running server",
    )
    bench.add_argument("--host", default="127.0.0.1")
    bench.add_argument("--port", type=int, required=True)
    bench.add_argument("--model", required=True, metavar="NAME",
                       help="registered model name to target")
    bench.add_argument("--dataset", default="adult", metavar="NAME",
                       help="dataset/scenario the request rows are "
                            "drawn from (default adult)")
    bench.add_argument("--rows-n", type=int, default=2000,
                       help="row-pool size loaded from --dataset")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--clients", type=int, default=8,
                       help="concurrent closed-loop clients (default 8)")
    bench.add_argument("--requests", type=int, default=25,
                       help="requests per client (default 25)")
    bench.add_argument("--rows", type=int, default=4,
                       help="rows per request (default 4)")
    bench.add_argument("--expect", default=None, metavar="PATH",
                       help="saved FairModel to verify responses against "
                            "bit-for-bit (default: one warm-up bulk "
                            "/predict defines the expectation)")
    return parser


def _cmd_list(out):
    for label, items in inventory().items():
        out.write(f"{label + ':':<11} " + ", ".join(items) + "\n")
    return 0


def _cmd_encode(args, out):
    import pathlib
    import time

    from .datasets import encode_dataset, encode_scenario

    start = time.perf_counter()
    try:
        if args.dataset.startswith("scenario:"):
            manifest = encode_scenario(
                args.dataset[len("scenario:"):], args.out,
                n=args.rows, seed=args.seed, chunk_rows=args.chunk_size,
            )
        else:
            data = load(args.dataset, n=args.rows, seed=args.seed)
            manifest = encode_dataset(data, args.out,
                                      chunk_rows=args.chunk_size)
    except (KeyError, ValueError, OSError) as exc:
        out.write(f"SPEC ERROR: {exc.args[0] if exc.args else exc}\n")
        return 2
    elapsed = time.perf_counter() - start
    total = sum(
        p.stat().st_size for p in pathlib.Path(args.out).iterdir()
        if p.is_file()
    )
    out.write(
        f"encoded {manifest['name']} -> {args.out}\n"
        f"rows: {manifest['n_rows']}  features: {manifest['n_features']}  "
        f"columns: {len(manifest['columns'])}\n"
        f"bytes: {total}  seconds: {elapsed:.2f}\n"
        f"fingerprint: {manifest['fingerprint']}\n"
    )
    return 0


def _columnar_splits(data, train_frac=0.6, val_frac=0.2):
    """Contiguous-slice train/val/test splits for a memmap-backed dataset.

    Slices keep every column a view over the store (a permutation split
    would materialize all rows — see ``Dataset.subset``); scenario rows
    are i.i.d. across the canonical generation blocks, so contiguous
    slices are a valid split protocol for them.  Fractions mirror
    ``train_val_test_split``'s 60/20/20 default.
    """
    n = len(data)
    n_train = int(round(n * train_frac))
    n_val = int(round(n * val_frac))
    return (
        data.subset(slice(0, n_train)),
        data.subset(slice(n_train, n_train + n_val)),
        data.subset(slice(n_train + n_val, n)),
    )


def _cmd_train(args, out):
    from .datasets import ColumnarDataset, ColumnarFormatError

    try:
        data = load(args.dataset, n=args.rows, seed=args.seed,
                    columnar_dir=args.columnar_dir)
    except KeyError as exc:
        out.write(f"SPEC ERROR: {exc.args[0]}\n")
        return 2
    except ColumnarFormatError as exc:
        out.write(f"SPEC ERROR: {exc}\n")
        return 2
    if args.two_group and data.n_groups > 2:
        try:
            data = two_group_view(data)
        except (KeyError, ValueError) as exc:
            # the classic pair only exists on the COMPAS twin; scenario
            # families have their own group names
            out.write(f"SPEC ERROR: --two-group: {exc}\n")
            return 2
    if isinstance(data, ColumnarDataset):
        train, val, test = _columnar_splits(data)
    else:
        strat = data.sensitive * 2 + data.y
        tr, va, te = train_val_test_split(len(data), seed=args.seed,
                                          stratify=strat)
        train, val, test = data.subset(tr), data.subset(va), data.subset(te)

    try:
        if args.spec:
            problem = Problem(" and ".join(args.spec))
        else:
            problem = Problem(FairnessSpec(args.metric, args.epsilon))
        options = dict(args.strategy_opt or ())
        # strategy knobs only: an engine parameter (store_dir, store,
        # ...) has its own flag or is not for the command line
        check_option_names(options)
        estimator = resolve_model(args.model)
        engine = Engine(
            args.search, subsample=args.subsample,
            chunk_size=args.chunk_size,
            store_dir=(None if args.no_store else args.store_dir),
            **options,
        )
    except SpecificationError as exc:
        out.write(f"SPEC ERROR: {exc}\n")
        return 2
    except (KeyError, ImportError, TypeError, ValueError) as exc:
        out.write(f"MODEL ERROR: {exc.args[0] if exc.args else exc}\n")
        return 2

    try:
        fair_model = engine.solve(problem, estimator, train, val)
    except InfeasibleConstraintError as exc:
        out.write(f"INFEASIBLE: {exc}\n")
        return 1
    except SpecificationError as exc:
        out.write(f"SPEC ERROR: {exc}\n")
        return 2

    report = fair_model.report
    out.write(
        f"dataset={args.dataset} model={args.model} "
        f"spec=\"{problem.canonical()}\" strategy={report.strategy}\n"
    )
    out.write(
        f"lambda(s): {report.lambdas.tolist()}  model fits: {report.n_fits}\n"
    )
    paths = ", ".join(
        f"{name}={count}" for name, count in sorted(report.fit_paths.items())
    )
    out.write(
        f"caches: fit {report.fit_cache_hits}/{report.fit_cache_lookups} "
        f"hits, store {report.store_hits}/{report.store_lookups} hits "
        f"({paths})\n"
    )
    out.write(f"validation: {report.disparities}\n")
    audit = fair_model.audit(test, chunk_size=args.chunk_size)
    out.write(f"test accuracy: {audit['accuracy']:.4f}\n")
    for label, value in audit["disparities"].items():
        out.write(f"test {label}: {value:+.4f}\n")
    if args.save:
        fair_model.save(args.save)
        out.write(f"saved model to {args.save}\n")
    return 0


def _cmd_serve(args, out):
    # imported here so `repro list/train` stay asyncio-free
    from .serving import FairnessService, ModelRegistry

    try:
        if args.fault_plan:
            from .resilience import FaultPlan, install_plan

            plan = FaultPlan.from_file(args.fault_plan)
            install_plan(plan)
            out.write(
                f"fault plan installed from {args.fault_plan} "
                f"(seed={plan.seed}, {len(plan.rules)} rule(s))\n"
            )
        registry = ModelRegistry(
            store_dir=args.store_dir, max_models=args.max_models,
        )
        for pair in args.load or []:
            name, sep, path = pair.partition("=")
            if not sep or not name.strip() or not path.strip():
                raise SpecificationError(
                    f"--load expects NAME=PATH, got {pair!r}"
                )
            registry.load(name.strip(), path.strip())
        service = FairnessService(
            registry=registry,
            max_batch_size=args.max_batch_size,
            n_workers=args.n_workers,
            store_dir=args.store_dir,
            max_inflight=args.max_inflight,
            max_jobs=args.max_jobs,
        )
    except (SpecificationError, OSError, ValueError) as exc:
        out.write(f"SPEC ERROR: {exc}\n")
        return 2

    async def run():
        port = await service.start(args.host, args.port)
        batching = "on" if service.max_batch_size > 1 else "off"
        out.write(
            f"serving on {service.host}:{port} "
            f"({len(registry)} model(s), batching {batching})\n"
        )
        out.flush()
        await service.serve_until_stopped()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        out.write("shutting down\n")
    return 0


def _cmd_bench_serve(args, out):
    from .api import FairModel
    from .serving import ServingClient, ServingError, run_load

    try:
        data = load(args.dataset, n=args.rows_n, seed=args.seed)
    except KeyError as exc:
        out.write(f"SPEC ERROR: {exc.args[0]}\n")
        return 2
    with ServingClient(args.host, args.port) as client:
        try:
            client.healthz()
            if args.expect:
                expected = FairModel.load(args.expect).predict(data.X)
            else:
                # one warm-up bulk predict defines the expectation: every
                # coalesced per-request answer must match it bit-for-bit
                expected = client.predict(args.model, data.X)
        except (ServingError, OSError, ValueError,
                SpecificationError) as exc:
            out.write(f"SERVE ERROR: {exc}\n")
            return 2
    report = run_load(
        args.host, args.port, args.model, data.X, expected,
        n_clients=args.clients, requests_per_client=args.requests,
        rows_per_request=args.rows,
    )
    for key, value in report.to_dict().items():
        out.write(f"{key}: {value}\n")
    return 0 if report.predictions_ok else 1


def main(argv=None, out=None):
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(out)
    if args.command == "encode":
        return _cmd_encode(args, out)
    if args.command == "train":
        return _cmd_train(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "bench-serve":
        return _cmd_bench_serve(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

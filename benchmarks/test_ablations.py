"""Ablation benchmarks for the design choices called out in DESIGN.md §5.

1. negative-weight handling: exact label-flip identity vs lossy clipping;
2. λ search: monotonicity-guided binary search vs plain grid;
3. hill-climbing dimension order: most-violated-first vs round-robin.
"""

from __future__ import annotations

from _common import bench_splits, emit, load_bench_dataset, run_once

from repro import Engine, FairnessSpec, SearchStrategy, fit_fair
from repro.analysis import format_table
from repro.core import run_plan
from repro.core.exceptions import InfeasibleConstraintError
from repro.core.fitter import WeightedFitter
from repro.core.spec import bind_specs
from repro.core.strategies import HillClimbConfig, _plan_hill_climb
from repro.datasets import two_group_view
from repro.ml import LogisticRegression

EPSILON = 0.05


class RoundRobinHillClimb(SearchStrategy):
    """Algorithm 2 tuning the violated dimensions in turn.

    The naive alternative to the paper's most-violated-first order
    (line 4), kept only for this ablation: unregistered, so no engine
    or config exposes it.
    """

    name = "round_robin_hill_climb"
    config_cls = HillClimbConfig

    def plan(self, ctx, config):
        return _plan_hill_climb(ctx, config, dimension_order="round_robin")


def _run_negative_weights():
    data = two_group_view(load_bench_dataset("compas"))
    train, val, test = bench_splits(data)
    out = {}
    for strategy in ("flip", "clip"):
        fm = fit_fair(
            LogisticRegression(max_iter=150), FairnessSpec("SP", EPSILON),
            train, val, negative_weights=strategy,
        )
        rep = fm.audit(test)
        out[strategy] = (
            rep["accuracy"],
            max(abs(v) for v in rep["disparities"].values()),
            fm.report.n_fits,
        )
    return out


def test_ablation_negative_weights(benchmark):
    out = run_once(_run_negative_weights, benchmark)
    emit(
        "ablation_negative_weights",
        format_table(
            ["strategy", "test acc", "test |SP|", "fits"],
            [
                [s, f"{a:.3f}", f"{d:.3f}", str(n)]
                for s, (a, d, n) in out.items()
            ],
            title="Ablation — negative-weight handling (flip vs clip)",
        ),
    )
    # both strategies must produce working models; flip (exact) should not
    # be worse than clip (lossy) by more than noise
    assert out["flip"][0] >= out["clip"][0] - 0.05


def _run_lambda_search():
    data = two_group_view(load_bench_dataset("compas"))
    train, val, test = bench_splits(data)
    out = {}
    for strategy, options in (
        ("binary_search", {}), ("grid", {"grid_max": 1.0, "grid_steps": 30}),
    ):
        fm = fit_fair(
            LogisticRegression(max_iter=150), FairnessSpec("SP", EPSILON),
            train, val, strategy=strategy, **options,
        )
        out[strategy] = (fm.audit(test)["accuracy"], fm.report.n_fits)
    return out


def test_ablation_lambda_search(benchmark):
    out = run_once(_run_lambda_search, benchmark)
    emit(
        "ablation_lambda_search",
        format_table(
            ["search", "test acc", "fits"],
            [[s, f"{a:.3f}", str(n)] for s, (a, n) in out.items()],
            title="Ablation — lambda search strategy",
        ),
    )
    # the monotonicity-guided search needs far fewer fits at similar quality
    assert out["binary_search"][1] < out["grid"][1]
    assert out["binary_search"][0] >= out["grid"][0] - 0.05


def _run_dimension_order():
    data = load_bench_dataset("compas")
    train, val, _ = bench_splits(data)
    specs = [FairnessSpec("SP", 0.08)]

    def most_violated():
        report = Engine("hill_climb").solve(
            specs, LogisticRegression(max_iter=150), train, val,
        ).report
        return report.n_fits, report.n_rounds

    def round_robin():
        fitter = WeightedFitter(
            LogisticRegression(max_iter=150), train.X, train.y,
            bind_specs(specs, train),
        )
        result = run_plan(
            RoundRobinHillClimb(), fitter, bind_specs(specs, val),
            val.X, val.y, HillClimbConfig(),
        )
        return fitter.n_fits, result.n_rounds

    out = {}
    for order, solve in (
        ("most_violated", most_violated), ("round_robin", round_robin),
    ):
        try:
            out[order] = (True, *solve())
        except InfeasibleConstraintError:
            out[order] = (False, None, None)
    return out


def test_ablation_hill_climbing_order(benchmark):
    out = run_once(_run_dimension_order, benchmark)
    emit(
        "ablation_hill_climbing",
        format_table(
            ["order", "feasible", "fits", "rounds"],
            [
                [o, str(f), str(n), str(r)]
                for o, (f, n, r) in out.items()
            ],
            title="Ablation — hill-climbing dimension order (3-group SP)",
        ),
    )
    assert out["most_violated"][0], "most-violated-first must find a solution"
    if out["round_robin"][0]:
        # when both succeed, most-violated-first should not need more rounds
        assert out["most_violated"][2] <= out["round_robin"][2] + 2

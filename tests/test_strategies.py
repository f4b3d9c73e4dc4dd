"""Tests for the search-strategy registry and the new solvers."""

import numpy as np
import pytest

from repro import SpecificationError
from repro.api import Engine
from repro.core.planner import CandidateBatch, TuneResult
from repro.core.strategies import (
    BinarySearchConfig,
    GridConfig,
    SearchStrategy,
    available_strategies,
    get_strategy,
    register_strategy,
    resolve_strategy_name,
    unregister_strategy,
)
from repro.ml import LogisticRegression


class TestRegistry:
    def test_builtins_registered(self):
        names = available_strategies()
        for expected in ("binary_search", "linear", "grid", "hill_climb",
                         "cmaes"):
            assert expected in names

    def test_get_unknown_raises(self):
        with pytest.raises(SpecificationError, match="unknown search"):
            get_strategy("nope")

    def test_auto_resolution(self):
        assert resolve_strategy_name("auto", 1) == "binary_search"
        assert resolve_strategy_name("auto", 3) == "hill_climb"
        assert resolve_strategy_name("grid", 3) == "grid"

    def test_register_rejects_bad_classes(self):
        with pytest.raises(SpecificationError):
            register_strategy(object)

        class NoName(SearchStrategy):
            name = None

        with pytest.raises(SpecificationError, match="name"):
            register_strategy(NoName)

        class Reserved(SearchStrategy):
            name = "auto"

        with pytest.raises(SpecificationError, match="reserved"):
            register_strategy(Reserved)

    def test_register_refuses_strategy_without_plan(self):
        """A legacy ``solve()`` override would never run: refused."""

        class LegacyOnly(SearchStrategy):
            name = "legacy_only_tmp"

            def solve(self, fitter, val_constraints, X_val, y_val,
                      config):
                raise AssertionError("unreachable")

        with pytest.raises(SpecificationError, match=r"plan\(\)"):
            register_strategy(LegacyOnly)
        assert "legacy_only_tmp" not in available_strategies()

    def test_third_party_registration_end_to_end(self, two_group_splits):
        """A custom strategy plugs in and is dispatched by the engine."""
        train, val, _ = two_group_splits

        @register_strategy
        class FixedLambda(SearchStrategy):
            name = "fixed_lambda"
            config_cls = BinarySearchConfig

            def plan(self, ctx, config):
                (r0,) = yield CandidateBatch([[0.0]], record=False)
                (r,) = yield CandidateBatch([[0.3]], prev_model=r0.model)
                return TuneResult(r.model, r.lam, feasible=True,
                                  history=ctx.history)

        try:
            fm = Engine("fixed_lambda").solve(
                "SP <= 0.5", LogisticRegression(max_iter=150), train, val,
            )
            assert fm.lambdas.tolist() == [0.3]
            assert fm.report.strategy == "fixed_lambda"
            assert fm.report.n_fits == 2
            assert len(fm.report.history) == 1
        finally:
            unregister_strategy("fixed_lambda")
        with pytest.raises(SpecificationError):
            Engine("fixed_lambda")


class TestConfigs:
    def test_strict_rejects_unknown_options(self):
        with pytest.raises(SpecificationError, match="unknown option"):
            GridConfig.build({"grid_steps": 3, "typo": 1})

    def test_engine_validates_options_eagerly(self):
        with pytest.raises(SpecificationError, match="unknown option"):
            Engine("grid", typo=1)

    def test_engine_rejects_unknown_strategy(self):
        with pytest.raises(SpecificationError, match="unknown search"):
            Engine("nope")

    def test_run_omnifair_rejects_typoed_kwargs(self, two_group_data):
        from repro.analysis.runner import run_omnifair
        from repro.ml import LogisticRegression

        with pytest.raises(SpecificationError, match="no registered"):
            run_omnifair(
                two_group_data, LogisticRegression(max_iter=100),
                epsilon=0.1, n_splits=1, grid_stepz=20,
            )


class TestSolvers:
    def test_linear_solves_single_constraint(self, two_group_splits):
        train, val, _ = two_group_splits
        fm = Engine("linear", step=0.1).solve(
            "SP <= 0.05", LogisticRegression(max_iter=150), train, val,
        )
        assert fm.report.feasible
        assert fm.report.strategy == "linear"
        assert abs(
            list(fm.report.disparities.values())[0]
        ) <= 0.05 + 1e-9

    def test_linear_rejects_multi_constraint(self, three_group_splits):
        train, val, _ = three_group_splits
        with pytest.raises(SpecificationError, match="exactly one"):
            Engine("linear").solve(
                "SP <= 0.06", LogisticRegression(max_iter=150), train, val,
            )

    def test_binary_search_rejects_multi_constraint(self, three_group_splits):
        train, val, _ = three_group_splits
        with pytest.raises(SpecificationError, match="exactly one"):
            Engine("binary_search").solve(
                "SP <= 0.06", LogisticRegression(max_iter=150), train, val,
            )

    def test_cmaes_solves_single_constraint(self, two_group_splits):
        train, val, _ = two_group_splits
        fm = Engine("cmaes", max_evals=40, seed=0).solve(
            "SP <= 0.05", LogisticRegression(max_iter=150), train, val,
        )
        assert fm.report.feasible
        assert fm.report.n_fits == len(fm.report.history)

    def test_cmaes_solves_multi_constraint(self, three_group_splits):
        train, val, _ = three_group_splits
        fm = Engine("cmaes", max_evals=80, seed=1).solve(
            "SP <= 0.08", LogisticRegression(max_iter=150), train, val,
        )
        assert fm.report.lambdas.shape == (3,)
        assert fm.report.feasible

    def test_hill_climb_single_reduces_to_algorithm1(self, two_group_splits):
        train, val, _ = two_group_splits
        fm = Engine("hill_climb").solve(
            "SP <= 0.05", LogisticRegression(max_iter=150), train, val,
        )
        assert fm.report.feasible
        assert fm.report.n_rounds == 0  # single-λ path

    def test_hill_climb_warm_lambdas_seed_the_start(self, three_group_splits):
        train, val, _ = three_group_splits
        cold = Engine("hill_climb").solve(
            "SP <= 0.08", LogisticRegression(max_iter=150), train, val,
        )
        warm = Engine("hill_climb").solve(
            "SP <= 0.08", LogisticRegression(max_iter=150), train, val,
            warm=(cold.report.lambdas, cold.report.swapped),
        )
        # the climb starts at the previous optimum rather than zero ...
        assert np.array_equal(
            warm.report.history[0].lam, cold.report.lambdas
        )
        assert np.asarray(cold.report.history[0].lam).tolist() == [0.0, 0.0, 0.0]
        # ... and converging from the optimum costs no more fits
        assert warm.report.feasible
        assert warm.report.n_fits <= cold.report.n_fits

    @pytest.mark.parametrize("seed", [
        ((0.1, 0.2), False),                   # wrong shape for k=3
        ((0.1, float("nan"), 0.2), False),     # non-finite entry
        (((0.1, 0.2, 0.3), (0.1, 0.2, 0.3)), False),  # wrong rank
        (("a", "b", "c"), False),              # not numbers
        (0.1, 0.2, 0.3),                       # not a (lambdas, swapped) pair
        0.5,
    ])
    def test_hill_climb_malformed_warm_seed_falls_back_cold(
        self, three_group_splits, seed,
    ):
        train, val, _ = three_group_splits
        cold = Engine("hill_climb").solve(
            "SP <= 0.08", LogisticRegression(max_iter=150), train, val,
        )
        fm = Engine("hill_climb").solve(
            "SP <= 0.08", LogisticRegression(max_iter=150), train, val,
            warm=seed,
        )
        # warmth is an optimization, never a correctness dependency: a
        # bad seed silently reproduces the cold trajectory
        assert fm.report.lambdas.tolist() == cold.report.lambdas.tolist()
        assert fm.report.n_fits == cold.report.n_fits
        assert np.asarray(fm.report.history[0].lam).tolist() == [0.0, 0.0, 0.0]

    def test_hill_climb_ignores_warm_seed_on_for(self, three_group_splits):
        # a FOR fit at a nonzero Λ chains through a model's predictions,
        # and the first fit has none to chain from: the climb starts
        # cold instead of failing (FDR is feasible at Λ = 0 here)
        train, val, _ = three_group_splits
        cold = Engine("hill_climb").solve(
            "FOR <= 0.08", LogisticRegression(max_iter=150), train, val,
        )
        assert cold.report.lambdas.tolist() == [0.0, -0.1, 0.0]
        fm = Engine("hill_climb").solve(
            "FOR <= 0.08", LogisticRegression(max_iter=150), train, val,
            warm=(cold.report.lambdas, False),
        )
        assert fm.report.lambdas.tolist() == cold.report.lambdas.tolist()
        assert fm.report.n_fits == cold.report.n_fits == 3
        assert np.asarray(fm.report.history[0].lam).tolist() == [0.0, 0.0, 0.0]


class TestSearchWidths:
    """A zero or NaN width would hang the bisection or skip it."""

    @pytest.mark.parametrize("strategy", ["binary_search", "hill_climb"])
    @pytest.mark.parametrize("field,value", [
        ("tau", 0), ("tau", -1e-3), ("tau", float("nan")),
        ("tau", float("inf")), ("tau", "1e-3"),
        ("delta", 0), ("delta", -0.01), ("delta", float("nan")),
    ])
    def test_engine_refuses_bad_width(self, strategy, field, value):
        with pytest.raises(SpecificationError, match=field):
            Engine(strategy, **{field: value})

    def test_auto_refuses_bad_width_at_solve(self, two_group_splits):
        # "auto" builds its config once the constraint count is known
        train, val, _ = two_group_splits
        engine = Engine("auto", tau=0)
        with pytest.raises(SpecificationError, match="tau"):
            engine.solve(
                "SP <= 0.05", LogisticRegression(max_iter=150), train, val,
            )


class TestKnobChecks:
    """Every other knob is refused by name when the Engine is built.

    An infinite or NaN grid or step puts inf/NaN into the weights (a
    wrong model reported feasible), a zero count raises deep inside a
    kernel or divides by zero, and a bad race component list fails
    only at solve time.
    """

    @pytest.mark.parametrize("strategy,field,value", [
        ("grid", "grid_max", float("inf")),
        ("grid", "grid_max", float("nan")),
        ("grid", "grid_max", 0.0),
        ("grid", "grid_steps", 0),
        ("grid", "grid_steps", 2.5),
        ("linear", "step", -0.05),
        ("linear", "step", float("inf")),
        ("linear", "max_steps", 0),
        ("binary_search", "lambda_max", float("inf")),
        ("binary_search", "max_linear_steps", 0),
        ("hill_climb", "initial_step", 0.0),
        ("hill_climb", "lambda_max", -1.0),
        ("hill_climb", "max_rounds", 0),
        ("hill_climb", "max_rounds", "5"),
        ("cmaes", "sigma0", float("nan")),
        ("cmaes", "max_evals", 0),
        ("cmaes", "popsize", 1),
        ("cmaes", "popsize", 4.0),
        ("cmaes", "penalty", -1.0),
        ("cmaes", "penalty", float("inf")),
        ("race", "interleave", True),
        ("race", "strategies", "grid"),
        ("race", "strategies", ("grid", "nope")),
        ("race", "strategies", [["grid"]]),
    ])
    def test_engine_refuses_bad_knob(self, strategy, field, value):
        with pytest.raises(SpecificationError, match=f"{field} must be"):
            Engine(strategy, **{field: value})

    def test_boundary_values_pass(self):
        Engine("cmaes", penalty=0.0, popsize=2, max_evals=1)
        Engine("hill_climb", max_rounds=None)
        Engine("grid", grid_steps=np.int64(1), grid_max=1e-9)
        Engine("race", strategies=["grid", "linear"], interleave=2)

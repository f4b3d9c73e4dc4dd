"""Ask/tell conformance suite: protocol invariants for every strategy.

Two layers of checks:

* **Plan protocol** — every registered strategy that implements
  ``plan()`` must yield well-formed :class:`CandidateBatch` objects
  (2-D float64 λ matrix with the bound constraint count as trailing
  dimension, valid kind, string purpose) and must produce the same
  result through ``run()`` as through the legacy ``solve()`` surface.
* **Executor contract** — stop predicates end a ``"fit"`` batch at the
  triggering candidate (nothing past it is reported or even fitted),
  chained batches thread ``prev_model`` candidate to candidate, and
  population batches report every candidate in order.
"""

import numpy as np
import pytest

from repro.core.dsl import parse_spec
from repro.core.executor import ExecutionBackend
from repro.core.fitter import WeightedFitter
from repro.core.planner import CandidateBatch, EvalResult, PlanContext
from repro.core.spec import bind_specs
from repro.core.strategies import (
    SearchStrategy,
    available_strategies,
    get_strategy,
)
from repro.ml import GaussianNaiveBayes


def _make_fitter(splits, spec="SP <= 0.05", **kwargs):
    train, val, _ = splits
    tc = bind_specs(parse_spec(spec), train)
    vc = bind_specs(parse_spec(spec), val)
    fitter = WeightedFitter(
        GaussianNaiveBayes(), train.X, train.y, tc, **kwargs
    )
    return fitter, vc, val


def _record_batches(monkeypatch):
    """Audit every batch the executor runs; returns the batch log."""
    batches = []
    run = ExecutionBackend.run

    def recording_run(self, batch, ctx):
        assert isinstance(batch, CandidateBatch)
        assert batch.lambdas.ndim == 2
        assert batch.lambdas.dtype == np.float64
        assert batch.lambdas.shape[0] >= 1
        assert batch.lambdas.shape[1] == ctx.k
        assert batch.kind in ("fit", "population")
        assert isinstance(batch.purpose, str)
        results = run(self, batch, ctx)
        assert 1 <= len(results) <= len(batch)
        for i, res in enumerate(results):
            assert isinstance(res, EvalResult)
            assert res.lam.shape == (ctx.k,)
            assert res.disparities.shape == (ctx.k,)
            np.testing.assert_array_equal(res.lam, batch.lambdas[i])
            assert res.wall_time_s is not None and res.wall_time_s >= 0
            assert res.batch_id == ctx.next_batch_id
        if batch.stop is not None:
            # nothing may be reported past the stop-triggering candidate
            for res in results[:-1]:
                assert not batch.stop(res)
        batches.append(batch)
        return results

    monkeypatch.setattr(ExecutionBackend, "run", recording_run)
    return batches


PLANNED = [
    name for name in available_strategies()
    if type(get_strategy(name)).plan is not SearchStrategy.plan
]


class TestPlanProtocol:
    def test_every_builtin_is_planner_capable(self):
        for expected in ("binary_search", "linear", "grid", "hill_climb",
                         "cmaes"):
            assert expected in PLANNED

    @pytest.mark.parametrize("name", PLANNED)
    def test_plan_yields_wellformed_batches(self, name, two_group_splits,
                                            monkeypatch):
        strategy = get_strategy(name)
        config = strategy.make_config({})
        fitter, vc, val = _make_fitter(two_group_splits, "SP <= 0.1")
        batches = _record_batches(monkeypatch)
        result = strategy.run(fitter, vc, val.X, val.y, config)
        assert batches, "strategy never asked for candidates"
        assert result.feasible
        assert len(result.history) >= 1

    @pytest.mark.parametrize("name", PLANNED)
    def test_run_matches_solve(self, name, two_group_splits):
        strategy = get_strategy(name)
        config = strategy.make_config({})
        f1, vc1, val = _make_fitter(two_group_splits, "SP <= 0.1")
        via_run = strategy.run(f1, vc1, val.X, val.y, config)
        f2, vc2, val = _make_fitter(two_group_splits, "SP <= 0.1")
        via_solve = get_strategy(name).solve(f2, vc2, val.X, val.y, config)
        lam1 = np.atleast_1d(getattr(via_run, "lam", None)
                             if hasattr(via_run, "lam")
                             else via_run.lambdas)
        lam2 = np.atleast_1d(getattr(via_solve, "lam", None)
                             if hasattr(via_solve, "lam")
                             else via_solve.lambdas)
        np.testing.assert_array_equal(lam1, lam2)


class TestExecutorContract:
    def test_stop_predicate_honored(self, two_group_splits):
        fitter, vc, val = _make_fitter(two_group_splits)
        ctx = PlanContext(fitter, vc, val.X, val.y)
        grid = np.linspace(0.05, 0.45, 5)[:, None]
        batch = CandidateBatch(
            grid, purpose="ladder",
            stop=lambda res: res.index >= 2,
        )
        results = ExecutionBackend().run(batch, ctx)
        assert len(results) == 3
        assert [res.index for res in results] == [0, 1, 2]
        # stop also bounds history: one record per reported candidate
        assert len(ctx.history) == 3

    def test_serial_stop_bounds_fits(self, two_group_splits):
        fitter, vc, val = _make_fitter(two_group_splits)
        ctx = PlanContext(fitter, vc, val.X, val.y)
        batch = CandidateBatch(
            np.linspace(0.05, 0.45, 5)[:, None],
            stop=lambda res: res.index >= 2,
        )
        ExecutionBackend().run(batch, ctx)
        assert fitter.n_fits == 3  # candidates past the stop never fit

    def test_population_reports_all(self, two_group_splits):
        fitter, vc, val = _make_fitter(two_group_splits)
        ctx = PlanContext(fitter, vc, val.X, val.y)
        grid = np.linspace(-0.3, 0.3, 7)[:, None]
        results = ExecutionBackend().run(
            CandidateBatch(grid, kind="population"), ctx,
        )
        assert len(results) == 7
        np.testing.assert_array_equal(
            np.concatenate([res.lam for res in results]), grid[:, 0],
        )

    def test_chained_batch_threads_prev_model(self, two_group_splits):
        calls = []
        fitter, vc, val = _make_fitter(two_group_splits)
        original = fitter.fit

        def spy(lambdas, prev_model=None, use_subsample=False):
            model = original(lambdas, prev_model=prev_model,
                             use_subsample=use_subsample)
            calls.append((prev_model, model))
            return model

        fitter.fit = spy
        ctx = PlanContext(fitter, vc, val.X, val.y)
        seed_model = original(np.zeros(1))
        calls.clear()
        ExecutionBackend().run(
            CandidateBatch([[0.1], [0.2], [0.3]], chain=True,
                           prev_model=seed_model),
            ctx,
        )
        assert calls[0][0] is seed_model
        assert calls[1][0] is calls[0][1]
        assert calls[2][0] is calls[1][1]

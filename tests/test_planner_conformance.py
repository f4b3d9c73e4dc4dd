"""Ask/tell conformance suite: protocol invariants for every strategy.

Two layers of checks:

* **Plan protocol** — every registered strategy (the registry refuses
  one without ``plan()``) driven by :func:`run_plan` must yield
  well-formed :class:`CandidateBatch` objects (2-D float64 λ matrix
  with the bound constraint count as trailing dimension, valid kind)
  and return a feasible :class:`TuneResult`.
* **Executor contract** — stop predicates end a ``"fit"`` batch at the
  triggering candidate (nothing past it is reported or even fitted),
  chained batches thread ``prev_model`` candidate to candidate,
  population batches report every candidate in order, and a population
  whose weights need predictions (FOR/FDR) runs as a chain.
* **Lazy scoring** — a ``"fit"`` candidate is scored only when its
  score is read (a recorded batch and a stop predicate read it at once),
  in the orientation of its fit, and its wall time includes the score.
"""

import numpy as np
import pytest

from repro.api import Engine
from repro.core.dsl import parse_spec
from repro.core.executor import ExecutionBackend
from repro.core.fitter import WeightedFitter
from repro.core.kernels import CompiledEvaluator
from repro.core.planner import (
    CandidateBatch,
    EvalResult,
    PlanContext,
    TuneResult,
    run_plan,
)
from repro.core.spec import bind_specs
from repro.core.strategies import available_strategies, get_strategy
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


PLANNED = available_strategies()


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
        result = run_plan(strategy, fitter, vc, val.X, val.y, config)
        assert batches, "strategy never asked for candidates"
        assert isinstance(result, TuneResult)
        assert result.feasible
        assert result.lambdas.shape == (1,)
        assert result.lambdas.dtype == np.float64
        assert len(result.history) >= 1

    def test_candidate_batch_takes_no_purpose_tag(self):
        with pytest.raises(TypeError, match="purpose"):
            CandidateBatch([[0.0]], purpose="init")

    def test_only_the_searches_that_read_a_warm_seed_say_so(self):
        readers = {n for n in PLANNED if get_strategy(n).reads_warm}
        assert readers == {"binary_search", "hill_climb"}

    @pytest.mark.parametrize("warm,kept", [
        (([0.25], 1), ([0.25], True)),
        ((np.array([-0.5]), False), ([-0.5], False)),
        (None, None),
        (([0.1, 0.2], True), None),           # k = 1 wants one number
        (([float("inf")], True), None),
        (([float("nan")], False), None),
        ((["x"], True), None),
        (0.25, None),                          # not a (lambdas, swapped) pair
        (([0.25], True, 0), None),
    ])
    def test_plan_context_keeps_only_a_well_formed_seed(
        self, two_group_splits, warm, kept,
    ):
        fitter, vc, val = _make_fitter(two_group_splits)
        ctx = PlanContext(fitter, vc, val.X, val.y, warm=warm)
        if kept is None:
            assert ctx.warm is None
        else:
            lambdas, swapped = ctx.warm
            assert lambdas.dtype == np.float64
            assert lambdas.tolist() == kept[0]
            assert swapped is kept[1]


class TestExecutorContract:
    def test_stop_predicate_honored(self, two_group_splits):
        fitter, vc, val = _make_fitter(two_group_splits)
        ctx = PlanContext(fitter, vc, val.X, val.y)
        grid = np.linspace(0.05, 0.45, 5)[:, None]
        batch = CandidateBatch(grid, stop=lambda res: res.index >= 2)
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

    @pytest.mark.parametrize("kind", ["fit", "population"])
    def test_swapped_context_fits_the_negated_lambda(self, kind,
                                                     two_group_splits):
        """Algorithm 1's swap is a sign: a swapped context fits the
        declared constraint at −λ and reports the negated disparity."""
        fitter, vc, val = _make_fitter(two_group_splits)
        declared = fitter.constraints[0]
        plain = PlanContext(fitter, vc, val.X, val.y)
        swapped = PlanContext(fitter, vc, val.X, val.y)
        swapped.swap_constraint(0)
        grid = np.array([[0.2], [-0.1]])
        want = ExecutionBackend().run(CandidateBatch(-grid, kind=kind), plain)
        got = ExecutionBackend().run(CandidateBatch(grid, kind=kind), swapped)
        rewritten = CompiledEvaluator([vc[0].swapped()], val.y)
        for w, g in zip(want, got):
            np.testing.assert_array_equal(g.lam, -w.lam)
            np.testing.assert_array_equal(g.disparities, -w.disparities)
            assert g.accuracy == w.accuracy
            # bit for bit what a rewritten (swapped) binding reports
            d, _ = rewritten.score_models_batch([g.model], val.X)
            assert g.disparities.tobytes() == d[0].tobytes()
        # one fitter: the swapped context's candidates hit the plain
        # context's fits
        assert fitter.fit_cache_hits == len(grid)
        assert len(plain.history) == len(swapped.history) == len(grid)
        # no constraint list was rewritten
        assert fitter.constraints[0] is declared
        assert swapped.val_constraints[0] is vc[0]

    def test_chained_batch_threads_prev_model(self, two_group_splits):
        calls = []
        fitter, vc, val = _make_fitter(two_group_splits)
        original = fitter.fit

        def spy(lambdas, prev_model=None):
            model = original(lambdas, prev_model=prev_model)
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

    def test_fdr_population_runs_as_a_chain(self, two_group_splits):
        """FDR weights need predictions, so a population chains from
        ``prev_model`` exactly as the same rows asked as a chained
        ``"fit"`` batch do; no batch fit runs."""
        rows = np.array([[0.05], [-0.1], [0.2]])
        seed_fitter, _, val = _make_fitter(two_group_splits, "FDR <= 0.05")
        model0 = seed_fitter.fit(np.zeros(1))
        got = {}
        for kind in ("population", "fit"):
            fitter, vc, _ = _make_fitter(two_group_splits, "FDR <= 0.05")
            ctx = PlanContext(fitter, vc, val.X, val.y)
            got[kind] = ExecutionBackend().run(
                CandidateBatch(rows, kind=kind, prev_model=model0,
                               chain=True),
                ctx,
            )
            assert not {"batch_protocol", "serial"} & set(fitter.fit_paths)
            assert len(ctx.history) == len(rows)
        for pop, fit in zip(got["population"], got["fit"]):
            assert pop.lam.tobytes() == fit.lam.tobytes()
            assert pop.disparities.tobytes() == fit.disparities.tobytes()
            assert pop.accuracy == fit.accuracy
            np.testing.assert_array_equal(
                pop.model.predict(val.X), fit.model.predict(val.X),
            )

    def test_constant_metric_population_takes_one_batch_fit(
        self, two_group_splits,
    ):
        fitter, vc, val = _make_fitter(two_group_splits)
        ctx = PlanContext(fitter, vc, val.X, val.y)
        model0 = fitter.fit(np.zeros(1))
        ExecutionBackend().run(
            CandidateBatch([[0.05], [-0.1], [0.2]], kind="population",
                           prev_model=model0, chain=True),
            ctx,
        )
        # GaussianNaiveBayes implements the batch protocol
        assert fitter.fit_paths == {"single": 1, "batch_protocol": 3}


def _count_scoring(monkeypatch):
    """Count ``CompiledEvaluator.score_models_batch`` calls."""
    calls = []
    score = CompiledEvaluator.score_models_batch

    def counting(self, models, X):
        calls.append(len(models))
        return score(self, models, X)

    monkeypatch.setattr(CompiledEvaluator, "score_models_batch", counting)
    return calls


class _ToyStrategy:
    name = "toy"

    def __init__(self, plan):
        self.plan = plan


class TestLazyScoring:
    def _grid_solve(self, splits):
        train, val, _ = splits
        return Engine("grid", grid_steps=5, grid_max=0.5).solve(
            "SP <= 0.1", GaussianNaiveBayes(), train, val,
        ).report

    def test_grid_scores_population_and_audit_only(self, two_group_splits,
                                                   monkeypatch):
        calls = _count_scoring(monkeypatch)
        lazy = self._grid_solve(two_group_splits)
        # one population pass and the final audit: the Λ = 0 init fit is
        # read only for its model (before 11.1.0 it was scored too)
        population = len(lazy.history)
        assert population > 1
        assert calls == [population, 1]

        # the same solve with every candidate scored as soon as it fits
        run = ExecutionBackend.run

        def eager_run(self, batch, ctx):
            results = run(self, batch, ctx)
            for res in results:
                res.accuracy
            return results

        monkeypatch.setattr(ExecutionBackend, "run", eager_run)
        calls.clear()
        eager = self._grid_solve(two_group_splits)
        assert calls == [1, population, 1]
        assert lazy.lambdas.tobytes() == eager.lambdas.tobytes()
        assert lazy.lambdas[0] != 0.0
        assert lazy.fit_paths == eager.fit_paths
        assert len(eager.history) == population
        for a, b in zip(lazy.history, eager.history):
            assert (a.lam, a.disparity, a.accuracy, a.batch_id) == (
                b.lam, b.disparity, b.accuracy, b.batch_id)

    def test_deferred_score_keeps_the_fit_orientation(self, two_group_splits,
                                                      monkeypatch):
        fitter, vc, val = _make_fitter(two_group_splits)
        calls = _count_scoring(monkeypatch)
        seen = {}

        def plan(ctx, config):
            (res,) = yield CandidateBatch([[0.2]], record=False)
            seen["before_read"] = len(calls)
            ctx.swap_constraint(0)
            seen["result"] = res
            seen["disparities"] = res.disparities.copy()
            return TuneResult(res.model, res.lam, feasible=True)

        run_plan(_ToyStrategy(plan), fitter, vc, val.X, val.y, None)
        res = seen["result"]
        assert seen["before_read"] == 0
        assert calls == [1]
        d, a = CompiledEvaluator(vc, val.y).score_models_batch(
            [res.model], val.X)
        assert seen["disparities"].tobytes() == d[0].tobytes()
        assert res.accuracy == float(a[0])
        assert res.wall_time_s > 0

    def test_scoring_error_surfaces_at_the_read(self, two_group_splits,
                                                monkeypatch):
        fitter, vc, val = _make_fitter(two_group_splits)

        def broken(self, models, X):
            raise ZeroDivisionError("scoring failed")

        monkeypatch.setattr(CompiledEvaluator, "score_models_batch", broken)

        def plan(ctx, config):
            (res,) = yield CandidateBatch([[0.2]], record=False)
            res.fp
            return TuneResult(res.model, res.lam, feasible=True)

        with pytest.raises(ZeroDivisionError, match="scoring failed"):
            run_plan(_ToyStrategy(plan), fitter, vc, val.X, val.y, None)

    @pytest.mark.parametrize("record", [True, False])
    def test_recorded_and_stopped_batches_time_their_scores(
        self, record, two_group_splits, monkeypatch,
    ):
        fitter, vc, val = _make_fitter(two_group_splits)
        ctx = PlanContext(fitter, vc, val.X, val.y)
        calls = _count_scoring(monkeypatch)
        grid = np.linspace(0.05, 0.45, 5)[:, None]
        ExecutionBackend().run(CandidateBatch(grid[:2]), ctx)
        assert calls == [1, 1]
        assert [p.wall_time_s > 0 for p in ctx.history] == [True, True]
        results = ExecutionBackend().run(
            CandidateBatch(grid, record=record,
                           stop=lambda res: res.accuracy < 0 or res.index >= 2),
            ctx,
        )
        # the stop predicate read every reported score inside the batch
        assert calls == [1] * 5
        assert all(res.wall_time_s > 0 for res in results)
        assert len(ctx.history) == 2 + (3 if record else 0)
        assert all(p.wall_time_s > 0 for p in ctx.history)

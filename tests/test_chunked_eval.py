"""Chunked evaluation path: bit-identical to in-memory, on every workload.

The chunked path streams exact integer count accumulators over row
blocks, so no tolerance is involved anywhere — every assertion in this
file is exact equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine, Problem
from repro.core.fairness_metrics import METRIC_FACTORIES
from repro.core.kernels import CompiledEvaluator
from repro.core.fitter import WeightedFitter
from repro.core.planner import PlanContext
from repro.core.spec import Constraint, bind_specs
from repro.datasets import available_scenarios, load_scenario
from repro.ml import GaussianNaiveBayes
from repro.ml.model_selection import train_val_test_split

BUILTIN_METRICS = sorted(METRIC_FACTORIES)


def _random_constraints(rng, n, y, k):
    constraints = []
    for i in range(k):
        metric = METRIC_FACTORIES[BUILTIN_METRICS[i % len(BUILTIN_METRICS)]]()
        groups = rng.integers(0, 2, size=n)
        constraints.append(Constraint(
            metric=metric, epsilon=0.05,
            group_names=("a", "b"),
            g1_idx=np.nonzero(groups == 0)[0],
            g2_idx=np.nonzero(groups == 1)[0],
            label=f"c{i}",
        ))
    return constraints


def _odd_constraint(rng, n):
    """One constraint on a custom metric, which the evaluator cannot
    reduce to counts and scores on the full prediction vector."""
    from repro.core.fairness_metrics import custom_metric

    def odd_coeff(y, _pred):
        n1 = max(int(np.sum(y == 1)), 1)
        c = np.zeros(len(y))
        c[y == 1] = 1.0 / n1
        return c, 0.0

    def odd_rate(y_true, y_pred):
        n1 = max(int(np.sum(y_true == 1)), 1)
        return float(np.sum(y_pred[y_true == 1] == y_true[y_true == 1]) / n1)

    groups = rng.integers(0, 2, size=n)
    return Constraint(
        metric=custom_metric("ODD", odd_coeff, odd_rate), epsilon=0.1,
        group_names=("a", "b"),
        g1_idx=np.nonzero(groups == 0)[0],
        g2_idx=np.nonzero(groups == 1)[0], label="odd",
    )


class TestEvaluatorBitIdentity:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(40, 400),
        B=st.integers(1, 6),
        k=st.integers(1, 4),
        chunk=st.integers(1, 500),
    )
    def test_disparities_and_accuracies_match_bitwise(
        self, seed, n, B, k, chunk
    ):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[: n // 2] = 1 - y[0]
        constraints = _random_constraints(rng, n, y, k)
        preds = rng.integers(0, 2, size=(B, n))

        full = CompiledEvaluator(constraints, y)
        chunked = CompiledEvaluator(constraints, y, chunk_size=chunk)
        assert np.array_equal(
            full.disparities_batch(preds), chunked.disparities_batch(preds)
        )
        assert np.array_equal(
            full.accuracies_batch(preds), chunked.accuracies_batch(preds)
        )

    def test_chunk_size_validation(self):
        y = np.array([0, 1, 0, 1])
        c = _random_constraints(np.random.default_rng(0), 4, y, 1)
        with pytest.raises(ValueError, match="chunk_size"):
            CompiledEvaluator(c, y, chunk_size=0)

    def test_streaming_model_scoring_matches_stacked(self):
        rng = np.random.default_rng(5)
        n, d, B = 300, 4, 5
        X = rng.normal(size=(n, d))
        y = (X[:, 0] > 0).astype(np.int64)
        constraints = _random_constraints(rng, n, y, 3)
        models = []
        for b in range(B):
            yb = np.where(rng.random(n) < 0.1, 1 - y, y)
            wb = rng.uniform(0.2, 2.0, size=n)
            models.append(GaussianNaiveBayes().fit(X, yb, sample_weight=wb))
        preds = np.stack([m.predict(X) for m in models])

        full = CompiledEvaluator(constraints, y)
        d_ref, a_ref = full.score_batch(preds)
        for chunk in (None, 1, 7, 64, n, 2 * n):
            ev = CompiledEvaluator(constraints, y, chunk_size=chunk)
            d_got, a_got = ev.score_models_batch(models, X)
            assert np.array_equal(d_ref, d_got), chunk
            assert np.array_equal(a_ref, a_got), chunk

    def test_lone_model_scores_with_its_own_predict(self):
        # predict_batch may differ from predict in round-off; a lone
        # model must score its predict labels on every block size
        class OddBatch(GaussianNaiveBayes):
            @staticmethod
            def predict_batch(models, X):
                return 1 - np.stack([m.predict(X) for m in models])

        rng = np.random.default_rng(8)
        n = 60
        X = rng.normal(size=(n, 3))
        y = (X[:, 0] > 0).astype(np.int64)
        constraints = _random_constraints(rng, n, y, 2)
        model = OddBatch().fit(X, y)
        ref = CompiledEvaluator(constraints, y).score(model.predict(X))
        for chunk in (None, 7):
            ev = CompiledEvaluator(constraints, y, chunk_size=chunk)
            d_got, a_got = ev.score_models_batch([model], X)
            assert np.array_equal(d_got[0], ref[0]), chunk
            assert a_got[0] == ref[1], chunk
        # a batch of B > 1 models of the class takes its batch hook
        pair = CompiledEvaluator(constraints, y, chunk_size=7)
        d_batch, _ = pair.score_models_batch([model, model], X)
        flipped = CompiledEvaluator(constraints, y).disparities(
            1 - model.predict(X)
        )
        assert np.array_equal(d_batch[1], flipped)

    def test_rows_of_x_must_match_the_split(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, size=20)
        c = _random_constraints(rng, 20, y, 1)
        model = GaussianNaiveBayes().fit(rng.normal(size=(20, 2)), y)
        with pytest.raises(ValueError, match="rows"):
            CompiledEvaluator(c, y).score_models_batch(
                [model], rng.normal(size=(25, 2))
            )

    def test_fallback_metric_uses_in_memory_path(self):
        # a custom metric must still be scored identically (full-vector
        # python fallback), chunked or not
        rng = np.random.default_rng(2)
        n = 90
        y = rng.integers(0, 2, size=n)
        constraints = [_odd_constraint(rng, n)]
        preds = rng.integers(0, 2, size=(3, n))
        full = CompiledEvaluator(constraints, y)
        chunked = CompiledEvaluator(constraints, y, chunk_size=16)
        assert np.array_equal(
            full.disparities_batch(preds), chunked.disparities_batch(preds)
        )


class TestEvaluateModelOracle:
    """``evaluate_model`` scores through the evaluator's block loop; it
    equals the per-constraint oracle on ``model.predict(X)`` bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 200),
        chunk=st.sampled_from(["none", 1, 7, "n", "2n"]),
        custom=st.booleans(),
    )
    def test_matches_per_constraint_oracle(self, seed, n, chunk, custom):
        from repro.core.evaluation import evaluate_model
        from repro.core.fairness_metrics import average_error_cost_parity
        from repro.ml.metrics import accuracy_score

        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3))
        y = (X[:, 0] + rng.normal(size=n) > 0).astype(np.int64)
        y[:2] = (0, 1)
        constraints = _random_constraints(rng, n, y, len(BUILTIN_METRICS))
        groups = rng.integers(0, 2, size=n)
        constraints.append(Constraint(
            metric=average_error_cost_parity(cost_fp=2.0, cost_fn=0.5),
            epsilon=0.05, group_names=("a", "b"),
            g1_idx=np.nonzero(groups == 0)[0],
            g2_idx=np.nonzero(groups == 1)[0], label="aec",
        ))
        if custom:
            constraints.append(_odd_constraint(rng, n))
        model = GaussianNaiveBayes().fit(
            X, y, sample_weight=rng.uniform(0.2, 2.0, size=n)
        )
        chunk_size = {"none": None, "n": n, "2n": 2 * n}.get(chunk, chunk)

        got = evaluate_model(model, X, y, constraints, chunk_size=chunk_size)
        pred = model.predict(X)
        want = {c.label: c.disparity(y, pred) for c in constraints}
        assert list(got["disparities"]) == list(want)
        for label, value in want.items():
            assert got["disparities"][label].hex() == value.hex(), label
        assert got["accuracy"].hex() == accuracy_score(y, pred).hex()
        assert got["feasible"] == all(
            abs(want[c.label]) - c.epsilon <= 1e-12 for c in constraints
        )


class TestBatchEvalPlumbing:
    def _fitter(self, chunk_size=None):
        rng = np.random.default_rng(0)
        n = 240
        X = rng.normal(size=(n, 3))
        y = (X[:, 0] + 0.4 * rng.normal(size=n) > 0).astype(np.int64)
        groups = rng.integers(0, 2, size=n)
        constraint = Constraint(
            metric=METRIC_FACTORIES["SP"](), epsilon=0.05,
            group_names=("a", "b"),
            g1_idx=np.nonzero(groups == 0)[0],
            g2_idx=np.nonzero(groups == 1)[0],
        )
        fitter = WeightedFitter(
            GaussianNaiveBayes(), X, y, [constraint],
            eval_chunk_size=chunk_size,
        )
        return fitter, constraint, X, y

    def test_eval_chunk_size_validation(self):
        with pytest.raises(ValueError, match="eval_chunk_size"):
            self._fitter(chunk_size=0)

    @staticmethod
    def _fit_and_score(fitter, evaluator, X, L):
        return evaluator.score_models_batch(fitter.fit_batch(L), X)

    def test_compiled_scorer_inherits_fitter_chunk_size(self):
        L = np.linspace(-0.5, 0.5, 7)[:, None]
        scores = []
        for chunk_size in (None, 50):
            fitter, c, X, y = self._fitter(chunk_size)
            evaluator = PlanContext(fitter, [c], X, y).compiled_scorer()
            assert evaluator.chunk_size == chunk_size
            scores.append(self._fit_and_score(fitter, evaluator, X, L))
        (ref_d, ref_a), (got_d, got_a) = scores
        assert np.array_equal(ref_d, got_d)
        assert np.array_equal(ref_a, got_a)

    def test_explicit_chunk_size_overrides(self):
        L = np.array([[0.0], [0.25]])
        fitter, c, X, y = self._fitter(None)
        ref_d, ref_a = self._fit_and_score(
            fitter, CompiledEvaluator([c], y), X, L
        )
        got_d, got_a = self._fit_and_score(
            fitter, CompiledEvaluator([c], y, chunk_size=9), X, L
        )
        assert np.array_equal(ref_d, got_d)
        assert np.array_equal(ref_a, got_a)


def _splits(data, seed=0):
    strat = data.sensitive * 2 + data.y
    tr, va, te = train_val_test_split(len(data), seed=seed, stratify=strat)
    return data.subset(tr), data.subset(va)


class TestEndToEndWorkloads:
    """Chunked λ-search selects the identical λ on every scenario family
    and on a benchmark twin — the acceptance-criterion check."""

    # per-family ε probed so the grid lands on a feasible nonzero λ
    SCENARIO_EPS = {
        "group_sweep": 0.15,
        "imbalance": 0.05,
        "label_noise": 0.05,
        "covariate_shift": 0.10,
        "million_row": 0.05,
        "hundred_million_row": 0.08,
        "drifting_mix": 0.10,
        "label_drift": 0.10,
    }

    @pytest.mark.parametrize("name", sorted(available_scenarios()))
    def test_scenario_grid_search_identical(self, name):
        overrides = {"n_groups": 2} if name == "group_sweep" else {}
        data = load_scenario(name, n=2000, seed=0, **overrides)
        train, val = _splits(data)
        spec = f"SP <= {self.SCENARIO_EPS[name]}"
        engines = dict(
            full=Engine("grid", grid_steps=10, grid_max=0.5),
            chunked=Engine("grid", grid_steps=10, grid_max=0.5,
                           chunk_size=128),
        )
        reports = {
            kind: engine.solve(
                Problem(spec), GaussianNaiveBayes(), train, val
            ).report
            for kind, engine in engines.items()
        }
        assert reports["full"].lambdas[0] != 0.0
        assert np.array_equal(
            reports["full"].lambdas, reports["chunked"].lambdas
        )
        assert (
            reports["full"].validation["accuracy"]
            == reports["chunked"].validation["accuracy"]
        )
        d_full = [h.disparity for h in reports["full"].history]
        d_chunk = [h.disparity for h in reports["chunked"].history]
        assert d_full == d_chunk

    def test_twin_multi_constraint_grid_identical(self):
        from repro.datasets import load_adult

        data = load_adult(n=2400, seed=0)
        train, val = _splits(data)
        problem = Problem("SP <= 0.12 and FPR <= 0.2")
        full = Engine("grid", grid_steps=5).solve(
            problem, GaussianNaiveBayes(), train, val
        )
        chunked = Engine("grid", grid_steps=5, chunk_size=100).solve(
            problem, GaussianNaiveBayes(), train, val
        )
        assert np.array_equal(full.report.lambdas, chunked.report.lambdas)
        assert np.any(full.report.lambdas != 0.0)

    def test_sequential_strategy_with_chunking_identical(self):
        # binary_search scores one model at a time through the memoized
        # evaluator; chunking must not perturb it either
        data = load_scenario("label_noise", n=2000, seed=1)
        train, val = _splits(data)
        problem = Problem("SP <= 0.05")
        full = Engine("binary_search").solve(
            problem, GaussianNaiveBayes(), train, val
        )
        chunked = Engine("binary_search", chunk_size=64).solve(
            problem, GaussianNaiveBayes(), train, val
        )
        assert np.array_equal(full.report.lambdas, chunked.report.lambdas)

    def test_evaluate_model_and_audit_chunking_identical(self):
        # the final validation/audit pass streams predictions in row
        # blocks when chunking is on — same numbers, bounded peak
        from repro.core.evaluation import evaluate_model

        data = load_scenario("imbalance", n=1500, seed=2)
        constraints = bind_specs(Problem("SP <= 0.05").specs, data)
        model = GaussianNaiveBayes().fit(data.X, data.y)
        full = evaluate_model(model, data.X, data.y, constraints)
        for chunk in (1, 64, 1499, 1500, 4000):
            got = evaluate_model(
                model, data.X, data.y, constraints, chunk_size=chunk
            )
            assert got == full, chunk

        train, val = _splits(data)
        fair = Engine("binary_search").solve(
            Problem("SP <= 0.05"), GaussianNaiveBayes(), train, val
        )
        assert fair.audit(data, chunk_size=97) == fair.audit(data)

    def test_chunked_constraints_bound_via_bind_specs(self):
        # chunking composes with DSL binding (multi-group scenario)
        data = load_scenario("group_sweep", n=2000, seed=0, n_groups=3)
        constraints = bind_specs(Problem("SP <= 0.3").specs, data)
        ev_full = CompiledEvaluator(constraints, data.y)
        ev_chunk = CompiledEvaluator(constraints, data.y, chunk_size=77)
        model = GaussianNaiveBayes().fit(data.X, data.y)
        preds = model.predict(data.X)
        assert np.array_equal(
            ev_full.disparities(preds), ev_chunk.disparities(preds)
        )

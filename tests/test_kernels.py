"""Compiled constraint kernels: equivalence with the weight oracle.

The contract under test:

* :class:`CompiledConstraints` weights match the oracle loop
  (``tests/weight_oracle.py``) **bit for bit** across random specs, λ
  vectors (including negative-weight regimes), overlapping groups, and
  FOR/FDR predictions, and their group-side overlap test matches the
  oracle's set intersection;
* the batched APIs (``weights_batch``, and ``fit_batch`` scored by
  ``score_models_batch``) agree with their sequential counterparts;
* a sequence of prediction updates (FOR/FDR and a custom parameterized
  metric) keeps every weight equal to the oracle's, and an identical
  re-send recomputes nothing;
* :class:`CompiledEvaluator` matches ``Constraint.disparity`` and
  ``accuracy_score`` exactly;
* with disjoint group sides, swapping a pair is a sign: the swapped
  kernel's weights at λ are the declared kernel's at −λ, and the
  swapped evaluator's disparities are the declared ones negated — the
  identity the planner's per-constraint signs rest on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fairness_metrics import (
    METRIC_FACTORIES,
    average_error_cost_parity,
    custom_metric,
)
from repro.core.fitter import WeightedFitter
from repro.core.kernels import (
    CompiledConstraints,
    CompiledEvaluator,
    _sides_overlap,
    rate_from_counts,
)
from repro.core.spec import Constraint
from repro.core.weights import resolve_negative_weights
from repro.ml.logistic import LogisticRegression
from repro.ml.metrics import accuracy_score
from repro.ml.naive_bayes import GaussianNaiveBayes
from weight_oracle import compute_weights, sides_overlap

ALL_METRICS = sorted(METRIC_FACTORIES)


# -- custom parameterized metric exercising the generic fallback -------------


def _flip_share_coeff(y, pred):
    # an arbitrary prediction-dependent linear metric: coefficients scale
    # with the number of predicted positives in the group
    scale = 1.0 + float(np.sum(pred == 1))
    return np.where(y == 1, 1.0 / scale, -0.5 / scale), 0.25


def _flip_share_rate(y, pred):
    scale = 1.0 + float(np.sum(pred == 1))
    correct = (y == pred).astype(np.float64)
    c = np.where(y == 1, 1.0 / scale, -0.5 / scale)
    return float(np.dot(c, correct) + 0.25)


def _custom_param_metric():
    return custom_metric(
        "CUSTOM", _flip_share_coeff, _flip_share_rate,
        parameterized_by_model=True,
    )


# -- hypothesis machinery -----------------------------------------------------


def _make_metric(name):
    if name == "AEC":
        return average_error_cost_parity(cost_fp=0.7, cost_fn=1.3)
    if name == "CUSTOM":
        return _custom_param_metric()
    return METRIC_FACTORIES[name]()


@st.composite
def weight_problems(draw, disjoint=False, metric=None):
    """Random (y, constraints, λ, predictions) tuples, overlaps included
    unless ``disjoint``; ``metric`` fixes every constraint's metric."""
    n = draw(st.integers(min_value=5, max_value=50))
    y = np.array(
        draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    k = draw(st.integers(min_value=1, max_value=4))
    constraints = []
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = ALL_METRICS + ["AEC", "CUSTOM"]
    for i in range(k):
        name = metric or draw(st.sampled_from(names))
        if disjoint:
            # two non-empty sides of one shuffle, rows left in neither
            perm = rng.permutation(n)
            cut = rng.integers(1, n)
            g1, g2 = perm[:cut], perm[cut:cut + rng.integers(1, n - cut + 1)]
        else:
            # overlapping, non-empty groups drawn independently
            g1 = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            g2 = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        constraints.append(
            Constraint(
                metric=_make_metric(name),
                epsilon=0.1,
                group_names=(f"a{i}", f"b{i}"),
                g1_idx=np.sort(g1),
                g2_idx=np.sort(g2),
            )
        )
    lambdas = np.array([
        draw(st.floats(
            min_value=-50.0, max_value=50.0,
            allow_nan=False, allow_infinity=False,
        ))
        for _ in range(k)
    ])
    # sprinkle exact zeros and a large-λ (negative-weight) regime
    if draw(st.booleans()):
        lambdas[draw(st.integers(0, k - 1))] = 0.0
    if draw(st.booleans()):
        lambdas[draw(st.integers(0, k - 1))] *= 1e3
    predictions = np.array(
        draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    return y, constraints, lambdas, predictions


def _prediction_sequence(data, predictions):
    """1–6 prediction vectors, each a few flips of the one before; when
    there are two or more, one is an identical re-send (a new array)."""
    n = len(predictions)
    length = data.draw(st.integers(1, 6), label="length")
    resend = (data.draw(st.integers(1, length - 1), label="resend")
              if length > 1 else None)
    sequence = [predictions]
    for step in range(1, length):
        pred = sequence[-1].copy()
        if step != resend:
            flips = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                       max_size=3, unique=True),
                              label="flips")
            pred[flips] = 1 - pred[flips]
        sequence.append(pred)
    return sequence


class TestWeightEquivalenceProperty:
    @settings(max_examples=60, deadline=None)
    @given(weight_problems(), st.data())
    def test_compiled_matches_naive_bit_for_bit(self, problem, data):
        y, constraints, lambdas, predictions = problem
        n = len(y)
        L = np.stack([lambdas, np.zeros_like(lambdas), -0.5 * lambdas])
        kernel = CompiledConstraints(constraints, y)
        for pred in _prediction_sequence(data, predictions):
            kernel.update_predictions(pred)
            W = kernel.weights_batch(L)
            for b, lams in enumerate(L):
                naive = compute_weights(n, constraints, lams, y,
                                        predictions=pred)
                assert np.array_equal(naive, kernel.weights(lams))
                assert np.array_equal(naive, W[b])

    @settings(max_examples=30, deadline=None)
    @given(weight_problems())
    def test_batch_rows_equal_single_calls(self, problem):
        y, constraints, lambdas, predictions = problem
        kernel = CompiledConstraints(constraints, y)
        L = np.stack([lambdas, np.zeros_like(lambdas), -0.5 * lambdas])
        W = kernel.weights_batch(L, predictions=predictions)
        for b in range(len(L)):
            assert np.array_equal(W[b], kernel.weights(L[b]))

    @settings(max_examples=30, deadline=None)
    @given(weight_problems())
    def test_negative_weight_resolution_agrees(self, problem):
        y, constraints, lambdas, predictions = problem
        n = len(y)
        naive = compute_weights(
            n, constraints, lambdas, y, predictions=predictions
        )
        kernel = CompiledConstraints(constraints, y)
        compiled = kernel.weights(lambdas, predictions=predictions)
        for strategy in ("flip", "clip"):
            w_n, y_n = resolve_negative_weights(naive, y, strategy=strategy)
            w_c, y_c = resolve_negative_weights(compiled, y, strategy=strategy)
            assert np.array_equal(w_n, w_c)
            assert np.array_equal(y_n, y_c)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 200),
        disjoint=st.booleans(),
    )
    def test_side_overlap_matches_set_intersection(self, seed, n, disjoint):
        rng = np.random.default_rng(seed)
        g1 = np.flatnonzero(rng.random(n) < rng.random())
        pool = np.setdiff1d(np.arange(n), g1) if disjoint else np.arange(n)
        g2 = np.sort(rng.choice(pool, size=rng.integers(0, len(pool) + 1),
                                replace=False))
        got = _sides_overlap(g1, g2, n)
        assert got == sides_overlap(g1, g2)
        if disjoint:
            assert not got


class TestSwapIsASign:
    """Algorithm 1's swap of a disjoint pair equals negating its λ."""

    @pytest.mark.parametrize("metric", ALL_METRICS + ["AEC", "CUSTOM"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_swapped_kernel_weights_equal_negated_lambda(self, metric,
                                                         data):
        y, constraints, lambdas, predictions = data.draw(
            weight_problems(disjoint=True, metric=metric)
        )
        j = data.draw(st.integers(0, len(constraints) - 1))
        swapped = list(constraints)
        swapped[j] = constraints[j].swapped()
        negated = lambdas.copy()
        negated[j] = -negated[j]

        def weights(cons, lams):
            kernel = CompiledConstraints(cons, y)
            return (kernel.weights(lams, predictions=predictions),
                    kernel.weights_batch(lams[None, :]))

        for got, want in zip(weights(swapped, lambdas),
                             weights(constraints, negated)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("metric", ALL_METRICS + ["AEC", "CUSTOM"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_swapped_disparities_negate_exactly(self, metric, data):
        y, constraints, _lambdas, predictions = data.draw(
            weight_problems(disjoint=True, metric=metric)
        )
        preds = np.stack([predictions, 1 - predictions,
                          np.zeros_like(predictions)])
        d = CompiledEvaluator(constraints, y).score_batch(preds)[0]
        d_swapped = CompiledEvaluator(
            [c.swapped() for c in constraints], y,
        ).score_batch(preds)[0]
        # PlanContext.orient's flip: −d, an exact tie reported as +0.0
        assert d_swapped.tobytes() == (d * -1.0 + 0.0).tobytes()


class TestIncrementalPredictionUpdates:
    def _constraints(self, y, rng, metrics=("FOR", "FDR", "CUSTOM")):
        n = len(y)
        constraints = []
        for i, name in enumerate(metrics):
            g1 = np.sort(rng.choice(n, size=n // 2, replace=False))
            g2 = np.sort(rng.choice(n, size=n // 2, replace=False))
            constraints.append(
                Constraint(
                    metric=_make_metric(name), epsilon=0.05,
                    group_names=(f"a{i}", f"b{i}"), g1_idx=g1, g2_idx=g2,
                )
            )
        return constraints

    def test_nonzero_lambda_requires_predictions(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, size=40)
        kernel = CompiledConstraints(self._constraints(y, rng, ("FOR",)), y)
        with pytest.raises(ValueError, match="update_predictions"):
            kernel.weights(np.array([1.0]))
        # λ = 0 never needs predictions
        assert np.array_equal(
            kernel.weights(np.array([0.0])), np.ones(40)
        )

    def test_identical_update_is_a_true_noop(self):
        """Re-sending unchanged predictions must not copy or refresh.

        The bug this pins down: the zero-changed-rows path used to
        re-copy the prediction vector and walk every parameterized
        term anyway, re-invoking custom coefficient callables for
        state that could not have moved.
        """
        rng = np.random.default_rng(11)
        y = rng.integers(0, 2, size=60)
        calls = {"n": 0}

        def counting_coeff(y_group, pred_group):
            calls["n"] += 1
            m = max(int(np.sum(pred_group == 0)), 1)
            return np.where(y_group == 0, -1.0 / m, 0.0), 1.0

        metric = custom_metric(
            "COUNTING", counting_coeff, lambda yg, pg: 0.0,
            parameterized_by_model=True,
        )
        kernel = CompiledConstraints(
            [Constraint(
                metric=metric, epsilon=0.05, group_names=("a", "b"),
                g1_idx=np.arange(0, 30), g2_idx=np.arange(30, 60),
            )],
            y,
        )
        pred = rng.integers(0, 2, size=60)
        kernel.update_predictions(pred)
        baseline_calls = calls["n"]
        held = kernel._predictions
        weights = kernel.weights(np.array([0.7]))
        kernel.update_predictions(pred.copy())  # same content, new array
        assert calls["n"] == baseline_calls  # no coefficient re-walk
        assert kernel._predictions is held   # and no defensive copy
        assert np.array_equal(kernel.weights(np.array([0.7])), weights)
        flipped = pred.copy()
        flipped[0] = 1 - flipped[0]
        kernel.update_predictions(flipped)   # a real change still refreshes
        assert calls["n"] > baseline_calls


class TestRateFromCounts:
    """The shared count→rate arithmetic both audit paths run through."""

    def test_matches_evaluator_disparities_bitwise(self):
        rng = np.random.default_rng(19)
        y = rng.integers(0, 2, size=200).astype(np.int64)
        pred = rng.integers(0, 2, size=200).astype(np.int64)
        g1 = np.sort(rng.choice(200, size=90, replace=False))
        g2 = np.sort(rng.choice(200, size=90, replace=False))
        for name in ["SP", "MR", "FPR", "FNR", "FOR", "FDR", "AEC"]:
            metric = _make_metric(name)
            constraint = Constraint(
                metric=metric, epsilon=0.05, group_names=("a", "b"),
                g1_idx=g1, g2_idx=g2,
            )
            evaluator = CompiledEvaluator([constraint], y)
            sides = []
            for idx in (g1, g2):
                # one count column per label filter the kind needs
                columns = {
                    "SP": [idx], "FPR": [idx[y[idx] == 0]],
                    "FNR": [idx[y[idx] == 1]],
                }.get(name, [idx[y[idx] == 0], idx[y[idx] == 1]])
                pos = [np.float64(np.sum(pred[c] == 1)) for c in columns]
                rows = [np.float64(len(c)) for c in columns]
                kind = name.lower()
                costs = (0.7, 1.3) if kind == "aec" else None
                sides.append(rate_from_counts(kind, pos, rows, costs))
            expected = np.asarray([sides[0] - sides[1]], dtype=np.float64)
            actual = evaluator.disparities(pred)
            assert actual.tobytes() == expected.tobytes(), name

    def test_non_binary_labels_are_refused(self):
        y = np.array([0, 1, 2, 1])
        constraint = Constraint(
            metric=_make_metric("SP"), epsilon=0.05, group_names=("a", "b"),
            g1_idx=np.array([0, 1]), g2_idx=np.array([2, 3]),
        )
        with pytest.raises(ValueError, match=r"\[2\]"):
            CompiledEvaluator([constraint], y)


class TestCompiledEvaluator:
    @settings(max_examples=40, deadline=None)
    @given(weight_problems())
    def test_matches_constraint_disparity_and_accuracy(self, problem):
        y, constraints, _lambdas, predictions = problem
        evaluator = CompiledEvaluator(constraints, y)
        got = evaluator.disparities(predictions)
        want = np.array(
            [c.disparity(y, predictions) for c in constraints]
        )
        assert np.array_equal(got, want)
        assert evaluator.accuracy(predictions) == accuracy_score(
            y, predictions
        )

    def test_batch_scoring_matches_per_row(self):
        rng = np.random.default_rng(11)
        y = rng.integers(0, 2, size=200)
        constraints = []
        for i, name in enumerate(ALL_METRICS + ["AEC"]):
            g1 = np.sort(rng.choice(200, size=90, replace=False))
            g2 = np.sort(rng.choice(200, size=90, replace=False))
            constraints.append(
                Constraint(
                    metric=_make_metric(name), epsilon=0.05,
                    group_names=(f"a{i}", f"b{i}"), g1_idx=g1, g2_idx=g2,
                )
            )
        evaluator = CompiledEvaluator(constraints, y)
        preds = rng.integers(0, 2, size=(7, 200))
        D = evaluator.disparities_batch(preds)
        A = evaluator.accuracies_batch(preds)
        for b in range(7):
            want = [c.disparity(y, preds[b]) for c in constraints]
            assert np.array_equal(D[b], np.array(want))
            assert A[b] == accuracy_score(y, preds[b])


# -- fitter-level batching ----------------------------------------------------


def _toy_training_setup(seed=0, n=300):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(np.int64)
    groups = rng.integers(0, 2, size=n)
    g1 = np.nonzero(groups == 0)[0]
    g2 = np.nonzero(groups == 1)[0]
    constraints = [
        Constraint(
            metric=_make_metric("SP"), epsilon=0.05,
            group_names=("a", "b"), g1_idx=g1, g2_idx=g2,
        ),
        Constraint(
            metric=_make_metric("MR"), epsilon=0.1,
            group_names=("a", "b"), g1_idx=g1, g2_idx=g2,
        ),
    ]
    return X, y, constraints


class TestFitBatch:
    def test_batch_models_match_sequential_fits(self):
        X, y, constraints = _toy_training_setup()
        L = np.array([[0.0, 0.0], [0.6, -0.4], [-2.0, 1.5]])
        serial = WeightedFitter(LogisticRegression(max_iter=40), X, y,
                                constraints)
        batch = WeightedFitter(LogisticRegression(max_iter=40), X, y,
                               constraints)
        wanted = [serial.fit(L[b]) for b in range(len(L))]
        got = batch.fit_batch(L)
        assert batch.n_fits == len(L)
        for m_w, m_g in zip(wanted, got):
            assert np.array_equal(m_w.predict(X), m_g.predict(X))

    def test_parameterized_rejects_fit_batch(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 3))
        y = rng.integers(0, 2, size=60)
        constraints = [
            Constraint(
                metric=_make_metric("FOR"), epsilon=0.05,
                group_names=("a", "b"),
                g1_idx=np.arange(30), g2_idx=np.arange(30, 60),
            )
        ]
        fitter = WeightedFitter(GaussianNaiveBayes(), X, y, constraints)
        with pytest.raises(ValueError, match="parameterized"):
            fitter.fit_batch(np.array([[0.5]]))
        # all-zero λ batches are constant-weight and therefore fine
        assert len(fitter.fit_batch(np.zeros((2, 1)))) == 2


class TestEstimatorBatchHooks:
    def test_naive_bayes_batch_fit_matches_scalar_fits(self):
        X, y, constraints = _toy_training_setup(seed=2)
        rng = np.random.default_rng(9)
        W = rng.uniform(0.2, 3.0, size=(5, len(y)))
        Y = np.where(rng.random((5, len(y))) < 0.1, 1 - y, y)
        proto = GaussianNaiveBayes()
        models = proto.fit_weighted_batch(X, Y, W)
        for b, model in enumerate(models):
            ref = GaussianNaiveBayes().fit(X, Y[b], sample_weight=W[b])
            np.testing.assert_allclose(model.theta_, ref.theta_,
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(model.var_, ref.var_,
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(model.class_prior_, ref.class_prior_,
                                       rtol=1e-12)
            assert np.array_equal(model.predict(X), ref.predict(X))

    def test_naive_bayes_predict_batch_matches_scalar_predict(self):
        X, y, _ = _toy_training_setup(seed=4)
        rng = np.random.default_rng(13)
        models = [
            GaussianNaiveBayes().fit(
                X, y, sample_weight=rng.uniform(0.5, 2.0, size=len(y))
            )
            for _ in range(4)
        ]
        batch = GaussianNaiveBayes.predict_batch(models, X)
        for b, model in enumerate(models):
            assert np.array_equal(batch[b], model.predict(X))


class TestBatchFitAndScore:
    def test_matches_sequential_fit_and_score(self):
        X, y, constraints = _toy_training_setup(seed=6)
        X_val, y_val = X[:150], y[:150]
        val_constraints = [
            Constraint(
                metric=c.metric, epsilon=c.epsilon,
                group_names=c.group_names,
                g1_idx=c.g1_idx[c.g1_idx < 150],
                g2_idx=c.g2_idx[c.g2_idx < 150],
            )
            for c in constraints
        ]
        L = np.array([[0.0, 0.0], [0.5, -0.5], [-1.0, 1.0]])
        est = LogisticRegression(max_iter=30)
        batch_fitter = WeightedFitter(est.clone(), X, y, constraints)
        disparities, accuracies = CompiledEvaluator(
            val_constraints, y_val,
        ).score_models_batch(batch_fitter.fit_batch(L), X_val)
        serial_fitter = WeightedFitter(est.clone(), X, y, constraints)
        for b in range(len(L)):
            model = serial_fitter.fit(L[b])
            pred = model.predict(X_val)
            want = np.array(
                [c.disparity(y_val, pred) for c in val_constraints]
            )
            assert np.array_equal(disparities[b], want)
            assert accuracies[b] == accuracy_score(y_val, pred)

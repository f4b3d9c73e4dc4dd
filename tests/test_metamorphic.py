"""Metamorphic properties of fairness metrics and compiled kernels.

Property-based invariances that hold for *any* valid input, independent
of model or data semantics:

* **Row permutation** — disparities, accuracies, and λ-weights are
  functions of (label, prediction, group) multisets, so permuting rows
  consistently changes nothing (bitwise for counts-based paths).
* **Group relabeling** — swapping a constraint's two group sides exactly
  negates its disparity (IEEE subtraction is sign-symmetric), and
  permuting group *codes* with the matching name permutation leaves
  every group's rate unchanged.
* **Row duplication vs doubled weights** — duplicating every row leaves
  all rates exactly unchanged (numerator and denominator both double),
  the λ-weight of each row is preserved to rounding (N and 1/|g| scale
  inversely), and weighted fits with doubled weights equal fits on
  duplicated rows.
* **Prediction complement (SP)** — complementing every prediction
  negates the statistical-parity disparity.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fairness_metrics import METRIC_FACTORIES
from repro.core.kernels import CompiledConstraints, CompiledEvaluator
from repro.core.spec import Constraint
from repro.ml import GaussianNaiveBayes
from weight_oracle import compute_weights

BUILTIN = sorted(METRIC_FACTORIES)


@st.composite
def labeled_problems(draw, with_predictions=True):
    """Random (y, pred, groups) with both labels and groups present."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(20, 200))
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    if y.min() == y.max():
        y[: n // 2] = 1 - y[0]
    groups = rng.integers(0, 2, size=n)
    if groups.min() == groups.max():
        groups[: n // 2] = 1 - groups[0]
    pred = rng.integers(0, 2, size=n) if with_predictions else None
    return y, pred, groups, rng


def _constraint(metric_name, groups, epsilon=0.05, swap=False):
    g1 = np.nonzero(groups == 0)[0]
    g2 = np.nonzero(groups == 1)[0]
    if swap:
        g1, g2 = g2, g1
    return Constraint(
        metric=METRIC_FACTORIES[metric_name](),
        epsilon=epsilon,
        group_names=("a", "b") if not swap else ("b", "a"),
        g1_idx=g1,
        g2_idx=g2,
    )


class TestRowPermutation:
    @settings(max_examples=40, deadline=None)
    @given(problem=labeled_problems(), metric=st.sampled_from(BUILTIN))
    def test_disparity_invariant(self, problem, metric):
        y, pred, groups, rng = problem
        perm = rng.permutation(len(y))
        original = _constraint(metric, groups).disparity(y, pred)
        permuted = _constraint(metric, groups[perm]).disparity(
            y[perm], pred[perm]
        )
        assert permuted == original

    @settings(max_examples=40, deadline=None)
    @given(problem=labeled_problems(), metric=st.sampled_from(BUILTIN))
    def test_compiled_evaluator_invariant(self, problem, metric):
        y, pred, groups, rng = problem
        perm = rng.permutation(len(y))
        ev = CompiledEvaluator([_constraint(metric, groups)], y)
        ev_perm = CompiledEvaluator(
            [_constraint(metric, groups[perm])], y[perm]
        )
        assert np.array_equal(
            ev.disparities(pred), ev_perm.disparities(pred[perm])
        )
        assert ev.accuracy(pred) == ev_perm.accuracy(pred[perm])

    @settings(max_examples=25, deadline=None)
    @given(
        problem=labeled_problems(with_predictions=False),
        metric=st.sampled_from(["SP", "MR", "FPR", "FNR"]),
        lam=st.floats(-0.8, 0.8, allow_nan=False),
    )
    def test_weight_kernel_invariant(self, problem, metric, lam):
        y, _, groups, rng = problem
        perm = rng.permutation(len(y))
        w = CompiledConstraints(
            [_constraint(metric, groups)], y
        ).weights([lam])
        w_perm = CompiledConstraints(
            [_constraint(metric, groups[perm])], y[perm]
        ).weights([lam])
        assert np.array_equal(w[perm], w_perm)


class TestGroupRelabeling:
    @settings(max_examples=40, deadline=None)
    @given(problem=labeled_problems(), metric=st.sampled_from(BUILTIN))
    def test_side_swap_negates_disparity_exactly(self, problem, metric):
        y, pred, groups, _ = problem
        forward = _constraint(metric, groups).disparity(y, pred)
        swapped = _constraint(metric, groups, swap=True).disparity(y, pred)
        # IEEE-754: a - b == -(b - a) exactly, for every a, b
        assert swapped == -forward

    @settings(max_examples=40, deadline=None)
    @given(problem=labeled_problems(), metric=st.sampled_from(BUILTIN))
    def test_code_permutation_preserves_disparity(self, problem, metric):
        y, pred, groups, _ = problem
        relabeled = 1 - groups  # permute the group codes
        original = _constraint(metric, groups).disparity(y, pred)
        # with codes flipped, side 0 of the relabeled constraint is the
        # original side 1 — the swap must cancel the code permutation
        mirrored = _constraint(metric, relabeled, swap=True).disparity(
            y, pred
        )
        assert mirrored == original


class TestDuplicationScaling:
    @settings(max_examples=40, deadline=None)
    @given(problem=labeled_problems(), metric=st.sampled_from(BUILTIN))
    def test_row_duplication_preserves_rates_exactly(self, problem, metric):
        y, pred, groups, _ = problem
        dup = np.concatenate([np.arange(len(y))] * 2)
        original = _constraint(metric, groups).disparity(y, pred)
        doubled = _constraint(metric, groups[dup]).disparity(
            y[dup], pred[dup]
        )
        # every numerator and denominator doubles; binary-FP quotients
        # are identical under a shared power-of-two scaling
        assert doubled == original

    @settings(max_examples=25, deadline=None)
    @given(
        problem=labeled_problems(with_predictions=False),
        metric=st.sampled_from(["SP", "MR", "FPR", "FNR"]),
        lam=st.floats(-0.8, 0.8, allow_nan=False),
    )
    def test_duplication_preserves_lambda_weights(self, problem, metric, lam):
        y, _, groups, _ = problem
        n = len(y)
        dup = np.concatenate([np.arange(n)] * 2)
        w = compute_weights(
            n, [_constraint(metric, groups)], [lam], y
        )
        w_dup = compute_weights(
            2 * n, [_constraint(metric, groups[dup])], [lam], y[dup]
        )
        # N doubles while each 1/|g| halves: per-row weights preserved
        np.testing.assert_allclose(w_dup[:n], w, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w_dup[n:], w, rtol=1e-12, atol=1e-12)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_doubled_weights_equal_duplicated_rows(self, seed):
        rng = np.random.default_rng(seed)
        n = 120
        X = rng.normal(size=(n, 3))
        y = (X[:, 0] > 0).astype(np.int64)
        if y.min() == y.max():
            y[: n // 2] = 1 - y[0]
        w = rng.uniform(0.5, 2.0, size=n)
        dup = np.concatenate([np.arange(n)] * 2)
        doubled = GaussianNaiveBayes().fit(X, y, sample_weight=2.0 * w)
        duplicated = GaussianNaiveBayes().fit(
            X[dup], y[dup], sample_weight=np.concatenate([w, w])
        )
        np.testing.assert_allclose(
            doubled.theta_, duplicated.theta_, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            doubled.var_, duplicated.var_, rtol=1e-9, atol=1e-12
        )
        assert np.array_equal(doubled.predict(X), duplicated.predict(X))


class TestPredictionComplement:
    @settings(max_examples=40, deadline=None)
    @given(problem=labeled_problems())
    def test_sp_disparity_antisymmetric_under_complement(self, problem):
        y, pred, groups, _ = problem
        c = _constraint("SP", groups)
        forward = c.disparity(y, pred)
        complemented = c.disparity(y, 1 - pred)
        # selection rates map r -> 1 - r on both sides, so the disparity
        # negates (up to the rounding of 1 - r)
        assert np.isclose(complemented, -forward, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(problem=labeled_problems())
    def test_mr_disparity_under_complement_matches_python_path(self, problem):
        # complement symmetry via the compiled evaluator must agree with
        # the reference python path on the same complemented predictions
        y, pred, groups, _ = problem
        c = _constraint("MR", groups)
        ev = CompiledEvaluator([c], y)
        assert (
            ev.disparities(1 - pred)[0] == c.disparity(y, 1 - pred)
        )

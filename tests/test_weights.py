"""Tests for example-weight derivation (Table 3) and negative-weight handling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fairness_metrics import (
    false_negative_rate_parity,
    misclassification_rate_parity,
    statistical_parity,
)
from repro.core.spec import Constraint
from repro.core.weights import resolve_negative_weights
from weight_oracle import compute_weights


def _constraint(metric, g1_idx, g2_idx, eps=0.03):
    return Constraint(
        metric=metric,
        epsilon=eps,
        group_names=("g1", "g2"),
        g1_idx=np.asarray(g1_idx),
        g2_idx=np.asarray(g2_idx),
    )


class TestSPWeightsMatchTable3:
    """SP weights must be ``1 ∓ λN/|g|`` split by label and group."""

    def test_weights_formula(self):
        # 6 rows: g1 = {0,1,2}, g2 = {3,4,5}; labels mixed
        y = np.array([0, 1, 1, 0, 0, 1])
        c = _constraint(statistical_parity(), [0, 1, 2], [3, 4, 5])
        lam = 0.1
        w = compute_weights(6, [c], [lam], y)
        n, g = 6, 3
        # g1: y=0 -> 1 - λN/|g1| ; y=1 -> 1 + λN/|g1|  (Table 3 SP row)
        assert w[0] == pytest.approx(1 - lam * n / g)
        assert w[1] == pytest.approx(1 + lam * n / g)
        # g2: signs flipped
        assert w[3] == pytest.approx(1 + lam * n / g)
        assert w[5] == pytest.approx(1 - lam * n / g)

    def test_lambda_zero_gives_unit_weights(self):
        y = np.array([0, 1, 0, 1])
        c = _constraint(statistical_parity(), [0, 1], [2, 3])
        w = compute_weights(4, [c], [0.0], y)
        assert np.array_equal(w, np.ones(4))

    def test_rows_outside_groups_keep_weight_one(self):
        y = np.array([0, 1, 0, 1, 0])
        c = _constraint(statistical_parity(), [0, 1], [2, 3])
        w = compute_weights(5, [c], [0.5], y)
        assert w[4] == 1.0

    def test_overlapping_groups_sum_contributions(self):
        # row 1 belongs to both groups: contributions add (§5.2)
        y = np.array([1, 1, 1])
        c = _constraint(statistical_parity(), [0, 1], [1, 2])
        lam = 0.2
        w = compute_weights(3, [c], [lam], y)
        n = 3
        expected_mid = 1 + lam * n * (1 / 2) - lam * n * (1 / 2)
        assert w[1] == pytest.approx(expected_mid)


class TestFNRWeights:
    def test_only_positive_labels_touched(self):
        y = np.array([0, 1, 0, 1])
        c = _constraint(false_negative_rate_parity(), [0, 1], [2, 3])
        w = compute_weights(4, [c], [0.3], y)
        assert w[0] == 1.0 and w[2] == 1.0
        assert w[1] != 1.0 and w[3] != 1.0


class TestMultiConstraintWeights:
    def test_contributions_add_across_constraints(self):
        y = np.array([0, 1, 0, 1])
        c1 = _constraint(statistical_parity(), [0, 1], [2, 3])
        c2 = _constraint(misclassification_rate_parity(), [0, 1], [2, 3])
        w_both = compute_weights(4, [c1, c2], [0.1, 0.2], y)
        w1 = compute_weights(4, [c1], [0.1], y)
        w2 = compute_weights(4, [c2], [0.2], y)
        assert np.allclose(w_both - 1.0, (w1 - 1.0) + (w2 - 1.0))

    def test_lambda_shape_checked(self):
        y = np.array([0, 1])
        c = _constraint(statistical_parity(), [0], [1])
        with pytest.raises(ValueError, match="shape"):
            compute_weights(2, [c], [0.1, 0.2], y)

    def test_y_length_checked(self):
        c = _constraint(statistical_parity(), [0], [1])
        with pytest.raises(ValueError, match="length"):
            compute_weights(3, [c], [0.1], np.array([0, 1]))

    def test_parameterized_metric_needs_predictions(self):
        from repro.core.fairness_metrics import false_discovery_rate_parity

        y = np.array([0, 1, 0, 1])
        c = _constraint(false_discovery_rate_parity(), [0, 1], [2, 3])
        with pytest.raises(ValueError, match="predictions"):
            compute_weights(4, [c], [0.1], y)


class TestResolveNegativeWeights:
    def test_flip_preserves_objective(self):
        """w·1(h=y) and |w|·1(h=flip(y)) differ by a constant in h.

        The weighted count of correct predictions under the transformed
        data must equal the original objective plus a model-independent
        constant — checked for every possible prediction vector on a tiny
        example.
        """
        y = np.array([0, 1, 1, 0])
        w = np.array([1.0, -2.0, 0.5, -0.25])
        w2, y2 = resolve_negative_weights(w, y, strategy="flip")
        constant = None
        import itertools
        for pred in itertools.product([0, 1], repeat=4):
            pred = np.array(pred)
            original = np.sum(w * (pred == y))
            transformed = np.sum(w2 * (pred == y2))
            diff = transformed - original
            if constant is None:
                constant = diff
            assert diff == pytest.approx(constant)

    def test_flip_flips_labels(self):
        y = np.array([0, 1])
        w = np.array([-1.0, 1.0])
        w2, y2 = resolve_negative_weights(w, y)
        assert w2[0] == 1.0 and y2[0] == 1
        assert w2[1] == 1.0 and y2[1] == 1

    def test_clip_zeroes_negatives(self):
        w2, y2 = resolve_negative_weights(
            np.array([-1.0, 2.0]), np.array([0, 1]), strategy="clip"
        )
        assert w2.tolist() == [0.0, 2.0]
        assert y2.tolist() == [0, 1]

    def test_nonnegative_passthrough(self):
        w = np.array([0.5, 1.5])
        y = np.array([0, 1])
        w2, y2 = resolve_negative_weights(w, y)
        assert np.array_equal(w, w2) and np.array_equal(y, y2)

    def test_unknown_strategy_raises(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            resolve_negative_weights(
                np.array([-1.0]), np.array([0]), strategy="bogus"
            )


@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=50, deadline=None)
def test_weight_objective_identity_property(seed, lam):
    """Property (Eq. 12): Σ w_i·1_i / N == AP + λ·FP + constant.

    For random data, groups and predictions, the weighted objective equals
    accuracy plus λ times the disparity, up to the λ·(c0 terms) constant
    that does not depend on the model.
    """
    rng = np.random.default_rng(seed)
    n = 30
    y = rng.integers(0, 2, size=n)
    perm = rng.permutation(n)
    g1_idx, g2_idx = perm[: n // 2], perm[n // 2 :]
    metric = statistical_parity()
    c = _constraint(metric, g1_idx, g2_idx)
    w = compute_weights(n, [c], [lam], y)

    pred = rng.integers(0, 2, size=n)
    correct = (pred == y).astype(float)
    lhs = float(np.dot(w, correct)) / n

    ap = correct.mean()
    fp = metric.value(y[g1_idx], pred[g1_idx]) - metric.value(
        y[g2_idx], pred[g2_idx]
    )
    _, c0_1 = metric.coefficients(y[g1_idx])
    _, c0_2 = metric.coefficients(y[g2_idx])
    constant = lam * (c0_1 - c0_2)
    assert lhs == pytest.approx(ap + lam * fp - constant, abs=1e-9)


# -- one resolver for single vectors and (B, n) batches ----------------------


def _single_reference(w, y, strategy):
    """The single-vector resolver as it stood before batches were merged."""
    w = np.asarray(w, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    negative = w < 0
    if not np.any(negative):
        return w, y
    if strategy == "flip":
        return np.abs(w), np.where(negative, 1 - y, y)
    return np.where(negative, 0.0, w), y


def _batch_reference(W, y, strategy):
    """The fitter's former private (B, n) resolver."""
    negative = W < 0
    if strategy == "flip":
        return np.abs(W), np.where(negative, 1 - y, y)
    return np.where(negative, 0.0, W), np.broadcast_to(y, W.shape)


def _bytes(a):
    return np.ascontiguousarray(a).tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    batch=st.integers(1, 6),
    strategy=st.sampled_from(["flip", "clip"]),
    negatives=st.sampled_from(["none", "some", "all"]),
)
@settings(max_examples=80, deadline=None)
def test_merged_resolver_matches_both_former_paths(seed, n, batch, strategy,
                                                   negatives):
    """The resolved bytes key the fit cache and the store, so the merged
    resolver must reproduce both former paths byte for byte."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n).astype(np.int64)
    W = rng.normal(scale=3.0, size=(batch, n))
    if negatives == "none":
        W = np.abs(W)
    elif negatives == "all":
        W = -np.abs(W) - 0.5
    W += 0.0  # the kernels never emit -0.0; keep the draw honest

    w_res, y_res = resolve_negative_weights(W, y, strategy=strategy)
    w_ref, y_ref = _batch_reference(W, y, strategy)
    assert w_res.shape == y_res.shape == W.shape
    assert _bytes(w_res) == _bytes(w_ref)
    assert _bytes(y_res) == _bytes(y_ref)
    for b in range(batch):
        w_one, y_one = resolve_negative_weights(W[b], y, strategy=strategy)
        w_old, y_old = _single_reference(W[b], y, strategy)
        assert _bytes(w_one) == _bytes(w_old) == _bytes(w_res[b])
        assert _bytes(y_one) == _bytes(y_old) == _bytes(y_res[b])

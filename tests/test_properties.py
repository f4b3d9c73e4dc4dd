"""Property-based tests (hypothesis) on core data structures and invariants.

These complement the per-module unit tests with randomized checks of the
identities the system's correctness rests on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fairness_metrics import statistical_parity
from repro.core.spec import Constraint
from repro.core.weights import resolve_negative_weights
from repro.datasets import make_biased_dataset
from repro.ml import DecisionTree, LogisticRegression
from repro.ml.metrics import accuracy_score, roc_auc_score
from repro.ml.model_selection import train_val_test_split
from repro.ml.preprocessing import OneHotEncoder, StandardScaler
from repro.ml.replication import replicate_by_weight
from weight_oracle import compute_weights


# ---------------------------------------------------------------------------
# substrate invariants
# ---------------------------------------------------------------------------

@given(st.integers(0, 10_000), st.integers(5, 80))
@settings(max_examples=40, deadline=None)
def test_roc_auc_complement_symmetry(seed, n):
    """AUC(y, s) + AUC(y, -s) == 1 (reversing the ranking flips AUC)."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]
    s = rng.random(n)
    auc = roc_auc_score(y, s)
    assert auc + roc_auc_score(y, -s) == pytest.approx(1.0)
    assert 0.0 <= auc <= 1.0


@given(st.integers(0, 10_000), st.integers(3, 40))
@settings(max_examples=30, deadline=None)
def test_scaler_is_affine_invertible(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.normal(scale=rng.uniform(0.5, 5), size=(n, 3)) + rng.normal(size=3)
    scaler = StandardScaler().fit(X)
    assert np.allclose(scaler.inverse_transform(scaler.transform(X)), X)


@given(st.integers(0, 10_000), st.integers(4, 40))
@settings(max_examples=30, deadline=None)
def test_onehot_rows_sum_to_one_for_known(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, 2))
    enc = OneHotEncoder().fit(X)
    Z = enc.transform(X)
    assert np.allclose(Z.sum(axis=1), 2.0)  # one hot per column


@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_tree_prediction_probabilities_valid(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(np.int64)
    if len(np.unique(y)) < 2:
        return
    tree = DecisionTree(max_depth=4).fit(X, y)
    proba = tree.predict_proba(X)
    assert np.all((proba >= 0) & (proba <= 1))
    assert np.allclose(proba.sum(axis=1), 1.0)


@given(st.integers(0, 10_000), st.integers(3, 25))
@settings(max_examples=25, deadline=None)
def test_replication_preserves_weight_ratios(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    y = rng.integers(0, 2, size=n)
    w = rng.uniform(0.5, 2.0, size=n)
    Xr, yr = replicate_by_weight(X, y, w, resolution=200)
    counts = np.array(
        [np.sum((Xr == X[i]).all(axis=1)) for i in range(n)], dtype=float
    )
    assert np.allclose(counts / counts.sum(), w / w.sum(), atol=0.02)


# ---------------------------------------------------------------------------
# core identities
# ---------------------------------------------------------------------------

@given(st.integers(0, 10_000), st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_negative_weight_flip_objective_identity(seed, lam):
    """For ANY prediction vector, the flip transform changes the weighted
    correctness objective by a model-independent constant."""
    rng = np.random.default_rng(seed)
    n = 20
    y = rng.integers(0, 2, size=n)
    perm = rng.permutation(n)
    c = Constraint(
        metric=statistical_parity(),
        epsilon=0.05,
        group_names=("a", "b"),
        g1_idx=perm[: n // 2],
        g2_idx=perm[n // 2 :],
    )
    w = compute_weights(n, [c], [lam], y)
    w2, y2 = resolve_negative_weights(w, y, strategy="flip")
    assert np.all(w2 >= 0)
    diffs = set()
    for _ in range(8):
        pred = rng.integers(0, 2, size=n)
        original = float(np.dot(w, pred == y))
        transformed = float(np.dot(w2, pred == y2))
        diffs.add(round(transformed - original, 9))
    assert len(diffs) == 1  # constant offset


@given(st.integers(0, 50_000))
@settings(max_examples=10, deadline=None)
def test_dataset_generator_bias_direction(seed):
    """Configured base-rate ordering always survives generation."""
    d = make_biased_dataset(
        "p", 800, ("hi", "lo"), (0.5, 0.5), (0.6, 0.3), seed=seed
    )
    rates = d.base_rates()
    assert rates["hi"] > rates["lo"]


@given(st.integers(0, 10_000))
@settings(max_examples=8, deadline=None)
def test_split_partition_property(seed):
    tr, va, te = train_val_test_split(137, seed=seed)
    combined = np.sort(np.concatenate([tr, va, te]))
    assert np.array_equal(combined, np.arange(137))


# ---------------------------------------------------------------------------
# end-to-end monotone trade-off property (sampled seeds)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_lambda_sweep_monotone_disparity(seed):
    """Training-set SP disparity is (noise-tolerantly) non-decreasing in λ
    — the Lemma 2 property Algorithm 1's binary search rests on."""
    from repro.core.fitter import WeightedFitter
    from repro.core.spec import FairnessSpec, bind_specs

    d = make_biased_dataset(
        "m", 700, ("a", "b"), (0.55, 0.45), (0.55, 0.35),
        separation=0.8, seed=seed,
    )
    spec = FairnessSpec("SP", 0.03)
    constraints = bind_specs([spec], d)
    fitter = WeightedFitter(
        LogisticRegression(max_iter=200), d.X, d.y, constraints
    )
    constraint = constraints[0]
    disparities = []
    for lam in np.linspace(-0.4, 0.4, 9):
        model = fitter.fit(np.array([lam]))
        disparities.append(constraint.disparity(d.y, model.predict(d.X)))
    violations = -np.minimum(np.diff(disparities), 0)
    assert violations.max() < 0.03
    assert disparities[-1] > disparities[0]


@pytest.mark.parametrize("seed", [0, 1])
def test_accuracy_weight_tradeoff_consistency(seed):
    """Weighted accuracy at the training optimum is at least the weighted
    accuracy of the unconstrained model under the same weights (the
    learner actually optimizes the weighted objective)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, 4))
    y = (X[:, 0] + rng.normal(scale=0.8, size=300) > 0).astype(np.int64)
    w = rng.uniform(0.2, 3.0, size=300)
    plain = LogisticRegression(max_iter=300).fit(X, y)
    weighted = LogisticRegression(max_iter=300).fit(X, y, sample_weight=w)
    acc_weighted_model = accuracy_score(y, weighted.predict(X), sample_weight=w)
    acc_plain_model = accuracy_score(y, plain.predict(X), sample_weight=w)
    assert acc_weighted_model >= acc_plain_model - 0.02

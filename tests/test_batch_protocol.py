"""Batch-protocol conformance suite (ISSUE 3 satellite).

Every estimator advertising ``fit_weighted_batch`` / ``predict_batch``
is run against its serial path on random weighted problems
(hypothesis-backed):

* ``fit_weighted_batch(X, Y, W)[b]`` must equal
  ``clone().fit(X, Y[b], sample_weight=W[b])`` — bit-for-bit for trees,
  within the documented reduction-order tolerance for IRLS logistic
  regression and Gaussian NB (mismatching hard labels are allowed only
  on rows whose serial decision score sits within the tolerance of the
  0.5 boundary);
* ``predict_batch(models, X)[b]`` must match ``models[b].predict(X)``
  under the same rule;
* ``supports_batch_fit`` must gate configurations whose serial
  trajectory has no batched counterpart (lbfgs/gd logistic), and the
  fitter must honor the gate.

Every tree in :mod:`repro.ml` must also grow the node arrays of the
per-node-sort oracle (``tests/tree_oracle.py``) bit for bit.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nb_oracle
import tree_oracle
from repro.core.fitter import WeightedFitter
from repro.core.spec import Constraint
from repro.core.fairness_metrics import METRIC_FACTORIES
from repro.ml.boosting import GradientBoostedTrees
from repro.ml.forest import RandomForest
from repro.ml.logistic import LogisticRegression
from repro.ml.naive_bayes import GaussianNaiveBayes, _tile_rows, _tiles
from repro.ml.tree import DecisionTree

NODE_ARRAYS = ("feature_", "threshold_", "left_", "right_", "value_")

# (factory, decision margin below which a prediction flip is tolerated;
#  0.0 means predictions must match exactly)
BATCH_ESTIMATORS = {
    "nb": (lambda: GaussianNaiveBayes(), 1e-9),
    "logistic_irls": (
        lambda: LogisticRegression(solver="irls", max_iter=60), 1e-9,
    ),
    "tree": (lambda: DecisionTree(max_depth=5), 0.0),
    "tree_subspace": (
        lambda: DecisionTree(
            max_depth=4, max_features=2, min_samples_leaf=3, random_state=3
        ),
        0.0,
    ),
}


@st.composite
def weighted_problems(draw):
    """Random (X, Y, W) batches with flipped labels and spread weights."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(min_value=30, max_value=90))
    d = draw(st.integers(min_value=2, max_value=5))
    B = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if draw(st.booleans()):
        X[:, 0] = np.round(X[:, 0])  # ties exercise split tie-breaks
    y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(np.int64)
    if y.min() == y.max():
        y[: n // 2] = 1 - y[0]
    W = rng.uniform(0.1, 4.0, size=(B, n))
    Y = np.where(rng.random((B, n)) < 0.15, 1 - y, y)
    return X, Y, W


def _assert_predictions_match(got, want, scores, margin, context):
    """Exact match, except rows the serial model itself finds ambiguous."""
    mismatch = got != want
    if not mismatch.any():
        return
    assert margin > 0.0, f"{context}: exact match required, got mismatches"
    worst = float(np.min(np.abs(scores[mismatch])))
    assert worst <= margin, (
        f"{context}: {int(mismatch.sum())} prediction(s) differ on rows "
        f"with decision margin {worst:.3e} > {margin:.0e}"
    )


class TestConformance:
    @pytest.mark.parametrize("name", sorted(BATCH_ESTIMATORS))
    @settings(max_examples=25, deadline=None)
    @given(problem=weighted_problems())
    def test_batch_fit_matches_serial(self, name, problem):
        factory, margin = BATCH_ESTIMATORS[name]
        X, Y, W = problem
        proto = factory()
        assert proto.supports_batch_fit
        models = proto.fit_weighted_batch(X, Y, W)
        assert len(models) == len(Y)
        for b, model in enumerate(models):
            ref = factory().fit(X, Y[b], sample_weight=W[b])
            scores = ref.predict_proba(X)[:, 1] - 0.5
            _assert_predictions_match(
                model.predict(X), ref.predict(X), scores, margin,
                f"{name}[{b}] fit_weighted_batch",
            )

    @pytest.mark.parametrize("name", sorted(BATCH_ESTIMATORS))
    @settings(max_examples=25, deadline=None)
    @given(problem=weighted_problems())
    def test_predict_batch_matches_serial(self, name, problem):
        factory, margin = BATCH_ESTIMATORS[name]
        X, Y, W = problem
        models = [
            factory().fit(X, Y[b], sample_weight=W[b]) for b in range(len(Y))
        ]
        preds = type(models[0]).predict_batch(models, X)
        assert preds.shape == (len(Y), len(X))
        for b, model in enumerate(models):
            scores = model.predict_proba(X)[:, 1] - 0.5
            _assert_predictions_match(
                preds[b], model.predict(X), scores, margin,
                f"{name}[{b}] predict_batch",
            )

    def test_irls_coefficients_within_documented_tolerance(self):
        rng = np.random.default_rng(11)
        n, d, B = 200, 4, 6
        X = rng.normal(size=(n, d))
        y = (X[:, 0] - X[:, 1] + 0.4 * rng.normal(size=n) > 0).astype(
            np.int64
        )
        W = rng.uniform(0.2, 3.0, size=(B, n))
        Y = np.where(rng.random((B, n)) < 0.1, 1 - y, y)
        proto = LogisticRegression(solver="irls")
        for b, model in enumerate(proto.fit_weighted_batch(X, Y, W)):
            ref = LogisticRegression(solver="irls").fit(
                X, Y[b], sample_weight=W[b]
            )
            np.testing.assert_allclose(
                model.coef_, ref.coef_, rtol=1e-8, atol=1e-10
            )
            np.testing.assert_allclose(
                model.intercept_, ref.intercept_, rtol=1e-8, atol=1e-10
            )
            assert model.n_iter_ == ref.n_iter_

    @pytest.mark.parametrize(
        "factory",
        [GaussianNaiveBayes, lambda: LogisticRegression(solver="irls")],
        ids=["nb", "logistic_irls"],
    )
    def test_batch_fit_rejects_non_binary_labels(self, factory):
        # serial fit() refuses these; fitted, label 2 would give NB
        # priors of 1/3 and 1/3 and put 2.0 into the IRLS gradient
        X = np.random.default_rng(3).normal(size=(6, 2))
        Y = np.array([[0, 1, 2, 0, 1, 2], [0, 1, 1, 0, -1, 0]])
        with pytest.raises(ValueError, match=r"binary.*labels \[-1\s+2\]"):
            factory().fit_weighted_batch(X, Y, np.ones(Y.shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
    @pytest.mark.parametrize("name", sorted(BATCH_ESTIMATORS))
    def test_batch_fit_rejects_bad_weights(self, name, bad):
        # serial fit() refuses these; NB's batch fit once read a NaN
        # weight as an absent class (sw > 0 is False) and fitted on
        X = np.random.default_rng(4).normal(size=(8, 2))
        Y = np.array([[0, 1] * 4, [1, 0] * 4])
        W = np.ones(Y.shape)
        W[1, 3] = bad
        with pytest.raises(ValueError, match="finite|non-negative"):
            BATCH_ESTIMATORS[name][0]().fit_weighted_batch(X, Y, W)

    def test_tree_batch_is_bit_for_bit(self):
        rng = np.random.default_rng(5)
        n = 300
        X = rng.normal(size=(n, 5))
        X[:, 1] = np.round(X[:, 1] * 2) / 2
        y = (X[:, 0] > 0).astype(np.int64)
        W = rng.uniform(0.2, 2.0, size=(4, n))
        Y = np.where(rng.random((4, n)) < 0.1, 1 - y, y)
        # one candidate exercises the zero-weight fallback
        W[2, rng.choice(n, size=20, replace=False)] = 0.0
        proto = DecisionTree(max_depth=6)
        for b, model in enumerate(proto.fit_weighted_batch(X, Y, W)):
            ref = DecisionTree(max_depth=6).fit(X, Y[b], sample_weight=W[b])
            for attr in ("feature_", "threshold_", "left_", "right_",
                         "value_"):
                assert np.array_equal(
                    getattr(model, attr), getattr(ref, attr)
                ), (b, attr)


@st.composite
def nb_problems(draw):
    """NB batch problems for the oracle: ±0 weights, absent classes,
    offset columns, C or Fortran order, and a scoring matrix whose row
    count sits at 0, 1 or either side of a row-tile edge of the batch
    predict or the lone joint log-likelihood."""
    seed = draw(st.integers(0, 2**32 - 1))
    B = draw(st.integers(min_value=1, max_value=33))
    d = draw(st.integers(min_value=1, max_value=20))
    n_fit = draw(st.integers(min_value=1, max_value=60))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_fit, d)) * 10.0 ** rng.integers(-2, 3, size=d)
    X += rng.choice([0.0, 0.0, 1e3], size=d)
    X[rng.random(X.shape) < 0.1] = draw(st.sampled_from([0.0, -0.0]))
    Y = rng.integers(0, 2, size=(B, n_fit))
    Y[rng.random(B) < 0.2] = draw(st.integers(0, 1))   # one class absent
    W = rng.choice([0.0, -0.0, 0.25, 1.0, 3.5], size=(B, n_fit))
    W[:, 0] = rng.uniform(0.5, 2.0, size=B)   # every row sums above zero
    rows = draw(st.sampled_from([
        _tile_rows((2 * B + d) * 2 * 8), _tile_rows(d * 8),
    ]))
    tiles = draw(st.integers(min_value=1, max_value=2))
    n = draw(st.sampled_from(
        [0, 1, 2] + [tiles * rows + delta for delta in (-1, 0, 1, 2)]
    ))
    X_score = rng.normal(size=(n, d)) * 3.0 + X.mean(axis=0)
    if draw(st.booleans()):
        X_score = np.asfortranarray(X_score)
    return X, Y, W, X_score


class TestNaiveBayesOracle:
    """NB's buffer-reusing batch fit and row-tiled scoring equal the
    12.0.0 whole-matrix code (``nb_oracle.py``) bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(problem=nb_problems())
    def test_batch_moments_match_the_oracle(self, problem):
        X, Y, W, _ = problem
        theta, var, prior = nb_oracle.batch_moments(X, Y, W)
        models = GaussianNaiveBayes().fit_weighted_batch(X, Y, W)
        for b, model in enumerate(models):
            assert model.theta_.tobytes() == theta[b].tobytes(), b
            assert model.var_.tobytes() == var[b].tobytes(), b
            assert model.class_prior_.tobytes() == prior[b].tobytes(), b

    @settings(max_examples=60, deadline=None)
    @given(problem=nb_problems())
    def test_scores_match_the_oracle(self, problem):
        X, Y, W, X_score = problem
        models = GaussianNaiveBayes().fit_weighted_batch(X, Y, W)
        with np.errstate(all="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # mean of 0 rows
            want = nb_oracle.predict_batch(models, X_score)
            got = GaussianNaiveBayes.predict_batch(models, X_score)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        model = models[0]
        got = model._joint_log_likelihood(X_score)
        want = nb_oracle.joint_log_likelihood(model, X_score)
        assert got.tobytes() == want.tobytes()

    def test_a_lone_trailing_row_joins_the_tile_before_it(self):
        # alone, the last row of this Fortran-order matrix would sum its
        # 16 terms pairwise instead of in column order
        d = 16
        rows = _tile_rows(d * 8)
        assert list(_tiles(1, rows)) == [(0, 1)]
        assert list(_tiles(rows + 1, rows)) == [(0, rows + 1)]
        assert list(_tiles(2 * rows + 1, rows)) == [
            (0, rows), (rows, 2 * rows + 1),
        ]
        rng = np.random.default_rng(1)
        X = np.asfortranarray(rng.normal(size=(rows + 1, d)) * 10)
        model = GaussianNaiveBayes().fit(X, (X[:, 0] > 0).astype(int))
        got = model._joint_log_likelihood(X)
        want = nb_oracle.joint_log_likelihood(model, X)
        assert got.tobytes() == want.tobytes()


def _assert_same_nodes(got, want, context):
    """Node arrays equal bit for bit, dtypes included."""
    assert len(got) == len(want) == 5, context
    for name, a, b in zip(NODE_ARRAYS, got, want):
        assert a.dtype == b.dtype, (context, name, a.dtype, b.dtype)
        assert a.tobytes() == b.tobytes(), (context, name)


def _tree_nodes(tree):
    return tuple(getattr(tree, attr) for attr in NODE_ARRAYS)


@st.composite
def tree_problems(draw):
    """Weighted problems that stress split selection: duplicated columns,
    quantized ties, zero weights, and every knob that prunes a split."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(min_value=8, max_value=80))
    d = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    if draw(st.booleans()):
        X = np.round(X * 2) / 2                 # within-feature ties
    if d > 1 and draw(st.booleans()):
        X[:, -1] = X[:, 0]                      # cross-feature ties
    y = (X[:, 0] + 0.7 * rng.normal(size=n) > 0).astype(np.int64)
    w = rng.uniform(0.1, 3.0, size=n)
    if draw(st.booleans()):
        w[rng.random(n) < 0.25] = 0.0
        w[0] = max(w[0], 0.5)                   # keep one positive row
    max_features = draw(st.sampled_from([None, 1, max(1, d - 1), d + 1]))
    tree = dict(
        max_depth=draw(st.integers(0, 6)),
        min_samples_split=draw(st.integers(2, 6)),
        min_samples_leaf=draw(st.integers(1, 4)),
        max_features=max_features,
        random_state=seed % 1000,
    )
    boost = dict(
        n_estimators=draw(st.integers(1, 4)),
        max_depth=draw(st.integers(0, 4)),
        min_child_weight=draw(st.sampled_from([0.0, 1e-3, 0.5, 2.0])),
        gamma=draw(st.sampled_from([0.0, 0.02, 0.5])),
        reg_lambda=draw(st.sampled_from([0.5, 1.0])),
        max_features=max_features,
        random_state=seed % 1000,
    )
    return X, y, w, tree, boost


class TestTreeOracle:
    """The one presorted builder grows the per-node-sort oracle's trees."""

    @settings(max_examples=60, deadline=None)
    @given(problem=tree_problems())
    def test_every_tree_matches_the_oracle(self, problem):
        X, y, w, tree, boost = problem
        got = DecisionTree(**tree).fit(X, y, sample_weight=w)
        _assert_same_nodes(
            _tree_nodes(got),
            tree_oracle.tree_arrays(X, y, w, **tree),
            "DecisionTree",
        )

        gbt = GradientBoostedTrees(**boost).fit(X, y, sample_weight=w)
        base, rounds, raw = tree_oracle.boosted_rounds(X, y, w, **boost)
        assert gbt.base_score_ == base
        assert len(gbt.trees_) == len(rounds)
        for r, (got_round, want_round) in enumerate(zip(gbt.trees_, rounds)):
            _assert_same_nodes(got_round, want_round, f"round {r}")
        assert gbt.decision_function(X).tobytes() == raw.tobytes()

        forest = RandomForest(
            n_estimators=3, max_depth=tree["max_depth"],
            min_samples_leaf=tree["min_samples_leaf"], bootstrap=False,
            random_state=tree["random_state"],
        ).fit(X, y, sample_weight=w)
        for t, member in enumerate(forest.trees_):
            _assert_same_nodes(
                _tree_nodes(member),
                tree_oracle.tree_arrays(X, y, w, **member.get_params()),
                f"forest tree {t}",
            )


class TestPresortTieBreaks:
    """The presorted builder picks the oracle's splits even when gains
    tie — across features (duplicated columns must both resolve to the
    first candidate in feature order) and within a feature (heavily
    quantized values give equal-gain positions)."""

    def test_duplicated_columns_tie_break_identically(self):
        rng = np.random.default_rng(21)
        n = 400
        base = np.round(rng.normal(size=n) * 2) / 2
        X = np.column_stack([
            base,
            base.copy(),           # exact duplicate: cross-feature ties
            rng.normal(size=n),
        ])
        y = (base + 0.3 * rng.normal(size=n) > 0).astype(np.int64)
        w = rng.uniform(0.5, 1.5, size=n)
        oracle = tree_oracle.tree_arrays(X, y, w, max_depth=6)
        fast = DecisionTree(max_depth=6).fit(X, y, sample_weight=w)
        for attr, want in zip(NODE_ARRAYS, oracle):
            assert np.array_equal(want, getattr(fast, attr))
        # the duplicate-column tie genuinely occurred and resolved to
        # the first feature in candidate order
        split_feats = oracle[0][oracle[0] >= 0]
        assert 0 in split_feats and 1 not in split_feats

    def test_quantized_within_feature_ties_break_identically(self):
        rng = np.random.default_rng(22)
        n = 300
        X = rng.integers(0, 4, size=(n, 3)).astype(np.float64)
        y = ((X[:, 0] + X[:, 1] > 3)
             ^ (rng.random(n) < 0.1)).astype(np.int64)
        w = np.ones(n)
        w[rng.choice(n, size=40, replace=False)] = 2.0
        oracle = tree_oracle.tree_arrays(X, y, w, max_depth=8)
        fast = DecisionTree(max_depth=8).fit(X, y, sample_weight=w)
        for attr, want in zip(NODE_ARRAYS, oracle):
            assert np.array_equal(want, getattr(fast, attr))


class TestPresortLifetime:
    def test_batch_fits_leave_the_estimator_as_built(self):
        # the presort lives for one fit_weighted_batch call: after a
        # grid solve (batch protocol) the caller's estimator holds no
        # training matrix or argsort, only its constructor knobs
        from repro.api import Engine
        from repro.datasets import load

        est = DecisionTree(max_depth=4)
        fm = Engine("grid", grid_steps=3, grid_max=2.0).solve(
            "SP <= 0.2", est, load("adult", n=3000, seed=0), seed=0,
        )
        assert fm.report.fit_paths["batch_protocol"] > 0
        assert vars(est) == vars(DecisionTree(max_depth=4))


class TestGating:
    def _fitter(self, estimator, **kwargs):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(120, 3))
        y = (X[:, 0] > 0).astype(np.int64)
        groups = rng.integers(0, 2, size=120)
        constraint = Constraint(
            metric=METRIC_FACTORIES["SP"](), epsilon=0.05,
            group_names=("a", "b"),
            g1_idx=np.nonzero(groups == 0)[0],
            g2_idx=np.nonzero(groups == 1)[0],
        )
        return WeightedFitter(estimator, X, y, [constraint], **kwargs), X

    def test_unsupported_solver_gates_batch_path(self):
        assert not LogisticRegression(solver="lbfgs").supports_batch_fit
        assert not LogisticRegression(solver="gd").supports_batch_fit
        assert LogisticRegression(solver="irls").supports_batch_fit
        with pytest.raises(ValueError, match="irls"):
            LogisticRegression(solver="lbfgs").fit_weighted_batch(
                np.zeros((4, 2)), np.zeros((1, 4), dtype=int),
                np.ones((1, 4)),
            )

    def test_fitter_honors_gate(self):
        # lbfgs logistic: fit_batch must take the serial path, and its
        # models must equal per-candidate serial fits
        fitter, X = self._fitter(LogisticRegression(max_iter=30))
        L = np.array([[0.0], [0.4]])
        models = fitter.fit_batch(L)
        assert fitter.fit_paths.get("batch_protocol", 0) == 0
        assert fitter.fit_paths.get("serial", 0) == len(L)
        serial, _ = self._fitter(LogisticRegression(max_iter=30))
        for b, model in enumerate(models):
            ref = serial.fit(L[b])
            assert np.array_equal(model.predict(X), ref.predict(X))

    def test_fitter_uses_batch_protocol_when_supported(self):
        assert DecisionTree().supports_batch_fit
        fitter, _X = self._fitter(
            LogisticRegression(solver="irls", max_iter=30)
        )
        fitter.fit_batch(np.array([[0.0], [0.4]]))
        assert fitter.fit_paths.get("batch_protocol", 0) == 2

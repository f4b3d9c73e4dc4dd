"""Logistic-regression kernels: the fit oracle and both IRLS Hessian branches.

The contract under test:

* ``sigmoid`` and the ``"lbfgs"``/``"gd"`` objective match the plain
  expressions of the fit oracle (``tests/fit_oracle.py``) **bit for
  bit**, including ±0, ±800, ±inf and NaN inputs and saturated
  probabilities;
* the IRLS solver's two Gauss–Newton branches — materialized per-row
  Gram blocks, and one weighted-Gram dgemm per candidate above
  :data:`repro.ml.logistic.GRAM_BLOCKS_MAX` — agree to the documented
  reduction-order tolerance with equal iteration counts, serially and
  for batches of several candidates.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import fit_oracle
from repro.ml import logistic
from repro.ml.logistic import LogisticRegression

SPECIALS = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan])


def _bits(a):
    """Raw float64 bit patterns, so ±0 and NaN payloads must match too."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestFitOracle:
    @settings(max_examples=100, deadline=None)
    @given(z=arrays(np.float64, array_shapes(max_dims=2, max_side=64)))
    @example(z=SPECIALS)
    @example(z=np.stack([SPECIALS, -SPECIALS]))
    def test_sigmoid_matches_oracle_bitwise(self, z):
        assert np.array_equal(
            _bits(logistic.sigmoid(z)), _bits(fit_oracle.sigmoid(z))
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 120),
        d=st.integers(1, 6),
        scale=st.sampled_from([0.01, 1.0, 10.0, 100.0]),
        l2=st.sampled_from([0.0, 1e-4, 0.3]),
    )
    def test_objective_matches_two_log_oracle_bitwise(
        self, seed, n, d, scale, l2
    ):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n)
        w = rng.uniform(0.0, 5.0, size=n)
        w[rng.random(n) < 0.2] = 0.0
        w[0] = 1.0
        loss_grad = LogisticRegression(l2=l2)._objective(X, y, w)
        # two evaluations: the closure's scratch must not leak between them
        for _ in range(2):
            coef = rng.normal(scale=scale, size=d)
            intercept = float(rng.normal(scale=scale))
            got = loss_grad(coef, intercept)
            want = fit_oracle.loss_grad(l2, X, y, w, coef, intercept)
            for g, t in zip(got, want):
                assert np.array_equal(_bits(g), _bits(t))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), B=st.integers(1, 4))
    def test_batched_log_likelihood_rows_equal_single_rows(self, seed, B):
        # the IRLS loss reduces a (B, n) stack along its last axis; each
        # row must reduce exactly as the 1-D objective does
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        prob = logistic.sigmoid(rng.normal(scale=5.0, size=(B, n)))
        yf = rng.integers(0, 2, size=(B, n)).astype(np.float64)
        w = rng.uniform(0.0, 3.0, size=(B, n))
        scratch = np.empty((2, B, n))
        rows = logistic._neg_log_likelihood(prob, yf, 1.0 - yf, w, *scratch)
        for b in range(B):
            one = logistic._neg_log_likelihood(
                prob[b], yf[b], 1.0 - yf[b], w[b], *scratch[:, b]
            )
            assert _bits(rows[b]) == _bits(one)


@st.composite
def irls_problems(draw):
    """Small noisy (X, Y, W) batches: flipped labels, spread weights."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_value=30, max_value=90))
    d = draw(st.integers(min_value=1, max_value=5))
    B = draw(st.integers(min_value=2, max_value=4))
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(np.int64)
    W = rng.uniform(0.1, 4.0, size=(B, n))
    Y = np.where(rng.random((B, n)) < 0.15, 1 - y, y)
    Y[:, 0], Y[:, 1] = 0, 1
    return X, Y, W


def _assert_same_fit(got, want):
    np.testing.assert_allclose(got.coef_, want.coef_, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(
        got.intercept_, want.intercept_, rtol=1e-8, atol=1e-10
    )
    assert got.n_iter_ == want.n_iter_


class TestIrlsHessianBranches:
    """Small problems are forced onto the large-n branch by lowering the
    threshold; the Gram-block branch they take by default is the
    reference."""

    @staticmethod
    def _fit(X, y, w):
        return LogisticRegression(solver="irls", max_iter=60).fit(
            X, y, sample_weight=w
        )

    @settings(max_examples=25, deadline=None)
    @given(problem=irls_problems())
    def test_serial_dgemm_branch_matches_gram_blocks(self, problem):
        X, Y, W = problem
        blocks = [self._fit(X, Y[b], W[b]) for b in range(len(Y))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(logistic, "GRAM_BLOCKS_MAX", 0)
            dgemm = [self._fit(X, Y[b], W[b]) for b in range(len(Y))]
        for got, want in zip(dgemm, blocks):
            _assert_same_fit(got, want)

    @settings(max_examples=25, deadline=None)
    @given(problem=irls_problems())
    def test_batched_dgemm_branch_matches_serial(self, problem):
        X, Y, W = problem
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(logistic, "GRAM_BLOCKS_MAX", 0)
            batch = LogisticRegression(
                solver="irls", max_iter=60
            ).fit_weighted_batch(X, Y, W)
            serial = [self._fit(X, Y[b], W[b]) for b in range(len(Y))]
        for got, want in zip(batch, serial):
            _assert_same_fit(got, want)

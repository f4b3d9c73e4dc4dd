"""Weighted logistic regression trained by full-batch gradient descent.

This is the workhorse model of the paper's evaluation (it is the one model
every baseline supports).  It natively accepts ``sample_weight`` and
implements the ``warm_start`` optimization the paper measures in Table 6:
when warm starting, a refit reuses the previous coefficients as the
initialization, which shortens convergence for nearby λ values.

Under ``solver="irls"`` the model additionally implements the optional
**batch protocol** (:meth:`LogisticRegression.fit_weighted_batch` /
:meth:`LogisticRegression.predict_batch`): a whole ``(B, n)`` matrix of
per-candidate weights is fitted by running the *same* damped-Newton
(IRLS) iteration over every candidate at once — one shared design
matrix, per-candidate Hessians solved with one batched
``np.linalg.solve``, per-candidate convergence/backtracking masks — and
the fitted batch predicts through a single dgemm.  The batched
trajectory commits, per candidate, the same updates as the serial
``solver="irls"`` path; results agree to BLAS summation-order round-off
(coefficients typically match to ~1e-10 relative — the documented
tolerance, asserted in ``tests/test_batch_protocol.py``), not bit for
bit, because ``(B, d)`` matmuls and ``(d,)`` matvecs reduce in
different orders.

The Gauss–Newton Hessian has two branches, chosen by ``n·(d+1)²``
against :data:`GRAM_BLOCKS_MAX`: per-row Gram blocks materialized once
with one dgemm for all candidates, or one weighted-Gram dgemm per
candidate (see :meth:`LogisticRegression._irls_core`).  The loss,
gradient and curvature run as in-place ufuncs in the per-element
operation order of the plain expressions in ``tests/fit_oracle.py``, so
they match those bit for bit.
"""

from __future__ import annotations

import numpy as np

from .base import (
    BaseClassifier,
    _sigmoid_into,
    check_binary_labels,
    check_sample_weight,
    check_Xy,
    labels_from_log_odds,
    sigmoid,
    sigmoid_of_log_odds,
)

__all__ = ["GRAM_BLOCKS_MAX", "LogisticRegression", "sigmoid"]

# Largest n·(d+1)² for which IRLS materializes the per-row Gram blocks
# (~32 MB of float64); wider or longer designs take the per-candidate
# weighted-Gram dgemm, whose scratch is O(n·(d+1))
GRAM_BLOCKS_MAX = 4_000_000

# cross-entropy log guard: log(p + eps) stays finite at p = 0
_EPS = 1e-12


def _neg_log_likelihood(prob, yf, nf, w, out, tmp):
    """``-Σ w·log(p̂ + eps)`` along the last axis, ``p̂`` the probability
    of the observed label.

    ``yf``/``nf`` are the float labels and ``1 - yf``.  For 0/1 labels
    ``y·p + (1-y)·(1-p)`` is exactly ``p`` or ``1 - p`` (the other
    product is ``+0``), and the dropped term of the two-log
    cross-entropy ``y·log(p+eps) + (1-y)·log(1-p+eps)`` is ``±0`` times
    a finite log, so this equals that form bit for bit with one log per
    element.  ``out`` and ``tmp`` are scratch of ``prob``'s shape.
    """
    np.subtract(1.0, prob, out=out)
    out *= nf
    np.multiply(yf, prob, out=tmp)
    out += tmp
    out += _EPS
    np.log(out, out=out)
    out *= w
    return -np.sum(out, axis=-1)


class LogisticRegression(BaseClassifier):
    """L2-regularized logistic regression.

    Parameters
    ----------
    learning_rate : float
        Step size for the ``"gd"`` solver (with simple backtracking
        halving on loss increase).
    max_iter : int
        Maximum number of iterations.
    tol : float
        Stop when the max absolute gradient component falls below this.
    l2 : float
        L2 penalty strength on the (non-intercept) coefficients.
    warm_start : bool
        If True, refitting starts from the previous solution — the Table 6
        optimization.  The benefit is largest with the quasi-Newton
        solver, whose iteration count scales with the distance from the
        initialization to the optimum.
    solver : {"lbfgs", "gd", "irls"}
        ``"lbfgs"`` (default) minimizes with scipy's L-BFGS-B on our
        loss/gradient; ``"gd"`` is the dependency-free full-batch
        gradient descent; ``"irls"`` is damped Newton (iteratively
        reweighted least squares) — the only solver with a batched
        counterpart (:meth:`fit_weighted_batch`), since its update is a
        linear solve that vectorizes over candidates.
    random_state : int
        Seed for the (zero-mean, tiny) coefficient initialization.
    """

    def __init__(
        self,
        learning_rate=0.5,
        max_iter=400,
        tol=1e-6,
        l2=1e-4,
        warm_start=False,
        solver="lbfgs",
        random_state=0,
    ):
        self.learning_rate = learning_rate
        self.max_iter = max_iter
        self.tol = tol
        self.l2 = l2
        self.warm_start = warm_start
        self.solver = solver
        self.random_state = random_state
        self.coef_ = None
        self.intercept_ = 0.0
        self.n_iter_ = 0
        self._fitted = False

    def _objective(self, X, y, w):
        """``loss_grad(coef, intercept) -> (loss, grad_coef, grad_int)``.

        Weighted mean cross-entropy plus the l2 penalty, for the
        ``"lbfgs"`` and ``"gd"`` solvers.  The weight total, the float
        labels and two ``(n,)`` scratch buffers are set up once per fit;
        each evaluation allocates only its linear scores.
        """
        w_sum = w.sum()
        yf = y.astype(np.float64)
        nf = 1.0 - yf
        buf, tmp = np.empty((2, len(y)))

        def loss_grad(coef, intercept):
            z = X @ coef
            z += intercept
            p = _sigmoid_into(z, z, tmp)
            loss = _neg_log_likelihood(p, yf, nf, w, buf, tmp) / w_sum
            loss += 0.5 * self.l2 * np.dot(coef, coef)
            resid = np.subtract(p, yf, out=buf)
            resid *= w
            resid /= w_sum
            return loss, X.T @ resid + self.l2 * coef, resid.sum()

        return loss_grad

    def fit(self, X, y, sample_weight=None):
        """Minimize weighted cross-entropy via gradient descent."""
        X, y = check_Xy(X, y)
        w = check_sample_weight(sample_weight, len(y))
        n_features = X.shape[1]
        warm = (
            self.warm_start and self._fitted and self.coef_ is not None
            and len(self.coef_) == n_features
        )
        if warm:
            coef = self.coef_.copy()
            intercept = float(self.intercept_)
        else:
            rng = np.random.default_rng(self.random_state)
            coef = rng.normal(scale=1e-3, size=n_features)
            intercept = 0.0

        if self.solver == "lbfgs":
            coef, intercept, n_iter = self._fit_lbfgs(X, y, w, coef, intercept)
        elif self.solver == "gd":
            coef, intercept, n_iter = self._fit_gd(X, y, w, coef, intercept)
        elif self.solver == "irls":
            coef, intercept, n_iter = self._fit_irls(X, y, w, coef, intercept)
        else:
            raise ValueError(
                f"unknown solver {self.solver!r}; use 'lbfgs', 'gd', or "
                f"'irls'"
            )
        self.coef_ = coef
        self.intercept_ = float(intercept)
        self.n_iter_ = n_iter
        self._fitted = True
        return self

    def _fit_lbfgs(self, X, y, w, coef, intercept):
        """Quasi-Newton minimization of our loss via scipy's L-BFGS-B."""
        from scipy.optimize import minimize

        loss_grad = self._objective(X, y, w)

        def fun(params):
            loss, g_coef, g_int = loss_grad(params[:-1], params[-1])
            return loss, np.concatenate([g_coef, [g_int]])

        x0 = np.concatenate([coef, [intercept]])
        res = minimize(
            fun, x0, jac=True, method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        return res.x[:-1], float(res.x[-1]), int(res.nit)

    def _fit_gd(self, X, y, w, coef, intercept):
        """Dependency-free full-batch gradient descent with backtracking."""
        lr = float(self.learning_rate)
        loss_grad = self._objective(X, y, w)
        loss, g_coef, g_int = loss_grad(coef, intercept)
        iteration = -1
        for iteration in range(self.max_iter):
            grad_inf = max(np.max(np.abs(g_coef)), abs(g_int))
            if grad_inf < self.tol:
                break
            new_coef = coef - lr * g_coef
            new_int = intercept - lr * g_int
            new_loss, new_g_coef, new_g_int = loss_grad(new_coef, new_int)
            if new_loss <= loss + 1e-12:
                coef, intercept = new_coef, new_int
                loss, g_coef, g_int = new_loss, new_g_coef, new_g_int
                lr *= 1.05  # cautious acceleration
            else:
                lr *= 0.5  # backtrack
                if lr < 1e-10:
                    break
        return coef, intercept, iteration + 1

    def _fit_irls(self, X, y, w, coef, intercept):
        """Damped Newton (IRLS): the serial twin of the batched solver.

        Runs :meth:`_irls_core` with a batch of one so the serial and
        batched paths share every update rule, threshold, and damping
        constant — their results differ only by BLAS reduction order.
        """
        Xa = np.column_stack([X, np.ones(len(y))])
        params = np.concatenate([coef, [intercept]])[None, :]
        params, n_iter = self._irls_core(
            Xa, y[None, :].astype(np.float64), w[None, :], params
        )
        return params[0, :-1], float(params[0, -1]), int(n_iter[0])

    def _irls_core(self, Xa, Yf, W, params):
        """Newton/IRLS over a whole candidate batch at once.

        Parameters
        ----------
        Xa : ndarray (n, d+1)
            Shared design matrix with an appended all-ones column.
        Yf : ndarray (B, n)
            Per-candidate float labels.
        W : ndarray (B, n)
            Per-candidate non-negative sample weights.
        params : ndarray (B, d+1)
            Initial ``[coef..., intercept]`` rows, updated in place.

        Every iteration solves all active candidates' regularized Newton
        systems with one batched ``np.linalg.solve`` and backtracks the
        step per candidate (halving on loss increase, like the ``"gd"``
        solver).  Converged or stuck candidates leave the active set, so
        total work tracks each candidate's own iteration count rather
        than the batch maximum; while every candidate improves, the
        per-candidate arrays carry forward without copies.

        The Gauss–Newton term ``Xaᵀ diag(s_b) Xa`` takes one of two
        branches by size.  Up to :data:`GRAM_BLOCKS_MAX` entries
        (``n·(d+1)²``), the per-row Gram blocks ``x_i x_iᵀ`` are
        materialized once, making every candidate's Hessian one row of a
        single ``(a, n) @ (n, (d+1)²)`` dgemm.  Above it, each active
        candidate's Hessian is one weighted-Gram dgemm
        ``(s_b ⊙ Xa)ᵀ Xa`` through an ``(n, d+1)`` scratch matrix, so
        memory stays O(n·(d+1)) however wide the design or the batch.
        The Hessian is PD by construction (PSD Gauss–Newton term + the
        l2 diagonal + a 1e-10 damping floor), so the solve cannot fail
        on separable data.
        """
        B, n = Yf.shape
        d = Xa.shape[1] - 1
        l2_vec = np.zeros(d + 1)
        l2_vec[:d] = self.l2
        ridge = l2_vec + 1e-10
        gram = xs = None
        if n * (d + 1) ** 2 <= GRAM_BLOCKS_MAX:
            gram = (Xa[:, :, None] * Xa[:, None, :]).reshape(n, -1)
        else:
            xs = np.empty_like(Xa)
        # (B, n) scratch pair: every (a, n) temporary of an iteration is
        # a leading-row view, which stays contiguous
        work, spare = np.empty((2, B, n))

        def loss_prob(P, Ws, Ys, Ns, ws):
            a = len(P)
            prob = P @ Xa.T
            _sigmoid_into(prob, prob, work[:a])
            ll = _neg_log_likelihood(prob, Ys, Ns, Ws, work[:a], spare[:a])
            loss = ll / ws + 0.5 * self.l2 * np.sum(
                P[:, :d] * P[:, :d], axis=1
            )
            return loss, prob

        def grad_of(P, prob, Ws, Ys, ws):
            resid = np.subtract(prob, Ys, out=work[: len(P)])
            resid *= Ws
            resid /= ws[:, None]
            return resid @ Xa + l2_vec[None, :] * P

        n_iter = np.zeros(B, dtype=np.int64)
        active = np.arange(B)
        Ws, Ys, Ns, ws = W, Yf, 1.0 - Yf, W.sum(axis=1)
        P = params[active]
        loss, prob = loss_prob(P, Ws, Ys, Ns, ws)
        grad = grad_of(P, prob, Ws, Ys, ws)
        diag = np.arange(d + 1)
        for _ in range(self.max_iter):
            live = np.max(np.abs(grad), axis=1) >= self.tol
            if not live.all():
                active = active[live]
                if active.size == 0:
                    break
                P, loss, prob, grad = (
                    P[live], loss[live], prob[live], grad[live]
                )
                Ws, Ys, Ns, ws = Ws[live], Ys[live], Ns[live], ws[live]
            a = active.size
            S = np.multiply(Ws, prob, out=work[:a])
            S *= np.subtract(1.0, prob, out=spare[:a])
            S /= ws[:, None]
            if gram is not None:
                H = (S @ gram).reshape(a, d + 1, d + 1)
            else:
                H = np.empty((a, d + 1, d + 1))
                for b in range(a):
                    np.multiply(S[b][:, None], Xa, out=xs)
                    H[b] = xs.T @ Xa
            H[:, diag, diag] += ridge
            delta = np.linalg.solve(H, grad[..., None])[..., 0]

            t = np.ones((a, 1))
            cand = P - delta
            new_loss, new_prob = loss_prob(cand, Ws, Ys, Ns, ws)
            for _halving in range(30):
                bad = (new_loss > loss + 1e-12) & (t[:, 0] > 1e-8)
                if not bad.any():
                    break
                t[bad, 0] *= 0.5
                # only the straggler rows changed their step size; rows
                # that already pass keep their evaluated loss/prob
                cand[bad] = P[bad] - t[bad] * delta[bad]
                sub_loss, sub_prob = loss_prob(
                    cand[bad], Ws[bad], Ys[bad], Ns[bad], ws[bad]
                )
                new_loss[bad] = sub_loss
                new_prob[bad] = sub_prob
            improved = new_loss <= loss + 1e-12
            if not improved.any():
                # every remaining candidate is stuck: fully-backtracked
                # Newton steps no longer improve — working precision
                break
            if not improved.all():
                # candidates whose step could not improve leave the
                # active set
                active, cand = active[improved], cand[improved]
                new_loss, new_prob = new_loss[improved], new_prob[improved]
                Ws, Ys, Ns, ws = (
                    Ws[improved], Ys[improved], Ns[improved], ws[improved]
                )
            params[active] = cand
            n_iter[active] += 1
            # the improved candidates carry their evaluated loss/prob
            # forward
            P, loss, prob = cand, new_loss, new_prob
            grad = grad_of(P, prob, Ws, Ys, ws)
        return params, n_iter

    # -- batch protocol (used by the compiled λ-search engine) ---------------

    @property
    def supports_batch_fit(self):
        """Batch fitting requires the vectorizable Newton solver.

        ``"lbfgs"``/``"gd"`` trajectories cannot be reproduced in batch
        form, so advertising ``fit_weighted_batch`` under those solvers
        would silently change results; the compiled engine checks this
        flag and falls back to per-candidate ``fit()`` when False.
        """
        return self.solver == "irls"

    def fit_weighted_batch(self, X, y_batch, w_batch):
        """Fit one model per ``(y, w)`` row pair via batched IRLS.

        Parameters
        ----------
        X : ndarray (n, d)
            Shared training features.
        y_batch : ndarray (B, n)
            Per-candidate labels (negative-weight resolution may flip
            labels differently per candidate).
        w_batch : ndarray (B, n)
            Per-candidate non-negative sample weights.

        Returns
        -------
        list of fitted :class:`LogisticRegression`, one per candidate.
        Each is the same damped-Newton trajectory as
        ``clone().fit(X, y_b, sample_weight=w_b)`` under
        ``solver="irls"``; coefficients agree with the serial fits to
        BLAS reduction-order round-off (documented tolerance ~1e-10
        relative, tested in ``tests/test_batch_protocol.py``).

        Requires ``solver="irls"`` (see :attr:`supports_batch_fit`).
        """
        if self.solver != "irls":
            raise ValueError(
                "fit_weighted_batch requires solver='irls'; the "
                f"{self.solver!r} trajectory has no batched counterpart"
            )
        X, _ = check_Xy(X)
        Y = check_binary_labels(y_batch)
        W = np.asarray(w_batch, dtype=np.float64)
        if Y.shape != W.shape or Y.ndim != 2 or Y.shape[1] != len(X):
            raise ValueError(
                f"y_batch/w_batch must both be (B, {len(X)}); got "
                f"{Y.shape} and {W.shape}"
            )
        if not np.all(np.isfinite(W)) or np.any(W < 0):
            raise ValueError("w_batch must be finite and non-negative")
        if np.any(W.sum(axis=1) <= 0):
            raise ValueError("sample weights sum to zero")
        n, d = X.shape
        # every serial fit re-seeds its init rng, so all candidates
        # share the same starting point
        rng = np.random.default_rng(self.random_state)
        init = np.concatenate([rng.normal(scale=1e-3, size=d), [0.0]])
        params = np.tile(init, (len(Y), 1))
        Xa = np.column_stack([X, np.ones(n)])
        params, n_iter = self._irls_core(
            Xa, Y.astype(np.float64), W, params
        )
        models = []
        for b in range(len(Y)):
            model = self.clone()
            model.coef_ = params[b, :-1].copy()
            model.intercept_ = float(params[b, -1])
            model.n_iter_ = int(n_iter[b])
            model._fitted = True
            models.append(model)
        return models

    @staticmethod
    def predict_batch(models, X):
        """Hard labels of every fitted model on a shared feature matrix.

        All decision scores come from a single ``(n, d) @ (d, B)``
        dgemm; thresholding matches :meth:`BaseClassifier.predict`
        elementwise (:func:`~repro.ml.base.labels_from_log_odds`), so
        rows equal ``models[b].predict(X)`` up to matvec-vs-matmul
        round-off on exactly boundary scores.

        Returns a C-ordered ``(B, n)`` int64 prediction matrix.
        """
        X, _ = check_Xy(X)
        coefs = np.stack([m.coef_ for m in models])          # (B, d)
        intercepts = np.array([m.intercept_ for m in models])
        scores = X @ coefs.T                                 # (n, B)
        scores += intercepts
        return labels_from_log_odds(scores.T)

    def decision_function(self, X):
        self._check_is_fitted()
        X, _ = check_Xy(X)
        return X @ self.coef_ + self.intercept_

    def _log_odds(self, X):
        """``decision_function`` (a method, so an override holds)."""
        return self.decision_function(X)

    @sigmoid_of_log_odds
    def predict_proba(self, X):
        p1 = sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])

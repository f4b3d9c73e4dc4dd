"""Compiled constraint kernels: canonicalize once, reuse for every λ.

Written out directly, Eq. 12 rebuilds every constraint's coefficient
vector from scratch on each λ step — a Python loop over constraints and
group sides, with fresh allocations and scatter updates per call.  For a
search that fits hundreds of candidate models this would dominate
everything but the model fits themselves.

:class:`CompiledConstraints` is built **once** per (dataset, constraint
set) binding.  It stacks each constraint's contribution into dense
per-row coefficient arrays with the ``N`` scale and the group-pair sign
already folded in, so the weights for any multiplier vector become the
fused product

    w(λ) = 1 + Cᵀ · λ

applied as one accumulation per constraint (k is small; applying the
stacked rows sequentially keeps the floating-point operation order of
that loop, so the kernel agrees with it **bit for bit** — the loop is
kept as the oracle in ``tests/weight_oracle.py`` and property-tested in
``tests/test_kernels.py``).
``weights_batch`` broadcasts the same product over a whole matrix of λ
candidates in one vectorized pass.

Prediction-parameterized metrics (FOR/FDR) have coefficients of the form
``-1/m(θ)`` on a *static* row subset, where ``m(θ)`` counts the group's
predicted-negative (FOR) or predicted-positive (FDR) rows.  The kernel
therefore stores the static mask once and tracks only the scalar count:
:meth:`CompiledConstraints.update_predictions` re-tallies ``m`` from the
rows whose predictions actually changed since the previous call, instead
of recomputing every coefficient.

:class:`CompiledEvaluator` is the validation-side twin: it compiles the
group/label masks needed to score predictions against every constraint
into one stacked matrix, so the disparities of a whole batch of
prediction vectors reduce to a single ``(B, n) @ (n, S)`` product.  All
rates are computed as exact integer counts divided once, mirroring
:mod:`repro.ml.metrics` bitwise.

:func:`evaluate_lambda_batch` glues the two together: weights for a grid
or population of λ candidates in one pass, one model fit per candidate
(or one estimator batch-protocol call), and a single vectorized scoring
pass over the stacked predictions.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..ml import metrics as mlm
from .fairness_metrics import (
    _aec_rate,
    _fdr_coeff,
    _for_coeff,
    _mr_rate,
    _sp_rate,
)

__all__ = [
    "CompiledConstraints",
    "CompiledEvaluator",
    "BatchEvalResult",
    "evaluate_lambda_batch",
    "rate_from_counts",
]

# prediction-score cache bound (entries are ~300 B: digest key, (k,)
# disparity row, accuracy) — LRU so long searches stay bounded while
# hot vectors keep hitting
EVAL_CACHE_MAX = 4096


class _ConstantTerm:
    """One precompiled dense contribution row: ``w += λ_k · row``.

    ``row`` holds ``±N·c`` for a constant-coefficient group side (or a
    merged pair of disjoint sides), zeros elsewhere.
    """

    __slots__ = ("k", "row")

    def __init__(self, k, row):
        self.k = k
        self.row = row

    def contribution(self, lam, out=None):
        return np.multiply(lam, self.row, out=out)


class _CountScaledTerm:
    """A FOR/FDR group side: static ``±1`` mask scaled by ``N·(-1/m(θ))``.

    ``m`` is the number of group rows whose prediction equals
    ``denom_value`` (0 for FOR, 1 for FDR); the owning kernel updates it
    incrementally through :meth:`recount` / :meth:`apply_delta`.
    """

    __slots__ = ("k", "mask_row", "in_group", "denom_value", "n", "count")

    def __init__(self, k, mask_row, in_group, denom_value, n):
        self.k = k
        self.mask_row = mask_row          # dense, ±1.0 on coefficient rows
        self.in_group = in_group          # dense bool, group membership
        self.denom_value = denom_value    # prediction value counted in m
        self.n = n
        self.count = None

    def recount(self, predictions):
        self.count = int(np.sum(self.in_group & (predictions == self.denom_value)))

    def apply_delta(self, changed, new_pred, old_pred):
        member = self.in_group[changed]
        if not member.any():
            return
        gained = int(np.sum(member & (new_pred[changed] == self.denom_value)))
        lost = int(np.sum(member & (old_pred[changed] == self.denom_value)))
        self.count += gained - lost

    def scale(self):
        # same operation order as the oracle loop: c = -1.0/m, then N*c
        if not self.count:
            return 0.0
        return self.n * (-1.0 / self.count)

    def contribution(self, lam, out=None):
        return np.multiply(lam * self.scale(), self.mask_row, out=out)


class _GenericParamTerm:
    """Fallback for custom model-parameterized metrics.

    Coefficients are recomputed through ``metric.coefficients`` whenever
    any group row's prediction changed (no structural assumptions), so
    arbitrary user metrics still go through the kernel layer.
    """

    __slots__ = ("k", "sign", "idx", "metric", "y_group", "n", "in_group",
                 "_row", "_dirty")

    def __init__(self, k, sign, idx, metric, y_group, n, in_group):
        self.k = k
        self.sign = sign
        self.idx = idx
        self.metric = metric
        self.y_group = y_group
        self.n = n
        self.in_group = in_group
        self._row = None
        self._dirty = True

    def mark_if_touched(self, changed):
        if self._dirty or self.in_group[changed].any():
            self._dirty = True

    def refresh(self, predictions):
        if not self._dirty and self._row is not None:
            return
        c, _c0 = self.metric.coefficients(self.y_group, predictions[self.idx])
        row = np.zeros(self.n, dtype=np.float64)
        row[self.idx] = self.sign * (self.n * c)
        self._row = row
        self._dirty = False

    def contribution(self, lam, out=None):
        return np.multiply(lam, self._row, out=out)


def _sides_overlap(g1_idx, g2_idx, n):
    """Whether two group sides share a row, in O(n) with no sort.

    A boolean scatter of one side probed at the other's indices; rows
    address the same length-``n`` training split as the kernel rows.
    """
    member = np.zeros(n, dtype=bool)
    member[g1_idx] = True
    return bool(member[g2_idx].any())


class CompiledConstraints:
    """Stacked reusable weight kernels for one (dataset, constraints) pair.

    Parameters
    ----------
    constraints : list of Constraint
        Constraints bound to the training split (indices address ``y``).
    y : ndarray (n,)
        Training labels.

    Notes
    -----
    ``weights(λ)`` reproduces the Eq. 12 loop over constraints and group
    sides bit for bit, including overlapping groups (a constraint whose
    two group sides intersect keeps its sides as separate accumulation
    terms so the addition order matches the loop).
    """

    def __init__(self, constraints, y):
        self.y = np.asarray(y, dtype=np.int64)
        self.n = len(self.y)
        self.constraints = list(constraints)
        self.k = len(self.constraints)
        self._terms = []          # ordered: constraint 0 g1, g2, constraint 1 ...
        self._param_terms = []    # subset needing prediction state
        self._predictions = None
        self._compile()

    # -- compilation ---------------------------------------------------------

    def _compile(self):
        n = self.n
        for k, constraint in enumerate(self.constraints):
            metric = constraint.metric
            sides = ((+1.0, constraint.g1_idx), (-1.0, constraint.g2_idx))
            if not metric.parameterized_by_model:
                rows = []
                for sign, idx in sides:
                    c, _c0 = metric.coefficients(self.y[idx], None)
                    row = np.zeros(n, dtype=np.float64)
                    row[idx] = sign * (n * c)
                    rows.append((idx, row))
                (g1_idx, row1), (g2_idx, row2) = rows
                if _sides_overlap(g1_idx, g2_idx, n):
                    # keep sides separate: the reference loop performs two
                    # adds at overlapping rows, and float addition is not
                    # associative
                    self._terms.append(_ConstantTerm(k, row1))
                    self._terms.append(_ConstantTerm(k, row2))
                else:
                    self._terms.append(_ConstantTerm(k, row1 + row2))
                continue
            for sign, idx in sides:
                in_group = np.zeros(n, dtype=bool)
                in_group[idx] = True
                structured = self._structured_param_side(
                    k, sign, idx, metric, in_group
                )
                if structured is not None:
                    term = structured
                else:
                    term = _GenericParamTerm(
                        k, sign, idx, metric, self.y[idx], n, in_group
                    )
                self._terms.append(term)
                self._param_terms.append(term)

    def _structured_param_side(self, k, sign, idx, metric, in_group):
        """Compile a FOR/FDR side into a count-scaled static mask."""
        coeff_fn = metric._coefficients
        if coeff_fn is _for_coeff:
            cond_label, denom_value = 0, 0
        elif coeff_fn is _fdr_coeff:
            cond_label, denom_value = 1, 1
        else:
            return None
        mask_row = np.zeros(self.n, dtype=np.float64)
        rows = idx[self.y[idx] == cond_label]
        mask_row[rows] = sign
        return _CountScaledTerm(k, mask_row, in_group, denom_value, self.n)

    # -- prediction state (FOR/FDR incremental path) -------------------------

    @property
    def parameterized(self):
        """True when any compiled constraint needs model predictions."""
        return bool(self._param_terms)

    def update_predictions(self, predictions):
        """Refresh prediction-dependent state, touching only changed rows.

        The first call tallies every parameterized side's denominator
        count in full; subsequent calls re-tally only over the rows whose
        predictions differ from the previous call — the incremental path
        for FOR/FDR, whose coefficient *rows* are static and only the
        per-group scalar ``1/m`` moves.
        """
        predictions = np.asarray(predictions, dtype=np.int64)
        if predictions.shape != (self.n,):
            raise ValueError(
                f"predictions has shape {predictions.shape}, "
                f"expected ({self.n},)"
            )
        if self._predictions is None:
            for term in self._param_terms:
                if isinstance(term, _CountScaledTerm):
                    term.recount(predictions)
                else:
                    term._dirty = True
        else:
            changed = np.nonzero(predictions != self._predictions)[0]
            if changed.size == 0:
                # true no-op: zero rows changed, so every term is
                # already consistent — skip the copy and the per-term
                # refresh walk entirely (regression-tested: a repeated
                # identical update must not touch clean terms)
                return
            for term in self._param_terms:
                if isinstance(term, _CountScaledTerm):
                    term.apply_delta(
                        changed, predictions, self._predictions
                    )
                else:
                    term.mark_if_touched(changed)
        self._predictions = predictions.copy()
        for term in self._param_terms:
            if isinstance(term, _GenericParamTerm):
                term.refresh(self._predictions)

    # -- weight kernels ------------------------------------------------------

    def _check_lambdas(self, lambdas):
        lambdas = np.asarray(lambdas, dtype=np.float64)
        if lambdas.shape[-1] != self.k:
            raise ValueError(
                f"lambdas has shape {lambdas.shape}, expected "
                f"trailing dimension {self.k}"
            )
        if (self.parameterized and np.any(lambdas != 0.0)
                and self._predictions is None):
            raise ValueError(
                "model-parameterized constraints require "
                "update_predictions() (or the predictions argument) "
                "before computing weights for nonzero lambda"
            )
        return lambdas

    def weights(self, lambdas, predictions=None):
        """``w(λ) = 1 + Cᵀλ`` — bitwise identical to the Eq. 12 loop."""
        if predictions is not None:
            self.update_predictions(predictions)
        lambdas = self._check_lambdas(np.atleast_1d(lambdas))
        w = np.ones(self.n, dtype=np.float64)
        for term in self._terms:
            lam = lambdas[term.k]
            if lam == 0.0:
                continue
            w += term.contribution(lam)
        return w

    def weights_batch(self, lambdas_matrix, predictions=None):
        """Weights for a whole (B, k) matrix of λ candidates at once.

        One broadcasted accumulation per constraint instead of B·k
        Python-level scatter updates.  Rows equal ``weights(λ_b)``
        exactly.  With parameterized constraints all candidates share
        the same prediction state (the batch APIs are used by the
        constant-metric fast paths; sequential searches chain
        per-model predictions through :meth:`weights`).
        """
        if predictions is not None:
            self.update_predictions(predictions)
        L = self._check_lambdas(np.atleast_2d(lambdas_matrix))
        W = np.ones((L.shape[0], self.n), dtype=np.float64)
        buf = np.empty_like(W)
        for term in self._terms:
            lams = L[:, term.k]
            if not lams.any():
                continue
            W += term.contribution(lams[:, None], out=buf)
        return W


# -- validation-side evaluation kernel ---------------------------------------


class _RateSide:
    """How to score one group side of one constraint from count columns.

    ``kind`` selects the closed-form rate; ``cols`` indexes into the
    stacked count matrix produced by one batched mask product.
    """

    __slots__ = ("kind", "size", "n_y0", "n_y1", "cols", "costs")

    def __init__(self, kind, size, n_y0, n_y1, cols, costs=None):
        self.kind = kind
        self.size = size
        self.n_y0 = n_y0
        self.n_y1 = n_y1
        self.cols = cols
        self.costs = costs


def _safe_div(num, den):
    """Vectorized twin of :func:`repro.ml.metrics._safe_div`."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros(np.broadcast(num, den).shape, dtype=np.float64)
    np.divide(num, den, out=out, where=den != 0)
    return out


def rate_from_counts(kind, counts, size, n_y0, n_y1, costs=None):
    """Closed-form group rate from exact positive-prediction counts.

    ``counts`` carries the per-mask positive-prediction tallies for one
    group side — one entry for ``sp``/``fpr``/``fnr``, the
    ``(y=0 rows, y=1 rows)`` pair for the two-column kinds — as float64
    scalars or arrays.  Every operation is float64 arithmetic over
    exact integers (< 2**53), so *any* caller that supplies the same
    counts gets the same bits back: this one function is shared by the
    batched :class:`CompiledEvaluator` matmul path and the
    :class:`~repro.incremental.IncrementalAuditor` accumulator path,
    which is what makes incremental audits bit-identical to
    from-scratch evaluation.
    """
    if kind == "sp":
        return counts[0] / size
    if kind == "fpr":
        return _safe_div(counts[0], n_y0)
    if kind == "fnr":
        return _safe_div(n_y1 - counts[0], n_y1)
    pos0 = counts[0]   # pred=1 among y=0 rows: FP
    pos1 = counts[1]   # pred=1 among y=1 rows: TP
    if kind == "mr":
        return (pos0 + (n_y1 - pos1)) / size
    if kind == "for":
        fn = n_y1 - pos1
        pred_neg = size - (pos0 + pos1)
        return _safe_div(fn, pred_neg)
    if kind == "fdr":
        return _safe_div(pos0, pos0 + pos1)
    if kind == "aec":
        cost_fp, cost_fn = costs
        return (cost_fp * pos0 + cost_fn * (n_y1 - pos1)) / size
    raise AssertionError(f"unhandled rate kind {kind!r}")


def _rate_kind(metric):
    """Map a built-in metric to its closed-form batch rate, else None."""
    rate = metric._rate
    if rate is _sp_rate:
        return "sp", None
    if rate is _mr_rate:
        return "mr", None
    if rate is mlm.false_positive_rate:
        return "fpr", None
    if rate is mlm.false_negative_rate:
        return "fnr", None
    if rate is mlm.false_omission_rate:
        return "for", None
    if rate is mlm.false_discovery_rate:
        return "fdr", None
    func = getattr(rate, "func", None)
    if func is _aec_rate:
        kw = rate.keywords or {}
        return "aec", (float(kw.get("cost_fp", 1.0)),
                       float(kw.get("cost_fn", 1.0)))
    return None, None


class CompiledEvaluator:
    """Vectorized disparity/accuracy scoring against bound constraints.

    Built once per (validation split, constraints) pair.  For built-in
    metrics every group rate reduces to exact integer counts obtained
    from a single stacked mask product, so scoring B candidate
    prediction vectors is one ``(B, n) @ (n, S)`` matmul; custom metrics
    fall back to the per-constraint Python path, keeping results
    identical to :meth:`Constraint.disparity` in all cases.

    ``chunk_size`` enables the **chunked evaluation path**: the mask
    product and the accuracy reduction are streamed over row blocks of
    at most ``chunk_size`` rows, bounding the transient ``(B, block)``
    temporaries instead of materializing ``(B, n)`` products.  Because
    every accumulated quantity is an exact integer count (float64 adds
    of integers below 2**53 are exact), the chunked path is
    **bit-identical** to the in-memory path — same disparities, same
    accuracies, same selected λ (property-tested in
    ``tests/test_chunked_eval.py``).  Custom (fallback) metrics ignore
    the knob: they need the full prediction vector by contract.

    :meth:`score` / :meth:`score_batch` additionally memoize per
    prediction-vector hash — the validation-side sibling of the fit
    cache: duplicate fits return the *same* model object, and λ-searches
    frequently re-score predictions they have already seen (Λ = 0
    re-evaluations, cache-hit candidates inside grids).  ``stats`` is an
    optional ``{"hits": int, "lookups": int}`` dict — pass the owning
    fitter's ``eval_stats`` so the search can surface hit counts through
    :class:`~repro.core.report.FitReport`.

    ``store`` adds a persistent :class:`~repro.store.CacheStore` layer
    under the memory cache (injected by ``Engine(store_dir=...)``): a
    memory-missed prediction hash is looked up on disk keyed by the
    hash *plus* a binding digest covering everything that determines a
    score — labels, mask columns, epsilons, and per-side rate metadata
    — and fresh scores are published back.  The store is silently
    disabled when any constraint uses a custom metric: an arbitrary
    Python callable cannot be soundly keyed (two processes can bind the
    same metric name to different functions).  Store traffic lands in
    ``stats["store_hits"]`` / ``stats["store_lookups"]``.
    """

    def __init__(self, constraints, y, stats=None, chunk_size=None,
                 store=None):
        self.y = np.asarray(y, dtype=np.int64)
        self.n = len(self.y)
        self.constraints = list(constraints)
        self.k = len(self.constraints)
        self.epsilons = np.array(
            [c.epsilon for c in self.constraints], dtype=np.float64
        )
        if chunk_size is not None and int(chunk_size) < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        self.stats = stats if stats is not None else {"hits": 0, "lookups": 0}
        self._score_cache = {}
        mask_cols = []

        def add_mask(rows):
            col = np.zeros(self.n, dtype=np.float64)
            col[rows] = 1.0
            mask_cols.append(col)
            return len(mask_cols) - 1

        self._sides = {}      # (constraint_index, side) -> _RateSide
        self._fallback = []   # constraint indices scored via Python
        for k, constraint in enumerate(self.constraints):
            kind, costs = _rate_kind(constraint.metric)
            if kind is None:
                self._fallback.append(k)
                continue
            for side, idx in ((0, constraint.g1_idx), (1, constraint.g2_idx)):
                y_g = self.y[idx]
                n_y0 = int(np.sum(y_g == 0))
                n_y1 = int(np.sum(y_g == 1))
                if kind in ("sp",):
                    cols = (add_mask(idx),)
                elif kind in ("mr", "for", "fdr", "aec"):
                    cols = (add_mask(idx[y_g == 0]), add_mask(idx[y_g == 1]))
                elif kind == "fpr":
                    cols = (add_mask(idx[y_g == 0]),)
                else:  # fnr
                    cols = (add_mask(idx[y_g == 1]),)
                self._sides[(k, side)] = _RateSide(
                    kind, len(idx), n_y0, n_y1, cols, costs
                )
        self._mask_matrix = (
            np.column_stack(mask_cols) if mask_cols
            else np.zeros((self.n, 0))
        )
        # custom metrics are opaque callables the binding digest cannot
        # cover, so they disqualify the persistent layer entirely
        self.store = store if (store is not None
                               and not self._fallback) else None
        self._binding = self._binding_digest() if self.store else None

    def _binding_digest(self):
        """Hex digest of everything that maps predictions to scores.

        Two evaluators with equal binding digests produce identical
        ``(disparities, accuracy)`` for identical prediction vectors,
        so the persistent eval key is ``binding × prediction hash``.
        """
        digest = hashlib.sha1()
        digest.update(np.ascontiguousarray(self.y).tobytes())
        digest.update(np.ascontiguousarray(self.epsilons).tobytes())
        digest.update(np.ascontiguousarray(self._mask_matrix).tobytes())
        meta = [
            (key, s.kind, s.size, s.n_y0, s.n_y1, tuple(s.cols), s.costs)
            for key, s in sorted(self._sides.items())
        ]
        digest.update(repr((self.k, meta)).encode())
        return digest.hexdigest()

    def _store_get(self, dig):
        """Persistent score for one prediction digest, or ``None``."""
        self.stats["store_lookups"] = self.stats.get("store_lookups", 0) + 1
        entry = self.store.get("eval", self._store_key(dig))
        if (not isinstance(entry, tuple) or len(entry) != 2
                or np.shape(entry[0]) != (self.k,)):
            return None
        self.stats["store_hits"] = self.stats.get("store_hits", 0) + 1
        return np.asarray(entry[0], dtype=np.float64), float(entry[1])

    def _store_put(self, dig, disparities, accuracy):
        self.store.put(
            "eval", self._store_key(dig), (disparities, float(accuracy)),
        )

    def _store_key(self, dig):
        return hashlib.sha1(
            self._binding.encode() + dig
        ).hexdigest()

    # -- scoring -------------------------------------------------------------

    # kept as a staticmethod alias: external callers/tests reach the
    # division helper through the evaluator class
    _safe_div = staticmethod(_safe_div)

    def _side_values(self, side, pos_counts):
        """Rates for one group side from the positive-prediction counts.

        ``pos_counts`` holds ``Σ_{i∈mask}(pred_i = 1)`` per stacked mask
        column; every other count is an exact integer complement.  The
        arithmetic lives in :func:`rate_from_counts`, shared with the
        incremental auditor for bit-identity.
        """
        counts = tuple(pos_counts[..., c] for c in side.cols)
        return rate_from_counts(
            side.kind, counts, side.size, side.n_y0, side.n_y1, side.costs
        )

    def _blocks(self, chunk_size=None):
        """Row slices covering the split, at most ``chunk_size`` rows each.

        The one row-block loop of the evaluator.  With chunking off the
        whole split is a single block; an empty split yields no block.
        Every caller accumulates exact integer counts over the blocks,
        so any block size gives the same bits as one full pass.
        """
        chunk = self.chunk_size if chunk_size is None else chunk_size
        step = chunk or max(self.n, 1)
        for start in range(0, self.n, step):
            yield slice(start, min(start + step, self.n))

    def _pos_counts(self, preds):
        """Stacked positive-prediction counts per mask column."""
        out = np.zeros(
            (preds.shape[0], self._mask_matrix.shape[1]), dtype=np.float64
        )
        for rows in self._blocks():
            out += (
                (preds[:, rows] == 1).astype(np.float64)
                @ self._mask_matrix[rows]
            )
        return out

    def _builtin_disparities(self, pos_counts, out):
        """Fill built-in constraints' columns of ``out`` from counts."""
        for k in range(self.k):
            if (k, 0) not in self._sides:
                continue
            v1 = self._side_values(self._sides[(k, 0)], pos_counts)
            v2 = self._side_values(self._sides[(k, 1)], pos_counts)
            out[:, k] = v1 - v2
        return out

    def disparities_batch(self, predictions):
        """``(B, k)`` disparity matrix for stacked prediction vectors."""
        preds = np.atleast_2d(np.asarray(predictions, dtype=np.int64))
        if preds.shape[1] != self.n:
            raise ValueError(
                f"predictions have {preds.shape[1]} columns, "
                f"expected {self.n}"
            )
        out = np.empty((preds.shape[0], self.k), dtype=np.float64)
        if self._sides:
            self._builtin_disparities(self._pos_counts(preds), out)
        for k in self._fallback:
            constraint = self.constraints[k]
            out[:, k] = [
                constraint.disparity(self.y, pred) for pred in preds
            ]
        return out

    def disparities(self, predictions):
        """``(k,)`` disparity vector for a single prediction vector."""
        return self.disparities_batch(predictions)[0]

    def accuracies_batch(self, predictions):
        """Plain accuracy per stacked prediction vector."""
        preds = np.atleast_2d(np.asarray(predictions, dtype=np.int64))
        correct = np.zeros(preds.shape[0], dtype=np.float64)
        for rows in self._blocks():
            correct += (
                (preds[:, rows] == self.y[rows]).astype(np.float64).sum(axis=1)
            )
        return correct / self.n

    def accuracy(self, predictions):
        return float(self.accuracies_batch(predictions)[0])

    # -- memoized scoring ----------------------------------------------------

    def score_batch(self, predictions):
        """``(disparities (B, k), accuracies (B,))``, memoized per row.

        Rows whose prediction-vector hash was scored before — by any
        earlier :meth:`score`/:meth:`score_batch` call on this evaluator
        — are served from the cache; only the unseen rows go through the
        stacked kernels.  Results are identical to
        :meth:`disparities_batch` / :meth:`accuracies_batch` (the cache
        stores their exact outputs).
        """
        preds = np.atleast_2d(np.asarray(predictions, dtype=np.int64))
        B = preds.shape[0]
        digests = [
            hashlib.sha1(np.ascontiguousarray(preds[b]).tobytes()).digest()
            for b in range(B)
        ]
        self.stats["lookups"] += B
        disparities = np.empty((B, self.k), dtype=np.float64)
        accuracies = np.empty(B, dtype=np.float64)
        filled = np.zeros(B, dtype=bool)
        todo = []
        fresh = {}
        cache = self._score_cache
        for b, dig in enumerate(digests):
            cached = cache.pop(dig, None)
            if cached is not None:
                cache[dig] = cached          # LRU touch
                disparities[b], accuracies[b] = cached
                filled[b] = True
                self.stats["hits"] += 1
            elif dig in fresh:
                self.stats["hits"] += 1   # in-batch duplicate, filled below
            elif self.store is not None and (
                stored := self._store_get(dig)
            ) is not None:
                disparities[b], accuracies[b] = stored
                filled[b] = True
                # seed the memory cache so duplicates and revisits of
                # this vector resolve locally
                if len(cache) >= EVAL_CACHE_MAX:
                    cache.pop(next(iter(cache)))
                cache[dig] = stored
            else:
                fresh[dig] = b
                todo.append(b)
        if todo:
            new_d = self.disparities_batch(preds[todo])
            new_a = self.accuracies_batch(preds[todo])
            for j, b in enumerate(todo):
                disparities[b] = new_d[j]
                accuracies[b] = new_a[j]
                filled[b] = True
                if len(cache) >= EVAL_CACHE_MAX:
                    cache.pop(next(iter(cache)))
                cache[digests[b]] = (new_d[j].copy(), float(new_a[j]))
                if self.store is not None:
                    self._store_put(digests[b], new_d[j].copy(), new_a[j])
        for b in np.nonzero(~filled)[0]:         # in-batch duplicate rows
            j = fresh[digests[b]]
            disparities[b], accuracies[b] = disparities[j], accuracies[j]
        return disparities, accuracies

    def score(self, predictions):
        """``(disparities (k,), accuracy)`` for one vector, memoized."""
        disparities, accuracies = self.score_batch(predictions)
        return disparities[0], float(accuracies[0])

    # -- streaming model scoring ---------------------------------------------

    @staticmethod
    def _batch_predictor(models):
        """The shared ``predict_batch`` hook, when every model has it."""
        cls = type(models[0])
        batch_predict = getattr(cls, "predict_batch", None)
        if batch_predict is not None and all(type(m) is cls for m in models):
            return batch_predict
        return None

    def score_models_batch(self, models, X, chunk_size=None):
        """Score fitted models on ``X`` without stacking ``(B, n)`` preds.

        With chunking active (``chunk_size`` here or on the evaluator)
        predictions are produced one row block at a time and reduced
        straight into the count accumulators, so peak memory holds one
        ``(B, block)`` prediction slab instead of the full stacked
        matrix.  Disparities and accuracies equal
        :meth:`score_batch` of the stacked predictions **bit for bit**
        (integer-count accumulation), and the per-candidate SHA1 is
        computed incrementally over the same bytes, so the score cache
        stays coherent between the streaming and in-memory paths.

        Falls back to the in-memory path when chunking is off, the
        split is a single block, or any constraint needs the full
        prediction vector (custom-metric fallback).
        """
        X = np.asarray(X, dtype=np.float64)
        chunk = self.chunk_size if chunk_size is None else int(chunk_size)
        B = len(models)
        if B == 0:
            raise ValueError("score_models_batch needs at least one model")
        batch_predict = self._batch_predictor(models)

        def stacked(X_block):
            if batch_predict is not None:
                return np.asarray(batch_predict(models, X_block)).astype(
                    np.int64, copy=False
                )
            return np.stack(
                [m.predict(X_block) for m in models]
            ).astype(np.int64, copy=False)

        if not chunk or self.n <= chunk or self._fallback:
            return self.score_batch(stacked(X))

        S = self._mask_matrix.shape[1]
        pos_counts = np.zeros((B, S), dtype=np.float64)
        correct = np.zeros(B, dtype=np.float64)
        hashers = [hashlib.sha1() for _ in range(B)]
        for rows in self._blocks(chunk):
            pb = stacked(X[rows])
            for b in range(B):
                hashers[b].update(np.ascontiguousarray(pb[b]).tobytes())
            if S:
                pos_counts += (
                    (pb == 1).astype(np.float64) @ self._mask_matrix[rows]
                )
            correct += (pb == self.y[rows]).astype(np.float64).sum(axis=1)

        disparities = np.empty((B, self.k), dtype=np.float64)
        self._builtin_disparities(pos_counts, disparities)
        accuracies = correct / self.n
        # reconcile with the memoized-score cache: digests match the
        # stacked-path keys byte for byte, so cached entries (from either
        # path) serve identical values and fresh ones are stored for
        # later in-memory lookups
        cache = self._score_cache
        self.stats["lookups"] += B
        for b in range(B):
            dig = hashers[b].digest()
            cached = cache.pop(dig, None)
            if cached is not None:
                self.stats["hits"] += 1
                disparities[b], accuracies[b] = cached
            elif self.store is not None:
                # the streaming pass already reduced the counts, so a
                # store *get* saves nothing here — only publish
                self._store_put(dig, disparities[b].copy(), accuracies[b])
            if len(cache) >= EVAL_CACHE_MAX:
                cache.pop(next(iter(cache)))
            cache[dig] = (disparities[b].copy(), float(accuracies[b]))
        return disparities, accuracies


# -- batched candidate evaluation --------------------------------------------


class BatchEvalResult:
    """Scored λ batch: fitted models plus vectorized validation metrics.

    Attributes
    ----------
    lambdas : ndarray (B, k)
    models : list of fitted estimators, one per candidate
    disparities : ndarray (B, k)
        Validation disparity of every constraint under every candidate.
    accuracies : ndarray (B,)
        Validation accuracy per candidate.
    """

    __slots__ = ("lambdas", "models", "disparities", "accuracies")

    def __init__(self, lambdas, models, disparities, accuracies):
        self.lambdas = lambdas
        self.models = models
        self.disparities = disparities
        self.accuracies = accuracies

    def __len__(self):
        return len(self.models)


def evaluate_lambda_batch(
    fitter, val_constraints, X_val, y_val, lambdas,
    evaluator=None, chunk_size=None,
):
    """Fit and score a whole grid/population of λ candidates in one pass.

    Parameters
    ----------
    fitter : WeightedFitter
        Candidate weights come from one ``weights_batch`` call and the
        fits from one :meth:`~repro.core.fitter.WeightedFitter.fit_batch`.
    val_constraints, X_val, y_val
        Validation binding for scoring (same order as the fitter's
        training constraints).
    lambdas : array-like (B, k)
        Candidate multiplier vectors.
    evaluator : CompiledEvaluator, optional
        Reuse a prebuilt validation evaluator across calls (CMA-ES calls
        once per generation).
    chunk_size : int, optional
        Row-block size for the chunked evaluation path; defaults to the
        fitter's ``eval_chunk_size`` (``None`` = in-memory scoring).
        Streaming is bit-identical to in-memory scoring — see
        :meth:`CompiledEvaluator.score_models_batch`.

    Returns
    -------
    BatchEvalResult
    """
    lambdas = np.atleast_2d(np.asarray(lambdas, dtype=np.float64))
    if lambdas.shape[0] == 0:
        raise ValueError("evaluate_lambda_batch needs at least one candidate")
    if chunk_size is None:
        chunk_size = getattr(fitter, "eval_chunk_size", None)
    models = fitter.fit_batch(lambdas)
    X_val = np.asarray(X_val, dtype=np.float64)
    if evaluator is None:
        evaluator = CompiledEvaluator(
            val_constraints, y_val,
            stats=getattr(fitter, "eval_stats", None),
            chunk_size=chunk_size,
            store=getattr(fitter, "store", None),
        )
    disparities, accuracies = evaluator.score_models_batch(
        models, X_val, chunk_size=chunk_size,
    )
    return BatchEvalResult(
        lambdas=lambdas,
        models=models,
        disparities=disparities,
        accuracies=accuracies,
    )

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

Every group side contributes one row, ``sign·N·c`` with ``c`` from the
metric's ``coefficients`` (Definition 3), built by one helper
(:func:`_side_row`).  A constant metric's rows are built once; a
prediction-parameterized metric (FOR, FDR or a custom one, §5.2) has
coefficients that depend on the current model's predictions, so
:meth:`CompiledConstraints.update_predictions` rebuilds its rows from
each new prediction vector, through the same helper.

Scoring has one count layout (:func:`count_columns`).  A *count column*
is one group's rows filtered by the labels its rate kind needs — all
rows for SP, the ``y = 0`` rows for FPR, the ``y = 1`` rows for FNR and
both for MR/FOR/FDR/AEC — and its state is two exact integers: its row
count and its positive-prediction count.  Sides that share a group
share its columns.  One count→rate step (:func:`disparities_from_counts`
over :func:`rate_from_counts`) turns the counts into disparities,
mirroring :mod:`repro.ml.metrics` bitwise.

:class:`CompiledEvaluator` is the validation-side twin of the weight
kernels: it marks the count columns in one ``(n, width)`` mask, so the
positive counts of a whole batch of prediction vectors are a single
``(B, n) @ (n, width)`` product.  Its
:meth:`~CompiledEvaluator.score_models_batch` is the one scoring pass of
the engine: every λ candidate and every final audit is predicted and
counted there, one row block at a time.  The
:class:`~repro.incremental.IncrementalAuditor` keeps the same counts as
running totals under row appends and retires, and scores them through
the same step.
"""

from __future__ import annotations

import numpy as np

from ..ml import metrics as mlm
from ..ml.base import check_binary_labels
from .fairness_metrics import _aec_rate, _mr_rate, _sp_rate

__all__ = [
    "CompiledConstraints",
    "CompiledEvaluator",
    "CountLayout",
    "count_columns",
    "disparities_from_counts",
    "rate_from_counts",
]


class _Term:
    """One dense contribution row: ``w += λ_k · row``.

    ``row`` holds ``sign·N·c`` on one group side's rows (or on a merged
    pair of disjoint constant sides), zeros elsewhere.  A side whose
    coefficients follow the model's predictions keeps
    ``side = (sign, idx, metric, y[idx])`` to rebuild its row from; its
    ``row`` is ``None`` until the first predictions arrive.
    """

    __slots__ = ("k", "row", "side")

    def __init__(self, k, row, side=None):
        self.k = k
        self.row = row
        self.side = side


def _side_row(n, sign, idx, metric, y_group, pred_group=None):
    """The dense row ``sign·N·c`` of one group side (Eq. 12)."""
    c, _c0 = metric.coefficients(y_group, pred_group)
    row = np.zeros(n, dtype=np.float64)
    row[idx] = sign * (n * c)
    return row


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
        self._param_terms = []    # subset rebuilt from each prediction vector
        self._predictions = None
        self._compile()

    # -- compilation ---------------------------------------------------------

    def _compile(self):
        n = self.n
        for k, constraint in enumerate(self.constraints):
            metric = constraint.metric
            sides = ((+1.0, constraint.g1_idx), (-1.0, constraint.g2_idx))
            if metric.parameterized_by_model:
                for sign, idx in sides:
                    term = _Term(k, None,
                                 side=(sign, idx, metric, self.y[idx]))
                    self._terms.append(term)
                    self._param_terms.append(term)
                continue
            row1, row2 = (_side_row(n, sign, idx, metric, self.y[idx])
                          for sign, idx in sides)
            if _sides_overlap(constraint.g1_idx, constraint.g2_idx, n):
                # keep sides separate: the reference loop performs two
                # adds at overlapping rows, and float addition is not
                # associative
                self._terms += [_Term(k, row1), _Term(k, row2)]
            else:
                self._terms.append(_Term(k, row1 + row2))

    # -- prediction state (FOR/FDR and custom parameterized metrics) ---------

    @property
    def parameterized(self):
        """True when any compiled constraint needs model predictions."""
        return bool(self._param_terms)

    def update_predictions(self, predictions):
        """Rebuild every prediction-parameterized row from ``predictions``.

        A vector equal to the previous one is a true no-op: nothing is
        copied and no coefficient is recomputed.
        """
        predictions = np.asarray(predictions, dtype=np.int64)
        if predictions.shape != (self.n,):
            raise ValueError(
                f"predictions has shape {predictions.shape}, "
                f"expected ({self.n},)"
            )
        if (self._predictions is not None
                and np.array_equal(predictions, self._predictions)):
            return
        self._predictions = predictions.copy()
        for term in self._param_terms:
            sign, idx, metric, y_group = term.side
            term.row = _side_row(self.n, sign, idx, metric, y_group,
                                 self._predictions[idx])

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
            w += np.multiply(lam, term.row)
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
            W += np.multiply(lams[:, None], term.row, out=buf)
        return W


# -- count columns: the one count layout of scoring and incremental audits ---


def _safe_div(num, den):
    """Vectorized twin of :func:`repro.ml.metrics._safe_div`."""
    num = np.asarray(num, dtype=np.float64)
    den = np.asarray(den, dtype=np.float64)
    out = np.zeros(np.broadcast(num, den).shape, dtype=np.float64)
    np.divide(num, den, out=out, where=den != 0)
    return out


def rate_from_counts(kind, pos, rows, costs=None):
    """Closed-form group rate of one constraint side from its count columns.

    ``pos`` and ``rows`` hold, for each count column of the side, its
    positive-prediction count and its row count (float64 or integer
    scalars, or arrays over a batch): one column for ``sp`` (the
    group), ``fpr`` (its ``y = 0`` rows) and ``fnr`` (its ``y = 1``
    rows); the ``(y = 0, y = 1)`` pair for the two-column kinds, whose
    group size is ``n_y0 + n_y1``.  Every operation is float64
    arithmetic over exact integers (< 2**53), so any caller that
    supplies the same counts gets the same bits back: the
    :class:`CompiledEvaluator` block loop and the
    :class:`~repro.incremental.IncrementalAuditor` running totals both
    score through here, which is what makes incremental audits
    bit-identical to from-scratch evaluation.
    """
    if kind == "sp":
        return pos[0] / rows[0]
    if kind == "fpr":
        return _safe_div(pos[0], rows[0])
    if kind == "fnr":
        return _safe_div(rows[0] - pos[0], rows[0])
    pos0, pos1 = pos[0], pos[1]     # FP, TP
    n_y0, n_y1 = rows[0], rows[1]
    size = n_y0 + n_y1
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


#: the label filter of each count column of one side, per rate kind
#: (``None``: every row of the group)
_COLUMN_LABELS = {
    "sp": (None,), "fpr": (0,), "fnr": (1,),
    "mr": (0, 1), "for": (0, 1), "fdr": (0, 1), "aec": (0, 1),
}


class CountLayout:
    """Which count columns score each side of each bound constraint.

    ``rates`` holds ``(k, kind, costs, side1, side2)`` per built-in
    constraint, each side a slice of adjacent columns; ``fallback``
    lists the custom-metric constraints, whose rates are not counts;
    ``width`` is the number of columns.
    """

    __slots__ = ("k", "rates", "fallback", "width")

    def __init__(self, k, rates, fallback, width):
        self.k = k
        self.rates = rates
        self.fallback = fallback
        self.width = width


def count_columns(constraints, y):
    """``(layout, mask)``: the count columns of ``constraints`` over ``y``.

    A count column is one group's rows filtered by the labels its rate
    kind needs (:data:`_COLUMN_LABELS`); ``mask`` is the ``(n, width)``
    float64 0/1 matrix whose column ``c`` marks column ``c``'s rows.
    Sides that share a group share its columns: every pair of one
    :meth:`FairnessSpec.bind` holds the same index array object for a
    group, so array identity is the key.  Labels outside {0, 1} are
    refused (:func:`~repro.ml.base.check_binary_labels`): a row labelled
    2 would sit in a group column but in neither label column.
    """
    y = check_binary_labels(y)
    first = {}      # (id(group rows), labels) -> its first column
    cells = []      # row indices of each column
    rates, fallback = [], []
    for k, constraint in enumerate(constraints):
        kind, costs = _rate_kind(constraint.metric)
        if kind is None:
            fallback.append(k)
            continue
        labels = _COLUMN_LABELS[kind]
        sides = []
        for idx in (constraint.g1_idx, constraint.g2_idx):
            key = (id(idx), labels)
            if key not in first:
                first[key] = len(cells)
                if labels == (None,):
                    cells.append(idx)
                else:
                    y_g = y[idx]
                    cells.extend(idx[y_g == label] for label in labels)
            start = first[key]
            sides.append(slice(start, start + len(labels)))
        rates.append((k, kind, costs, *sides))
    # column-major: each column is one contiguous run to mark and sum
    mask = np.zeros((len(y), len(cells)), order="F")
    for c, rows in enumerate(cells):
        mask[rows, c] = 1.0
    layout = CountLayout(len(constraints), rates, fallback, len(cells))
    return layout, mask


def disparities_from_counts(layout, pos, rows):
    """``(B, k)`` disparities from ``(B, width)`` positive counts.

    ``rows`` is the ``(width,)`` row count of every column.  Each
    built-in constraint's disparity is ``rate(side1) − rate(side2)``
    through :func:`rate_from_counts`; the custom-metric columns
    (``layout.fallback``) are left for the caller to fill.
    """
    pos = pos.T
    out = np.empty((pos.shape[1], layout.k))
    for k, kind, costs, side1, side2 in layout.rates:
        out[:, k] = (
            rate_from_counts(kind, pos[side1], rows[side1], costs)
            - rate_from_counts(kind, pos[side2], rows[side2], costs)
        )
    return out


class CompiledEvaluator:
    """Vectorized disparity/accuracy scoring against bound constraints.

    Built once per (validation split, constraints) pair.  For built-in
    metrics every group rate reduces to exact integer counts over the
    count columns of :func:`count_columns`, so scoring B candidate
    prediction vectors is one ``(B, n) @ (n, width)`` mask product;
    custom metrics fall back to the per-constraint Python path, keeping
    results identical to :meth:`Constraint.disparity` in all cases.

    ``chunk_size`` is the one row-block size of every pass: the
    prediction, the mask product and the accuracy reduction stream over
    row blocks of at most ``chunk_size`` rows, bounding the transient
    ``(B, block)`` temporaries instead of materializing ``(B, n)``
    products.  Because every accumulated quantity is an exact integer
    count (float64 adds of integers below 2**53 are exact), any block
    size is **bit-identical** to one full pass — same disparities, same
    accuracies, same selected λ (property-tested in
    ``tests/test_chunked_eval.py``).  ``None`` (default) makes the whole
    split one block.

    Scores are not memoized: a repeated candidate costs one predict and
    one count, the same work a cache lookup keyed on the predictions
    would need before it could hit.
    """

    def __init__(self, constraints, y, chunk_size=None):
        self.constraints = list(constraints)
        self.k = len(self.constraints)
        if chunk_size is not None and int(chunk_size) < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = None if chunk_size is None else int(chunk_size)
        self._layout, self._mask = count_columns(self.constraints, y)
        self._rows = self._mask.sum(axis=0)
        self.y = np.asarray(y, dtype=np.int64)
        self.n = len(self.y)

    # -- scoring -------------------------------------------------------------

    def _blocks(self):
        """Row slices of at most ``chunk_size`` rows covering the split.

        Chunking off makes one block; an empty split yields none.
        """
        step = self.chunk_size or max(self.n, 1)
        for start in range(0, self.n, step):
            yield slice(start, min(start + step, self.n))

    def _counts(self, block_labels, B):
        """``(positive counts (B, width), correct (B,))`` over the blocks.

        The one block loop: ``block_labels(rows)`` returns one block's
        ``(B, block)`` labels, counted before the next block is asked for.
        """
        pos_counts = np.zeros((B, self._layout.width))
        correct = np.zeros(B)
        for rows in self._blocks():
            labels = block_labels(rows)
            if self._layout.width:
                pos_counts += (
                    (labels == 1).astype(np.float64) @ self._mask[rows]
                )
            correct += np.count_nonzero(labels == self.y[rows], axis=1)
        return pos_counts, correct

    def _scores(self, pos_counts, correct, preds=None):
        """``(disparities (B, k), accuracies (B,))`` from the counts.

        Rates come from :func:`disparities_from_counts`, shared with
        the incremental auditor; a custom metric scores the full
        ``preds``.
        """
        out = disparities_from_counts(self._layout, pos_counts, self._rows)
        for k in self._layout.fallback:
            out[:, k] = [self.constraints[k].disparity(self.y, p)
                         for p in preds]
        return out, correct / self.n

    def score_batch(self, predictions):
        """``(disparities (B, k), accuracies (B,))`` of stacked predictions."""
        preds = np.atleast_2d(np.asarray(predictions, dtype=np.int64))
        if preds.shape[1] != self.n:
            raise ValueError(
                f"predictions have {preds.shape[1]} columns, "
                f"expected {self.n}"
            )
        counts = self._counts(lambda rows: preds[:, rows], len(preds))
        return self._scores(*counts, preds)

    def score(self, predictions):
        """``(disparities (k,), accuracy)`` for one prediction vector."""
        disparities, accuracies = self.score_batch(predictions)
        return disparities[0], float(accuracies[0])

    def disparities_batch(self, predictions):
        """``(B, k)`` disparity matrix for stacked prediction vectors."""
        return self.score_batch(predictions)[0]

    def disparities(self, predictions):
        """``(k,)`` disparity vector for a single prediction vector."""
        return self.disparities_batch(predictions)[0]

    def accuracies_batch(self, predictions):
        """Plain accuracy per stacked prediction vector."""
        return self.score_batch(predictions)[1]

    def accuracy(self, predictions):
        return float(self.accuracies_batch(predictions)[0])

    @staticmethod
    def _predictor(models):
        """``X -> (B, rows)`` int64 labels, by the one predict rule.

        A lone model uses its own ``predict`` (LR, NB and GBT label from
        their log-odds, the bits of ``predict_proba >= 0.5``); B > 1
        models of one class use the class's ``predict_batch`` when it has
        one (equal to ``predict`` only up to round-off).
        """
        cls = type(models[0])
        batch_predict = getattr(cls, "predict_batch", None)
        if (len(models) > 1 and batch_predict is not None
                and all(type(m) is cls for m in models)):
            return lambda X: np.asarray(batch_predict(models, X)).astype(
                np.int64, copy=False
            )
        return lambda X: np.stack([m.predict(X) for m in models]).astype(
            np.int64, copy=False
        )

    def score_models_batch(self, models, X):
        """``(disparities (B, k), accuracies (B,))`` of fitted models on ``X``.

        The one scoring pass behind the λ-search and every audit: it
        predicts one row block and adds its exact integer counts before
        the next (:meth:`_counts`), so one ``(B, block)`` slab is alive
        at a time, and equals :meth:`score_batch` of the stacked
        predictions **bit for bit**.  A custom metric needs the whole
        prediction vector, so it makes the split one block.
        """
        if not models:
            raise ValueError("score_models_batch needs at least one model")
        X = np.asarray(X, dtype=np.float64)
        if len(X) != self.n:
            raise ValueError(f"X has {len(X)} rows, expected {self.n}")
        predict = self._predictor(models)
        if self._layout.fallback:
            return self.score_batch(predict(X))
        return self._scores(
            *self._counts(lambda rows: predict(X[rows]), len(models))
        )

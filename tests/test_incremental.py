"""Incremental engine: exact fairness maintenance under data updates.

The load-bearing property: after ANY sequence of append/retire batches,
the :class:`IncrementalAuditor`'s disparities, accuracy, and
max-violation are **bit-identical** to a from-scratch
:class:`CompiledEvaluator` pass over the live rows — across SP (plain
counts), FOR/FDR (model-parameterized denominators), multi-spec
constraint sets, and overlapping predicate groups.  Hypothesis drives
randomized update sequences; the unit tests pin the error paths, the
delta-chained fingerprint, and the warm drift-retune plumbing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine, FairModel
from repro.core.evaluation import max_violation as reference_max_violation
from repro.core.exceptions import SpecificationError
from repro.core.fairness_metrics import (
    FairnessMetric,
    average_error_cost_parity,
)
from repro.core.grouping import by_attributes, by_predicate
from repro.core.kernels import CompiledEvaluator
from repro.core.spec import FairnessSpec, bind_specs
from repro.datasets import load
from repro.datasets.schema import Dataset
from repro.incremental import (
    DriftPolicy,
    IncrementalAuditor,
    warm_retune,
)
from repro.store.delta import append_digest, chain_fingerprint, retire_digest


class ThresholdModel:
    """Deterministic stub predictor: sign of the first feature."""

    def predict(self, X):
        return (np.asarray(X)[:, 0] > 0).astype(np.int64)


def make_dataset(rng, n, name="synth", extras=None, groups=("A", "B")):
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 2, size=n).astype(np.int64)
    sensitive = rng.integers(0, len(groups), size=n).astype(np.int64)
    # guarantee every group and both labels exist
    sensitive[:len(groups)] = np.arange(len(groups))
    y[:2] = [0, 1]
    return Dataset(
        name=name, X=X, y=y, sensitive=sensitive, group_names=groups,
        extras=dict(extras or {}),
    )


def assert_snapshot_matches(snapshot, reference):
    assert snapshot["constraint_labels"] == reference["constraint_labels"]
    assert (
        snapshot["disparities"].tobytes()
        == reference["disparities"].tobytes()
    )
    assert snapshot["accuracy"] == reference["accuracy"]
    assert snapshot["max_violation"] == reference["max_violation"]


def retire_is_safe(auditor, live, pick):
    """True when retiring ``pick`` still binds every group.

    ``live`` holds the live row ids in storage order, the order of
    ``live_dataset()``.
    """
    keep = np.nonzero(~np.isin(live, pick))[0]
    rest = auditor.live_dataset().subset(keep)
    try:
        labels = [c.label for c in bind_specs(auditor.specs, rest)]
    except SpecificationError:  # a predicate group emptied
        return False
    return labels == auditor.audit()["constraint_labels"]


def drive_random_updates(auditor, pool, rng, n_ops):
    """Random append/retire sequence, verifying bit-identity each step."""
    live = np.arange(auditor.n_total)
    cursor = 0
    for _ in range(n_ops):
        if rng.random() < 0.4 and auditor.n_live > 40:
            pick = rng.choice(
                live, size=int(rng.integers(1, 10)), replace=False,
            )
            if not retire_is_safe(auditor, live, pick):
                continue
            snapshot = auditor.retire_rows(pick)
            live = live[~np.isin(live, pick)]
        else:
            take = int(rng.integers(1, 30))
            idx = np.arange(cursor, cursor + take) % len(pool)
            cursor += take
            first = auditor.n_total
            snapshot = auditor.append_rows(pool.subset(idx))
            live = np.concatenate([live, np.arange(first, auditor.n_total)])
        assert_snapshot_matches(snapshot, auditor.recompute())


# ---------------------------------------------------------------------------
# the bit-identity property
# ---------------------------------------------------------------------------


class TestBitIdentityProperty:
    @given(st.integers(0, 10_000), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_sp_for_fdr_random_sequences(self, seed, n_ops):
        """SP + FOR + FDR multi-spec set under random update sequences."""
        rng = np.random.default_rng(seed)
        base = make_dataset(rng, 80 + int(rng.integers(0, 60)))
        specs = [
            FairnessSpec("SP", 0.05),
            FairnessSpec("FOR", 0.1),
            FairnessSpec("FDR", 0.1),
        ]
        auditor = IncrementalAuditor(specs, ThresholdModel(), base)
        assert_snapshot_matches(auditor.audit(), auditor.recompute())
        drive_random_updates(auditor, make_dataset(rng, 400), rng, n_ops)

    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_overlapping_predicate_groups(self, seed, n_ops):
        """Groups may overlap (§4.3): rows counted in both sides."""
        rng = np.random.default_rng(seed)
        grouping = by_predicate(
            lo=lambda d: d.X[:, 1] < 0.5,
            hi=lambda d: d.X[:, 1] > -0.5,  # deliberate overlap band
        )
        specs = [
            FairnessSpec("SP", 0.05, grouping=grouping),
            FairnessSpec("MR", 0.1, grouping=grouping),
        ]
        base = make_dataset(rng, 120)
        auditor = IncrementalAuditor(specs, ThresholdModel(), base)
        assert_snapshot_matches(auditor.audit(), auditor.recompute())
        drive_random_updates(auditor, make_dataset(rng, 300), rng, n_ops)

    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_three_groups_every_builtin_kind(self, seed, n_ops):
        """Every rate kind on 3 groups: shared columns, one-column
        FPR/FNR sides and AEC costs under updates."""
        rng = np.random.default_rng(seed)
        groups = ("A", "B", "C")
        specs = [
            FairnessSpec(name, 0.1)
            for name in ("SP", "MR", "FPR", "FNR", "FOR", "FDR")
        ] + [FairnessSpec(average_error_cost_parity(2.0, 1.0), 0.1)]
        base = make_dataset(rng, 90 + int(rng.integers(0, 60)),
                            groups=groups)
        auditor = IncrementalAuditor(specs, ThresholdModel(), base)
        assert auditor.k == 7 * 3
        assert_snapshot_matches(auditor.audit(), auditor.recompute())
        drive_random_updates(
            auditor, make_dataset(rng, 300, groups=groups), rng, n_ops,
        )

    def test_matches_per_constraint_reference_evaluation(self):
        """Auditor max-violation equals evaluation.max_violation exactly."""
        rng = np.random.default_rng(11)
        base = make_dataset(rng, 150)
        specs = [FairnessSpec("SP", 0.03), FairnessSpec("FPR", 0.08)]
        auditor = IncrementalAuditor(specs, ThresholdModel(), base)
        auditor.append_rows(make_dataset(rng, 40))
        live = auditor.live_dataset()
        constraints = bind_specs(specs, live)
        reference = reference_max_violation(
            live.y, auditor.live_predictions(), constraints,
        )
        assert auditor.max_violation() == reference


# ---------------------------------------------------------------------------
# construction + update validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_custom_metric_is_rejected(self):
        rng = np.random.default_rng(0)
        custom = FairnessMetric(
            "CUSTOM",
            coefficients=lambda y, p: (np.zeros(len(y)), 0.0),
            rate=lambda y, p: float(np.mean(p)),
        )
        with pytest.raises(SpecificationError, match="custom"):
            IncrementalAuditor(
                FairnessSpec(custom, 0.05), ThresholdModel(),
                make_dataset(rng, 60),
            )

    def test_new_group_in_batch_is_rejected(self):
        rng = np.random.default_rng(1)
        region = rng.integers(0, 2, size=60).astype(np.int64)
        region[:2] = [0, 1]
        base = make_dataset(rng, 60, extras={"region": region})
        spec = FairnessSpec("SP", 0.05, grouping=by_attributes("region"))
        auditor = IncrementalAuditor(spec, ThresholdModel(), base)
        batch = make_dataset(
            rng, 20, extras={"region": np.full(20, 2, dtype=np.int64)},
        )
        with pytest.raises(SpecificationError, match="unknown group"):
            auditor.append_rows(batch)

    def test_non_binary_label_is_refused_and_changes_nothing(self):
        rng = np.random.default_rng(13)
        auditor = IncrementalAuditor(
            FairnessSpec("FPR", 0.05), ThresholdModel(),
            make_dataset(rng, 200),
        )
        before = auditor.audit()
        batch = make_dataset(rng, 10)
        with pytest.raises(ValueError, match=r"\[2\]"):
            auditor.append_rows(
                X=batch.X, y=np.full(10, 2), sensitive=batch.sensitive,
            )
        after = auditor.audit()
        for key in ("n_live", "n_total", "n_updates", "fingerprint"):
            assert after[key] == before[key]
        assert_snapshot_matches(after, auditor.recompute())

    def test_non_binary_base_label_is_refused(self):
        rng = np.random.default_rng(14)
        base = make_dataset(rng, 60)
        base.y[5] = 2
        with pytest.raises(ValueError, match=r"\[2\]"):
            IncrementalAuditor(FairnessSpec("SP", 0.05), ThresholdModel(),
                               base)

    def test_batch_missing_per_row_extras_is_rejected(self):
        rng = np.random.default_rng(2)
        flag = np.zeros(60, dtype=bool)
        base = make_dataset(rng, 60, extras={"flag": flag})
        auditor = IncrementalAuditor(
            FairnessSpec("SP", 0.05), ThresholdModel(), base,
        )
        with pytest.raises(SpecificationError, match="extras"):
            auditor.append_rows(make_dataset(rng, 10))

    def test_retire_unknown_and_double_retire_raise(self):
        rng = np.random.default_rng(3)
        auditor = IncrementalAuditor(
            FairnessSpec("SP", 0.05), ThresholdModel(),
            make_dataset(rng, 80),
        )
        with pytest.raises(SpecificationError, match="out of range"):
            auditor.retire_rows([100])
        auditor.retire_rows([5, 6])
        with pytest.raises(SpecificationError, match="already retired"):
            auditor.retire_rows([6])

    def test_empty_batches_raise(self):
        rng = np.random.default_rng(4)
        auditor = IncrementalAuditor(
            FairnessSpec("SP", 0.05), ThresholdModel(),
            make_dataset(rng, 80),
        )
        with pytest.raises(SpecificationError, match="empty"):
            auditor.append_rows(
                X=np.zeros((0, 3)), y=np.zeros(0), sensitive=np.zeros(0),
            )
        with pytest.raises(SpecificationError, match="empty"):
            auditor.retire_rows([])

    def test_feature_width_mismatch_raises(self):
        rng = np.random.default_rng(5)
        auditor = IncrementalAuditor(
            FairnessSpec("SP", 0.05), ThresholdModel(),
            make_dataset(rng, 80),
        )
        with pytest.raises(SpecificationError, match="shape"):
            auditor.append_rows(
                X=np.zeros((4, 7)), y=np.zeros(4), sensitive=np.zeros(4),
            )


# ---------------------------------------------------------------------------
# delta-chained fingerprints
# ---------------------------------------------------------------------------


class TestDeltaFingerprint:
    def test_same_history_same_fingerprint(self):
        rng = np.random.default_rng(6)
        base = make_dataset(rng, 80)
        batch = make_dataset(rng, 20)
        spec = FairnessSpec("SP", 0.05)
        a = IncrementalAuditor(spec, ThresholdModel(), base)
        b = IncrementalAuditor(spec, ThresholdModel(), base)
        assert a.fingerprint == b.fingerprint == base.fingerprint()
        a.append_rows(batch)
        b.append_rows(batch)
        assert a.fingerprint == b.fingerprint
        a.retire_rows([3, 4])
        b.retire_rows([3, 4])
        assert a.fingerprint == b.fingerprint

    def test_history_order_and_content_matter(self):
        rng = np.random.default_rng(7)
        base = make_dataset(rng, 80)
        batch = make_dataset(rng, 20)
        spec = FairnessSpec("SP", 0.05)
        a = IncrementalAuditor(spec, ThresholdModel(), base)
        b = IncrementalAuditor(spec, ThresholdModel(), base)
        a.append_rows(batch)
        a.retire_rows([1])
        b.retire_rows([1])
        b.append_rows(batch)
        assert a.fingerprint != b.fingerprint  # order is part of identity

    def test_chain_primitives_distinguish_ops(self):
        append = append_digest(np.zeros((2, 2)), [0, 1], [0, 1])
        retire = retire_digest([0, 1])
        assert chain_fingerprint("p", "append", append) != chain_fingerprint(
            "p", "retire", retire,
        )
        assert chain_fingerprint("p", "append", append) != chain_fingerprint(
            "q", "append", append,
        )


# ---------------------------------------------------------------------------
# drift policy + warm retune
# ---------------------------------------------------------------------------


class TestDrift:
    def test_policy_tolerance_and_cooldown(self):
        policy = DriftPolicy(tolerance=0.05, min_updates=3)
        calm = {"max_violation": 0.04, "n_updates": 1}
        hot = {"max_violation": 0.06, "n_updates": 1}
        assert not policy.should_retune(calm)
        assert policy.should_retune(hot)
        policy.note_retune(hot)
        assert not policy.should_retune(
            {"max_violation": 0.06, "n_updates": 3},
        )
        assert policy.should_retune(
            {"max_violation": 0.06, "n_updates": 4},
        )

    def test_warm_retune_without_a_report_runs_cold(self):
        # a model with no report has no λ to start from: the retune is
        # the cold solve, λ for λ and fit for fit
        dataset = load("adult", n=1500, seed=0)
        solved = Engine("binary_search").solve(
            "SP <= 0.05", "LR", dataset, seed=0,
        )
        bare = FairModel(solved.model, "SP <= 0.05")
        assert bare.report is None
        auditor = IncrementalAuditor(
            "SP <= 0.05", bare, dataset.subset(np.arange(1000)),
        )
        auditor.append_rows(dataset.subset(np.arange(1000, 1400)))
        cold = Engine("binary_search").solve(
            "SP <= 0.05", "LR", auditor.live_dataset(), seed=0,
        ).report
        fair = warm_retune(auditor, seed=0, strategy="binary_search")
        assert fair.report.lambdas.tolist() == cold.lambdas.tolist()
        assert fair.report.n_fits == cold.n_fits
        assert [h.lam for h in fair.report.history] == [
            h.lam for h in cold.history
        ]
        assert auditor.model is fair

    def test_warm_retune_saves_fits_and_rebases(self):
        dataset = load("adult", n=1500, seed=0)
        model = Engine("binary_search").solve(
            "SP <= 0.05", "LR", dataset, seed=0,
        )
        base = dataset.subset(np.arange(1000))
        auditor = IncrementalAuditor("SP <= 0.05", model, base)
        auditor.append_rows(dataset.subset(np.arange(1000, 1400)))
        cold = Engine("binary_search").solve(
            "SP <= 0.05", "LR", auditor.live_dataset(), seed=0,
        )
        warm = warm_retune(auditor, seed=0, strategy="binary_search")
        assert warm.report.n_fits <= cold.report.n_fits
        # rebase swapped the audited model and kept state exact
        assert auditor.model is warm
        assert_snapshot_matches(auditor.audit(), auditor.recompute())

    def test_warm_retune_leaves_out_undeclared_warm_fields(self):
        # grid declares no warm field, so the seed is dropped and the
        # retune runs the cold grid instead of refusing the option
        dataset = load("adult", n=1500, seed=0)
        model = Engine("binary_search").solve(
            "SP <= 0.1", "LR", dataset, seed=0,
        )
        assert model.report.lambdas.tolist() != [0.0]
        auditor = IncrementalAuditor(
            "SP <= 0.1", model, dataset.subset(np.arange(1000)),
        )
        auditor.append_rows(dataset.subset(np.arange(1000, 1400)))
        cold = Engine("grid").solve(
            "SP <= 0.1", "LR", auditor.live_dataset(), seed=0,
        )
        fair = warm_retune(auditor, seed=0, strategy="grid")
        assert fair.report.strategy == "grid"
        assert fair.report.lambdas.tolist() == cold.report.lambdas.tolist()
        assert fair.report.n_fits == cold.report.n_fits
        assert auditor.model is fair


# ---------------------------------------------------------------------------
# storage mechanics
# ---------------------------------------------------------------------------


class TestStorage:
    def test_growth_over_many_batches(self):
        rng = np.random.default_rng(8)
        base = make_dataset(rng, 50)
        auditor = IncrementalAuditor(
            FairnessSpec("SP", 0.05), ThresholdModel(), base,
        )
        pool = make_dataset(rng, 2000)
        for b in range(20):
            auditor.append_rows(pool.subset(np.arange(b * 100, (b + 1) * 100)))
        assert auditor.n_live == 50 + 2000
        assert auditor.n_total == 2050
        assert_snapshot_matches(auditor.audit(), auditor.recompute())

    def test_live_dataset_round_trips_extras(self):
        rng = np.random.default_rng(9)
        flag = rng.integers(0, 2, size=60).astype(np.int64)
        base = make_dataset(rng, 60, extras={"flag": flag})
        auditor = IncrementalAuditor(
            FairnessSpec("SP", 0.05), ThresholdModel(), base,
        )
        batch_flag = np.ones(15, dtype=np.int64)
        auditor.append_rows(
            make_dataset(rng, 15, extras={"flag": batch_flag}),
        )
        auditor.retire_rows([0])
        live = auditor.live_dataset()
        assert len(live) == 74
        expected = np.concatenate([flag[1:], batch_flag])
        assert np.array_equal(live.extras["flag"], expected)

    def test_counts_are_exact_integers(self):
        """After random updates the running column counts equal, as
        exact integers, a from-scratch evaluator's over the live rows."""
        rng = np.random.default_rng(10)
        groups = ("A", "B", "C")
        specs = [FairnessSpec("SP", 0.05), FairnessSpec("FOR", 0.1)]
        auditor = IncrementalAuditor(
            specs, ThresholdModel(), make_dataset(rng, 90, groups=groups),
        )
        drive_random_updates(
            auditor, make_dataset(rng, 200, groups=groups), rng, 12,
        )
        assert auditor.n_updates > 0
        live = auditor.live_dataset()
        evaluator = CompiledEvaluator(bind_specs(specs, live), live.y)
        preds = auditor.live_predictions()[None, :]
        pos, correct = evaluator._counts(lambda rows: preds[:, rows], 1)
        assert auditor._pos.dtype == auditor._rows.dtype == np.int64
        assert np.array_equal(auditor._pos, pos[0])
        assert np.array_equal(auditor._rows, evaluator._rows)
        assert auditor._correct == correct[0]
        assert auditor._n_live == auditor.n_live == len(live)

    def test_sides_share_their_group_columns(self):
        """A 4-group SP binding counts 4 columns, not one per side."""
        rng = np.random.default_rng(12)
        base = make_dataset(rng, 80, groups=("A", "B", "C", "D"))
        spec = FairnessSpec("SP", 0.05)
        evaluator = CompiledEvaluator(bind_specs([spec], base), base.y)
        auditor = IncrementalAuditor(spec, ThresholdModel(), base)
        assert auditor.k == 6
        assert evaluator._mask.shape == (80, 4)
        assert auditor._col("mask").shape == (80, 4)
        auditor.append_rows(make_dataset(rng, 10, groups=("A", "B", "C", "D")))
        assert auditor._col("mask").shape == (90, 4)

"""Persistence round-trips for full fitted artifacts, and failure paths."""

import io
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import FairModel, fit_fair
from repro.cli import main
from repro.ml import LogisticRegression
from repro.ml.persistence import (
    _FORMAT_VERSION,
    _MAGIC,
    ModelFormatError,
    load_model,
    save_model,
)


@pytest.fixture(scope="module")
def fitted(two_group_splits):
    train, val, test = two_group_splits
    fm = fit_fair(
        LogisticRegression(max_iter=200), "SP <= 0.05", train, val,
    )
    return fm, test


class TestFairModelRoundTrip:
    def test_predictions_survive(self, fitted, tmp_path):
        fm, test = fitted
        path = tmp_path / "fm.pkl"
        fm.save(path)
        loaded = FairModel.load(path)
        assert np.array_equal(loaded.predict(test.X), fm.predict(test.X))
        assert np.allclose(
            loaded.predict_proba(test.X), fm.predict_proba(test.X)
        )

    def test_report_and_audit_survive(self, fitted, tmp_path):
        fm, test = fitted
        path = tmp_path / "fm.pkl"
        fm.save(path)
        loaded = FairModel.load(path)
        assert loaded.report.lambdas.tolist() == fm.report.lambdas.tolist()
        assert loaded.report.strategy == fm.report.strategy
        assert loaded.audit(test) == fm.audit(test)
        assert loaded.specs.to_string() == fm.specs.to_string()

    def test_load_rejects_non_fair_model(self, tmp_path):
        path = tmp_path / "est.pkl"
        save_model(LogisticRegression(), path)
        with pytest.raises(Exception, match="FairModel"):
            FairModel.load(path)


class TestFailurePaths:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.pkl"
        with open(path, "wb") as fh:
            pickle.dump({"magic": "not-a-repro-model", "model": 1}, fh)
        with pytest.raises(ModelFormatError, match="bad envelope"):
            load_model(path)

    def test_newer_format_version(self, tmp_path):
        path = tmp_path / "future.pkl"
        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "magic": _MAGIC,
                    "format_version": _FORMAT_VERSION + 1,
                    "model": 1,
                },
                fh,
            )
        with pytest.raises(ModelFormatError, match="newer"):
            load_model(path)

    def test_not_a_pickle(self, tmp_path):
        path = tmp_path / "garbage.pkl"
        path.write_bytes(b"definitely not a pickle")
        with pytest.raises(ModelFormatError, match="not a repro model"):
            load_model(path)


class TestCLISaveFlow:
    def test_train_spec_save_end_to_end(self, tmp_path):
        """Acceptance: train --spec "FPR <= .05 and FNR <= .05" --save."""
        out = io.StringIO()
        path = tmp_path / "m.pkl"
        code = main(
            [
                "train", "--dataset", "adult", "--rows", "1200",
                "--spec", "FPR <= 0.05 and FNR <= 0.05",
                "--save", str(path),
            ],
            out=out,
        )
        assert code == 0, out.getvalue()
        loaded = FairModel.load(path)
        assert loaded.report.lambdas.shape == (2,)
        assert [s.metric.name for s in loaded.specs] == ["FPR", "FNR"]
        # the artifact re-audits on fresh data without the trainer
        from repro.datasets import load

        data = load("adult", n=800, seed=3)
        audit = loaded.audit(data)
        assert set(audit) == {
            "accuracy", "disparities", "violations", "feasible",
        }


class TestLibraryVersion:
    def test_envelope_and_package_share_one_version(self, tmp_path):
        # saved artifacts record repro.__version__; setup.py must report
        # the same number, parsed from the package without importing it
        pytest.importorskip("setuptools")
        path = tmp_path / "lr.pkl"
        save_model(LogisticRegression(), path)
        _, envelope = load_model(path, with_envelope=True)
        assert envelope["library_version"] == repro.__version__
        out = subprocess.run(
            [sys.executable, "setup.py", "--version"],
            cwd=pathlib.Path(__file__).resolve().parents[1],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.split()[-1] == repro.__version__


class TestEnvelopeExtras:
    def test_extra_fields_round_trip(self, fitted, tmp_path):
        fm, _ = fitted
        path = tmp_path / "fm.pkl"
        fm.save(path)
        _, envelope = load_model(path, with_envelope=True)
        extra = envelope["extra"]
        assert extra["fairmodel_format_version"] == 1
        assert extra["spec_canonical"] == "SP <= 0.05"

    def test_unknown_envelope_key_warns_not_crashes(self, tmp_path):
        path = tmp_path / "odd.pkl"
        save_model(LogisticRegression(), path)
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
        envelope["surprise"] = "from the future"
        with open(path, "wb") as fh:
            pickle.dump(envelope, fh)
        with pytest.warns(RuntimeWarning, match="surprise"):
            load_model(path)

    def test_unknown_extra_key_warns_on_fairmodel_load(
        self, fitted, tmp_path
    ):
        fm, test = fitted
        path = tmp_path / "fm.pkl"
        fm.save(path)
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
        envelope["extra"]["novel_field"] = 1
        with open(path, "wb") as fh:
            pickle.dump(envelope, fh)
        with pytest.warns(RuntimeWarning, match="novel_field"):
            loaded = FairModel.load(path)
        assert np.array_equal(loaded.predict(test.X), fm.predict(test.X))

    def test_newer_fairmodel_version_warns_not_crashes(
        self, fitted, tmp_path
    ):
        fm, test = fitted
        path = tmp_path / "fm.pkl"
        fm.save(path)
        with open(path, "rb") as fh:
            envelope = pickle.load(fh)
        envelope["extra"]["fairmodel_format_version"] = 99
        with open(path, "wb") as fh:
            pickle.dump(envelope, fh)
        with pytest.warns(RuntimeWarning, match="loading anyway"):
            loaded = FairModel.load(path)
        assert np.array_equal(loaded.predict(test.X), fm.predict(test.X))


class TestTreeModelsPickledBy5x:
    """Tree models pickled by 5.0.0 load and predict bit-identically.

    ``fixtures/models_5x.pkl`` was written by repro 5.0.0: a
    ``DecisionTree(max_depth=3)``, a non-bootstrap
    ``RandomForest(n_estimators=3, max_depth=3)`` and
    ``GradientBoostedTrees(n_estimators=3, max_depth=2)`` fitted with
    ``presort=True`` and ``presort=False`` (so both 5.x round classes
    appear), on 40 weighted rows of 3 features, with each model's
    ``predict_proba`` on 8 fixed rows.
    """

    @pytest.fixture(scope="class")
    def fixture(self):
        path = pathlib.Path(__file__).parent / "fixtures" / "models_5x.pkl"
        with open(path, "rb") as fh:
            return pickle.load(fh)

    def test_load_and_predict_bit_identically(self, fixture):
        assert fixture["version"] == "5.0.0"
        rows = fixture["rows"]
        assert len(fixture["models"]) == 4
        for name, model in fixture["models"].items():
            want = fixture["predict_proba"][name]
            assert model.predict_proba(rows).tobytes() == want.tobytes(), name
            assert model.n_features_in_ is None, name

    def test_boosting_rounds_keep_only_node_lists(self, fixture):
        names = set()
        for name, model in fixture["models"].items():
            if name.startswith("GradientBoostedTrees"):
                for tree in model.trees_:
                    names.add(type(tree).__name__)
                    assert sorted(vars(tree)) == [
                        "feature", "left", "right", "threshold", "value",
                    ]
                again = pickle.loads(pickle.dumps(model))
                assert np.array_equal(
                    again.decision_function(fixture["rows"]),
                    model.decision_function(fixture["rows"]),
                )
        assert names == {"_BoostTreeBuilder", "_PresortBoostTreeBuilder"}

"""The legacy ``OmniFair`` trainer — now a thin shim over ``repro.api``.

New code should use the layered facade directly::

    from repro.api import Engine, Problem, fit_fair
    from repro.ml import LogisticRegression

    model = fit_fair(LogisticRegression(), "SP <= 0.03", train, val)
    model.audit(test)          # accuracy + per-constraint disparities
    model.save("fair.pkl")     # deployable artifact

The class below keeps the original imperative surface working: the old
constructor kwargs map onto strategy configs (see README.md for the full
mapping), solver dispatch goes through the strategy registry, and the
trailing-underscore result attributes are populated from the structured
:class:`~repro.core.report.FitReport` after ``fit``.
"""

from __future__ import annotations

from .exceptions import SpecificationError
from .spec import FairnessSpec
from .strategies import available_strategies

__all__ = ["OmniFair"]


class OmniFair:
    """Model-agnostic group-fair training with declarative constraints.

    .. deprecated::
        Prefer :class:`repro.api.Engine` + :class:`repro.api.Problem`
        (or :func:`repro.api.fit_fair`); this class remains as a
        backwards-compatible shim.  Kwarg → strategy-config mapping:

        ============  =====================================
        old kwarg     new home
        ============  =====================================
        search        ``Engine(strategy=...)`` (registry name)
        delta, tau    ``BinarySearchConfig`` / ``HillClimbConfig``
        lambda_max    ``BinarySearchConfig`` / ``HillClimbConfig``
        max_rounds    ``HillClimbConfig``
        grid_max/...  ``GridConfig``
        negative_...  ``Engine(negative_weights=...)``
        warm_start    ``Engine(warm_start=...)``
        subsample     ``Engine(subsample=...)``
        ============  =====================================

    Parameters
    ----------
    estimator : BaseClassifier
        Any classifier following the ``fit(X, y, sample_weight)`` protocol.
    specs : FairnessSpec, list of FairnessSpec, or DSL string
        One or more declarative specifications; a single spec whose
        grouping yields >2 groups already induces multiple constraints.
        A string is parsed with :func:`repro.core.dsl.parse_spec`.
    search : str
        ``"auto"`` or any registered strategy name
        (:func:`repro.core.strategies.available_strategies`).

    Remaining parameters are the legacy solver knobs documented in the
    mapping table above.
    """

    def __init__(
        self,
        estimator,
        specs,
        delta=0.01,
        tau=1e-3,
        negative_weights="flip",
        warm_start=False,
        search="auto",
        max_rounds=None,
        grid_max=1.0,
        grid_steps=5,
        lambda_max=1e5,
        subsample=None,
    ):
        if isinstance(specs, str):
            from .dsl import parse_spec

            specs = parse_spec(specs)
        if isinstance(specs, FairnessSpec):
            specs = [specs]
        if not specs:
            raise SpecificationError("at least one FairnessSpec is required")
        for spec in specs:
            if not isinstance(spec, FairnessSpec):
                raise SpecificationError(
                    f"expected FairnessSpec, got {type(spec).__name__}"
                )
        if search != "auto" and search not in available_strategies():
            raise SpecificationError(
                f"unknown search strategy {search!r}; registered: "
                f"{available_strategies()} (plus 'auto')"
            )
        self.estimator = estimator
        self.specs = list(specs)
        self.delta = delta
        self.tau = tau
        self.negative_weights = negative_weights
        self.warm_start = warm_start
        self.search = search
        self.max_rounds = max_rounds
        self.grid_max = grid_max
        self.grid_steps = grid_steps
        self.lambda_max = lambda_max
        self.subsample = subsample
        self._fitted = False

    # -- fitting --------------------------------------------------------------

    @staticmethod
    def _split_validation(train, val_fraction, seed):
        """Legacy alias for the engine's stratified holdout split."""
        from ..api import Engine

        return Engine._split_validation(train, val_fraction, seed)

    def fit(self, train, val=None, val_fraction=0.25, seed=0):
        """Train a fair classifier on ``train``; tune λ on ``val``.

        Parameters
        ----------
        train : Dataset
            Training data (``repro.datasets.schema.Dataset``).
        val : Dataset, optional
            Validation data for FP/AP evaluation; if omitted, a stratified
            ``val_fraction`` slice of ``train`` is held out.
        """
        # the facade lives one layer above core; import lazily so the
        # core package never depends on it at import time
        from ..api import Engine, Problem

        legacy_options = {
            "delta": self.delta,
            "tau": self.tau,
            "lambda_max": self.lambda_max,
            "grid_max": self.grid_max,
            "grid_steps": self.grid_steps,
        }
        if self.max_rounds is not None:
            legacy_options["max_rounds"] = self.max_rounds
        engine = Engine(
            self.search,
            negative_weights=self.negative_weights,
            warm_start=self.warm_start,
            subsample=self.subsample,
            strict=False,  # each strategy picks its knobs from the union
            **legacy_options,
        )
        fair_model = engine.solve(
            Problem(self.specs), self.estimator, train, val,
            val_fraction=val_fraction, seed=seed,
        )

        report = fair_model.report
        self.fair_model_ = fair_model
        self.report_ = report
        self.model_ = fair_model.model
        self.lambdas_ = report.lambdas
        self.n_rounds_ = report.n_rounds
        self.feasible_ = report.feasible
        self.n_fits_ = report.n_fits
        self.history_ = report.history
        self.train_constraints_ = report.train_constraints
        self.val_constraints_ = report.val_constraints
        self.validation_report_ = report.validation
        self._fitted = True
        return self

    # -- prediction / evaluation ----------------------------------------------

    def _check_is_fitted(self):
        if not self._fitted:
            raise RuntimeError("OmniFair is not fitted; call fit() first")

    def predict(self, X):
        """Hard labels from the tuned fair model."""
        self._check_is_fitted()
        return self.model_.predict(X)

    def predict_proba(self, X):
        """Class probabilities from the tuned fair model."""
        self._check_is_fitted()
        return self.model_.predict_proba(X)

    def evaluate(self, dataset):
        """Accuracy and disparities of the fair model on any Dataset."""
        self._check_is_fitted()
        return self.fair_model_.audit(dataset)

    def to_fair_model(self):
        """The deployable :class:`repro.api.FairModel` from the last fit."""
        self._check_is_fitted()
        return self.fair_model_

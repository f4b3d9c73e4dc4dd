"""From-scratch ML substrate: models, metrics, preprocessing, splitting.

Every classifier follows the protocol in :mod:`repro.ml.base`
(``fit(X, y, sample_weight=None)`` / ``predict`` / ``predict_proba`` /
``clone``), which is all OmniFair needs to stay model-agnostic.
"""

from .adapters import (
    ExternalEstimatorAdapter,
    external_model_names,
    register_external_model,
    resolve_model,
)
from .base import BaseClassifier, clone, estimator_fingerprint
from .boosting import GradientBoostedTrees
from .forest import RandomForest
from .knn import KNearestNeighbors
from .logistic import LogisticRegression
from .naive_bayes import GaussianNaiveBayes
from .persistence import ModelFormatError, load_model, save_model
from .metrics import (
    accuracy_score,
    average_error_cost,
    confusion_counts,
    error_rate,
    false_discovery_rate,
    false_negative_rate,
    false_omission_rate,
    false_positive_rate,
    misclassification_rate,
    roc_auc_score,
    selection_rate,
    true_positive_rate,
)
from .model_selection import multi_split, train_test_split, train_val_test_split
from .neural import NeuralNetwork
from .preprocessing import OneHotEncoder, StandardScaler, TabularEncoder
from .replication import ReplicationWrapper, replicate_by_weight
from .svm import LinearSVM
from .tree import DecisionTree, PresortedDataset

__all__ = [
    "BaseClassifier",
    "clone",
    "estimator_fingerprint",
    "LogisticRegression",
    "LinearSVM",
    "DecisionTree",
    "PresortedDataset",
    "RandomForest",
    "GradientBoostedTrees",
    "NeuralNetwork",
    "GaussianNaiveBayes",
    "KNearestNeighbors",
    "save_model",
    "load_model",
    "ModelFormatError",
    "ReplicationWrapper",
    "replicate_by_weight",
    "ExternalEstimatorAdapter",
    "register_external_model",
    "external_model_names",
    "resolve_model",
    "StandardScaler",
    "OneHotEncoder",
    "TabularEncoder",
    "train_test_split",
    "train_val_test_split",
    "multi_split",
    "accuracy_score",
    "error_rate",
    "roc_auc_score",
    "confusion_counts",
    "selection_rate",
    "true_positive_rate",
    "false_positive_rate",
    "false_negative_rate",
    "false_omission_rate",
    "false_discovery_rate",
    "misclassification_rate",
    "average_error_cost",
]

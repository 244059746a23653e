"""The kind table: each classifier class under its ``kind`` name, and ``fit``."""
from __future__ import annotations

from ..core import Dataset, ValidationError
from .base import ClassifierModel
from .knn import KnnClassifier
from .mlp_classifier import MlpClassifier
from .svm import LinearSvmClassifier
from .trees import DecisionTreeClassifier, RandomForestClassifier

# The order of KINDS fixes the default target list, each target's seed
# offset, the report row order and the config hash.
MODELS = {cls.kind: cls for cls in (KnnClassifier, DecisionTreeClassifier,
                                    RandomForestClassifier, LinearSvmClassifier, MlpClassifier)}
KINDS = tuple(MODELS)


def model_class(kind: str) -> type:
    if kind not in MODELS:
        raise ValidationError(f"unknown classifier kind {kind!r}; expected one of {KINDS}")
    return MODELS[kind]


def fit(kind: str, train: Dataset, seed: int = 0) -> ClassifierModel:
    """Train one of the five classifier families; deterministic per seed."""
    return model_class(kind).fit(train, seed=seed)

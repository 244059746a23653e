"""Common classifier surface: the standardizing scaler and the model base."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import (
    Dataset,
    DegenerateTrainingError,
    FeatureSchema,
    ValidationError,
    validate_matrix,
)


def check_shape(what: str, a, shape: tuple) -> None:
    """ValidationError unless ``a`` has exactly ``shape``."""
    if np.shape(a) != shape:
        raise ValidationError(f"{what} has shape {np.shape(a)}, expected {shape}")


def check_real(what: str, *arrays) -> None:
    """ValidationError unless every array holds real floats or integers."""
    dtypes = [np.asarray(a).dtype for a in arrays]
    if any(d.kind not in "fiu" for d in dtypes):
        have = "have dtypes" if len(dtypes) > 1 else "has dtype"
        raise ValidationError(f"{what} {have} {'/'.join(map(str, dtypes))}, "
                              "expected real floats or integers")


def scalar_int(data, key: str) -> int:
    """``int`` of archive array ``key``; ValidationError unless it holds one value."""
    a = data[key]
    check_shape(key, a, ())
    return int(a)


@dataclass(frozen=True)
class Scaler:
    """Per-feature standardization fitted on training data."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray) -> "Scaler":
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        return cls(mean, scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) / self.scale

    def check(self, n_features: int, what: str) -> None:
        check_shape(f"{what} scaler_mean", self.mean, (n_features,))
        check_shape(f"{what} scaler_scale", self.scale, (n_features,))
        check_real(f"{what} scaler_mean/scaler_scale", self.mean, self.scale)
        if not np.isfinite(self.mean).all():
            raise ValidationError(f"{what} scaler_mean holds non-finite values")
        if not (np.isfinite(self.scale) & (self.scale > 0)).all():
            raise ValidationError(f"{what} scaler_scale must be finite and positive")

    def to_arrays(self) -> dict:
        return {"scaler_mean": self.mean, "scaler_scale": self.scale}

    @classmethod
    def from_arrays(cls, data) -> "Scaler":
        return cls(np.array(data["scaler_mean"]), np.array(data["scaler_scale"]))


class ClassifierModel:
    """Trained multi-class model; immutable after fit.

    Subclasses implement ``predict_scores`` over an ``(n, K)`` row batch;
    ``predict_ids`` is always the score argmax, with ties broken toward the
    lowest class id. Each also extends ``to_arrays`` and inverts it with
    ``from_arrays``.
    """

    kind: str = "abstract"

    def __init__(self, schema: FeatureSchema, class_labels: tuple):
        self.schema = schema
        self.class_labels = tuple(class_labels)

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)

    def to_arrays(self) -> dict:
        """The archive arrays every classifier kind shares."""
        return {
            "kind": np.asarray(self.kind),
            "schema_json": np.asarray(self.schema.to_json()),
            "class_labels": np.asarray(self.class_labels),
        }

    @staticmethod
    def header_from_arrays(data) -> tuple:
        """``(schema, class_labels)`` read back from the shared arrays."""
        labels = data["class_labels"]
        check_shape("class_labels", labels, (labels.size,))
        return FeatureSchema.from_json(str(data["schema_json"])), tuple(str(s) for s in labels)

    def _check(self, X) -> np.ndarray:
        return validate_matrix(self.schema, X, f"{self.kind} input")

    def predict_scores(self, X) -> np.ndarray:
        raise NotImplementedError

    def predict_ids(self, X) -> np.ndarray:
        # np.argmax returns the first maximum, i.e. the lowest class id.
        return np.argmax(self.predict_scores(X), axis=1)


def check_trainable(train: Dataset) -> None:
    if len(train) == 0:
        raise ValidationError("training dataset is empty")
    if np.unique(train.y).size < 2:
        raise DegenerateTrainingError("training data contains a single class")

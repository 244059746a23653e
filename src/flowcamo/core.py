"""Shared domain types and the two evaluation metrics.

Everything here is immutable after construction and safe to share
read-only across workers; the metric functions are pure.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Sequence

import numpy as np


class ValidationError(ValueError):
    """Input violates a schema or an operation precondition (CLI exit 1)."""


class NumericError(ArithmeticError):
    """A numeric routine hit non-finite values (CLI exit 2)."""


@dataclass(frozen=True)
class Feature:
    """One named flow/service feature with its valid range and mutability."""

    name: str
    unit: str
    lo: float
    hi: float
    mutable: bool

    def __post_init__(self):
        if not np.isfinite(self.lo) or not np.isfinite(self.hi):
            raise ValidationError(f"feature {self.name}: bounds must be finite")
        if self.lo > self.hi:
            raise ValidationError(f"feature {self.name}: lo {self.lo} > hi {self.hi}")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature list; the mutable mask is fixed per experiment."""

    features: tuple

    def __post_init__(self):
        object.__setattr__(self, "features", tuple(self.features))
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise ValidationError("feature names must be unique")
        if not self.features:
            raise ValidationError("schema is empty")

    def __len__(self) -> int:
        return len(self.features)

    @cached_property
    def names(self) -> tuple:
        return tuple(f.name for f in self.features)

    @cached_property
    def lows(self) -> np.ndarray:
        a = np.array([f.lo for f in self.features], dtype=float)
        a.flags.writeable = False
        return a

    @cached_property
    def highs(self) -> np.ndarray:
        a = np.array([f.hi for f in self.features], dtype=float)
        a.flags.writeable = False
        return a

    @cached_property
    def mutable_mask(self) -> np.ndarray:
        a = np.array([f.mutable for f in self.features], dtype=bool)
        a.flags.writeable = False
        return a

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"unknown feature {name!r}") from None

    def subset(self, indices: Sequence[int]) -> "FeatureSchema":
        """The features at ``indices``; a repeated index fails as a repeated name."""
        idx = np.asarray(indices)
        if (idx.ndim != 1 or not np.issubdtype(idx.dtype, np.integer)
                or not ((idx >= 0) & (idx < len(self))).all()):
            raise ValidationError(f"subset indices must be 1-D integers in 0..{len(self) - 1}")
        return FeatureSchema(tuple(self.features[i] for i in idx))

    def projection_onto(self, other: "FeatureSchema") -> np.ndarray:
        """Column indices in this schema for each feature of ``other``.

        Raises ValidationError if ``other`` is not a (name-wise) subset.
        """
        return np.array([self.index(n) for n in other.names], dtype=int)

    def to_json(self) -> str:
        return json.dumps([asdict(f) for f in self.features])

    @classmethod
    def from_json(cls, text: str) -> "FeatureSchema":
        return cls(tuple(
            Feature(d["name"], d["unit"], float(d["lo"]), float(d["hi"]), bool(d["mutable"]))
            for d in json.loads(text)))


@dataclass(frozen=True)
class DeviceClass:
    id: int
    label: str

    def __post_init__(self):
        if self.id < 0:
            raise ValidationError(f"class id must be non-negative, got {self.id}")


def readonly_array(a, dtype) -> np.ndarray:
    """``a`` as a read-only ``dtype`` array that never freezes the caller's own.

    A writeable array the caller may still hold is copied first; a read-only
    input, or a fresh conversion made here, is kept without a copy.
    """
    arr = np.asarray(a, dtype=dtype)
    if arr.flags.writeable:
        if arr is a or arr.base is not None:
            arr = arr.copy()
        arr.flags.writeable = False
    return arr


def validate_matrix(schema: FeatureSchema, X: np.ndarray, what: str = "X") -> np.ndarray:
    """Check that X is an ``(n, K)`` row batch within the per-feature
    ranges; returns X as a float array."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(schema):
        raise ValidationError(
            f"{what}: expected an (n, {len(schema)}) row batch, got shape {X.shape}"
        )
    if not np.isfinite(X).all():
        raise ValidationError(f"{what}: non-finite values")
    lo_bad = X < schema.lows - 1e-9
    hi_bad = X > schema.highs + 1e-9
    if lo_bad.any() or hi_bad.any():
        r, c = np.argwhere(lo_bad | hi_bad)[0]
        raise ValidationError(
            f"{what}: value {X[r, c]} out of range for feature "
            f"{schema.names[c]!r} at row {r}"
        )
    return X


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus integer class ids aligned to ``class_labels``.

    The ids are ground truth for generated or ingested traffic and oracle
    labels for what the attacker collects through ``Oracle.collect``.
    """

    schema: FeatureSchema
    X: np.ndarray
    y: np.ndarray
    class_labels: tuple

    def __post_init__(self):
        X = validate_matrix(self.schema, readonly_array(self.X, float), "dataset")
        y = readonly_array(self.y, int)
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValidationError("y must be 1-D and aligned with X")
        object.__setattr__(self, "class_labels", tuple(self.class_labels))
        if len(y) and (y.min() < 0 or y.max() >= len(self.class_labels)):
            raise ValidationError("class id out of range")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)

    def take(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.schema, self.X[idx], self.y[idx], self.class_labels)

    def project(self, schema: FeatureSchema) -> "Dataset":
        """Restrict columns to another (subset) schema, matched by name."""
        cols = self.schema.projection_onto(schema)
        return Dataset(schema, self.X[:, cols], self.y, self.class_labels)


def _ids(a) -> np.ndarray:
    ids = np.asarray(a, dtype=int)
    if ids.size == 0:
        raise ValidationError("no predictions to evaluate")
    return ids


def identification_rate(y_true, y_pred) -> float:
    """Fraction of predicted ids equal to the true ids."""
    y_true, y_pred = _ids(y_true), _ids(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValidationError(f"{y_pred.shape} predictions for {y_true.shape} true ids")
    return float(np.mean(y_true == y_pred))


def spoofing_rate(y_pred, target: DeviceClass) -> float:
    """Fraction of predicted ids equal to the attacker's chosen class."""
    return float(np.mean(_ids(y_pred) == target.id))


def stratified_split(y: np.ndarray, train_fraction: float, seed: int):
    """Sorted ``(train_idx, test_idx)`` stratified by label; deterministic per seed.

    Each class's rows are shuffled and ``round(train_fraction * n)`` of
    them, clamped to ``1..n-1``, go to train. A class with a single row
    goes to train whole.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValidationError(f"train_fraction must be in (0,1), got {train_fraction}")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c in np.unique(y):
        rows = rng.permutation(np.flatnonzero(y == c))
        if rows.size < 2:
            train_idx.append(rows)
            continue
        n_train = min(max(int(round(train_fraction * rows.size)), 1), rows.size - 1)
        train_idx.append(rows[:n_train])
        test_idx.append(rows[n_train:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx)) if test_idx else np.array([], dtype=int)
    return train_idx, test_idx


def split_dataset(ds: Dataset, train_fraction: float, seed: int):
    """``stratified_split`` of a dataset into train and test datasets.

    Every class keeps at least one row on each side, so any class with
    fewer than 2 rows raises ValidationError.
    """
    train_idx, test_idx = stratified_split(ds.y, train_fraction, seed)
    single = np.flatnonzero(np.bincount(ds.y) == 1)
    if single.size:
        raise ValidationError(
            f"class {ds.class_labels[single[0]]!r} has 1 row(s); need >= 2"
        )
    return ds.take(train_idx), ds.take(test_idx)

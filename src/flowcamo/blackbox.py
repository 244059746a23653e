"""Label-only oracle around a trained target, plus eavesdropped data capture.

The oracle exposes exactly three things: ``query``, ``collect`` and
``query_log``. Target kind, parameters and scores stay hidden; the
attacker's feature pool is projected onto the target's schema inside.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .core import DeviceClass, FeatureSchema, ValidationError, readonly_array, validate_matrix
from .learners import ClassifierModel


@dataclass(frozen=True)
class EavesdropCorpus:
    """Attacker-side training data: pool-schema vectors with oracle labels."""

    schema: FeatureSchema
    X: np.ndarray
    y: np.ndarray  # oracle label ids
    class_labels: tuple

    def __post_init__(self):
        X = validate_matrix(self.schema, readonly_array(self.X, float), "corpus")
        y = readonly_array(self.y, int)
        if y.shape[0] != X.shape[0]:
            raise ValidationError("corpus labels must align with rows")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "class_labels", tuple(self.class_labels))

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def n_classes(self) -> int:
        return len(self.class_labels)


class Oracle:
    """Opaque identification service; only labels come back out."""

    def __init__(self, target: ClassifierModel, pool_schema: FeatureSchema):
        # Validates that the target's features all exist in the pool.
        cols = pool_schema.projection_onto(target.schema)
        self.__target = target
        self.__pool_schema = pool_schema
        self.__cols = cols
        self.__lock = threading.Lock()
        self.__count = 0

    @property
    def query_log(self) -> int:
        return self.__count

    def __predict_ids(self, X: np.ndarray) -> np.ndarray:
        X = validate_matrix(self.__pool_schema, X, "query")
        with self.__lock:
            self.__count += X.shape[0]
        return self.__target.predict_ids(X[:, self.__cols])

    def query(self, x) -> DeviceClass:
        cid = int(self.__predict_ids(np.atleast_2d(np.asarray(x, dtype=float)))[0])
        return DeviceClass(cid, self.__target.class_labels[cid])

    def collect(self, traffic) -> EavesdropCorpus:
        X = np.asarray(traffic, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[0] == 0:
            raise ValidationError("no traffic to eavesdrop on")
        labels = self.__predict_ids(X)
        return EavesdropCorpus(self.__pool_schema, X, labels, self.__target.class_labels)


def make_oracle(target: ClassifierModel, pool_schema: FeatureSchema) -> Oracle:
    return Oracle(target, pool_schema)

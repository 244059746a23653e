"""Label-only oracle around a trained target; eavesdropped traffic comes back labelled.

The oracle exposes exactly two things: ``collect`` and ``query_log``.
Target kind, parameters and scores stay hidden; the attacker's feature
pool is projected onto the target's schema inside.
"""
from __future__ import annotations

from .core import Dataset, FeatureSchema, ValidationError, validate_matrix
from .learners import ClassifierModel


class Oracle:
    """Opaque identification service; only labels come back out."""

    def __init__(self, target: ClassifierModel, pool_schema: FeatureSchema):
        # Validates that the target's features all exist in the pool.
        cols = pool_schema.projection_onto(target.schema)
        self.__target = target
        self.__pool_schema = pool_schema
        self.__cols = cols
        self.__count = 0

    @property
    def query_log(self) -> int:
        return self.__count

    def collect(self, traffic) -> Dataset:
        """The ``(n, K)`` traffic rows, in the pool schema, labelled with the
        oracle's ids; each row counts as one query."""
        X = validate_matrix(self.__pool_schema, traffic, "query")
        if X.shape[0] == 0:
            raise ValidationError("no traffic to eavesdrop on")
        self.__count += X.shape[0]
        labels = self.__target.predict_ids(X[:, self.__cols])
        return Dataset(self.__pool_schema, X, labels, self.__target.class_labels)


def make_oracle(target: ClassifierModel, pool_schema: FeatureSchema) -> Oracle:
    return Oracle(target, pool_schema)

"""k-nearest-neighbors on standardized features; scores are vote fractions."""
from __future__ import annotations

import numpy as np

from ..core import Dataset, ValidationError
from .base import ClassifierModel, Scaler, check_trainable

# Upper bound on query x train distance entries held at once.
DISTANCE_CHUNK_ELEMENTS = 2_000_000


class KnnClassifier(ClassifierModel):
    kind = "knn"

    def __init__(self, schema, class_labels, scaler, train_X, train_y, k):
        super().__init__(schema, class_labels)
        if train_X.ndim != 2 or train_y.ndim != 1 or train_X.shape[0] != train_y.shape[0]:
            raise ValidationError(
                f"knn train_X {train_X.shape} and train_y {train_y.shape} do not match"
            )
        if not 1 <= k <= train_y.shape[0]:
            raise ValidationError(f"k={k} outside 1..{train_y.shape[0]} (training size)")
        if (not np.issubdtype(train_y.dtype, np.integer)
                or train_y.min() < 0 or train_y.max() >= self.n_classes):
            raise ValidationError(f"knn train_y holds ids outside 0..{self.n_classes - 1}")
        self.scaler = scaler
        self.train_X = train_X
        self.train_y = train_y
        self.k = k

    @classmethod
    def fit(cls, train: Dataset, k: int = 5, seed: int = 0) -> "KnnClassifier":
        check_trainable(train)
        scaler = Scaler.fit(train.X)
        return cls(train.schema, train.class_labels, scaler,
                   scaler.transform(train.X), train.y.copy(), int(k))

    def to_arrays(self) -> dict:
        return {**super().to_arrays(), **self.scaler.to_arrays(),
                "train_X": self.train_X, "train_y": self.train_y, "k": np.asarray(self.k)}

    @classmethod
    def from_arrays(cls, data) -> "KnnClassifier":
        return cls(*cls.header_from_arrays(data), Scaler.from_arrays(data),
                   np.array(data["train_X"]), np.array(data["train_y"]), int(data["k"]))

    def predict_scores(self, X) -> np.ndarray:
        """Vote fractions of each row's k nearest training rows.

        Neighbours are the k smallest squared distances in standardized
        feature space; ties at the k-th distance go to the earlier
        training row. Row ``i`` of the result is the per-class count of
        those k neighbours divided by k.
        """
        X = self._check(X)
        Xs = self.scaler.transform(X)
        n, k = Xs.shape[0], self.k
        counts = np.zeros((n, self.n_classes), dtype=np.int64)
        chunk = max(1, DISTANCE_CHUNK_ELEMENTS // self.train_X.shape[0])
        tr_sq = np.einsum("ij,ij->i", self.train_X, self.train_X)
        # Scaling by -2 is exact, so q.q - 2 q.t + t.t is built in place
        # with the same rounding as the plain expression.
        neg2_train_T = -2.0 * self.train_X.T
        for start in range(0, n, chunk):
            Q = Xs[start : start + chunk]
            d2 = Q @ neg2_train_T
            d2 += np.einsum("ij,ij->i", Q, Q)[:, None]
            d2 += tr_sq
            # Candidates are every entry at or below the row's k-th distance,
            # listed row by row in train order.
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
            rows, cols = np.divmod(np.flatnonzero(d2 <= kth), d2.shape[1])
            order = np.lexsort((cols, d2[rows, cols], rows))
            rows, cols = rows[order], cols[order]
            # Each row has >= k candidates; its first k are the neighbours.
            keep = np.arange(rows.size) - np.searchsorted(rows, rows) < k
            np.add.at(counts, (start + rows[keep], self.train_y[cols[keep]]), 1)
        return counts / k

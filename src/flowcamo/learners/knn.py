"""k-nearest-neighbors on standardized features; scores are vote fractions."""
from __future__ import annotations

import numpy as np

from ..core import Dataset, ValidationError
from .base import (ClassifierModel, Scaler, check_real, check_shape, check_trainable,
                   scalar_int)

# Upper bound on query x train distance entries held at once: 2 MiB of
# float64, so predict's working set stays a few MB at any query count.
DISTANCE_CHUNK_ELEMENTS = 2**18
# Neighbours voting in the knn target kind. The constructor takes any k,
# because an archive carries its own.
NEIGHBOURS = 5
# Widest feature set the constructor takes. From 32 features on, BLAS can
# round a query's distances differently by the height of its block, so its
# scores would depend on the other rows sent with it.
MAX_FEATURES = 31


def _blocks(n: int, rows: int) -> list:
    """``(start, stop)`` of consecutive blocks of ``rows`` rows covering ``n``.

    A one-row product takes BLAS's matrix-vector path, which can round
    differently, so a one-row tail joins the block before it.
    """
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


class KnnClassifier(ClassifierModel):
    kind = "knn"

    def __init__(self, schema, class_labels, scaler, train_X, train_y, k):
        super().__init__(schema, class_labels)
        if len(schema) > MAX_FEATURES:
            raise ValidationError(f"knn takes at most {MAX_FEATURES} features, got {len(schema)}")
        if train_y.ndim != 1:
            raise ValidationError(f"knn train_y must be 1-D, got shape {train_y.shape}")
        check_shape("knn train_X", train_X, (train_y.shape[0], len(schema)))
        check_real("knn train_X", train_X)
        if not np.isfinite(train_X).all():
            raise ValidationError("knn train_X holds non-finite values")
        scaler.check(len(schema), "knn")
        if not 1 <= k <= train_y.shape[0]:
            raise ValidationError(f"k={k} outside 1..{train_y.shape[0]} (training size)")
        if (not np.issubdtype(train_y.dtype, np.integer)
                or train_y.min() < 0 or train_y.max() >= self.n_classes):
            raise ValidationError(f"knn train_y holds ids outside 0..{self.n_classes - 1}")
        self.scaler = scaler
        self.train_X = train_X
        self.train_y = train_y
        self.k = k
        # Per-model distance terms. Scaling by -2 is exact, so q.q - 2 q.t + t.t
        # is built in place with the same rounding as the plain expression.
        # Zero columns pad -2 t^T to a multiple of 16 training rows, so BLAS
        # computes every real column with its main kernel: copies of a
        # training row get equal distances, and (up to ``MAX_FEATURES``) a
        # row's distances round alike whatever the block height.
        m = train_X.shape[0]
        neg2_train = np.zeros((m + -m % 16, train_X.shape[1]))
        neg2_train[:m] = -2.0 * train_X
        self._train_sq = np.einsum("ij,ij->i", train_X, train_X)
        self._neg2_train_T = neg2_train.T
        self._train_sq.flags.writeable = False
        self._neg2_train_T.flags.writeable = False

    @classmethod
    def fit(cls, train: Dataset, seed: int = 0) -> "KnnClassifier":
        check_trainable(train)
        scaler = Scaler.fit(train.X)
        return cls(train.schema, train.class_labels, scaler,
                   scaler.transform(train.X), train.y.copy(), NEIGHBOURS)

    def to_arrays(self) -> dict:
        return {**super().to_arrays(), **self.scaler.to_arrays(),
                "train_X": self.train_X, "train_y": self.train_y, "k": np.asarray(self.k)}

    @classmethod
    def from_arrays(cls, data) -> "KnnClassifier":
        return cls(*cls.header_from_arrays(data), Scaler.from_arrays(data),
                   np.array(data["train_X"]), np.array(data["train_y"]), scalar_int(data, "k"))

    def predict_scores(self, X) -> np.ndarray:
        """Vote fractions of each row's k nearest training rows.

        Neighbours are the k smallest squared distances in standardized
        feature space; ties at the k-th distance go to the earlier
        training row, so copies of a training row tie at any training
        size. Row ``i`` of the result is the per-class count of those k
        neighbours divided by k; it has the same bits whichever other rows
        are sent with it.
        """
        X = self._check(X)
        n = X.shape[0]
        # A one-row product takes BLAS's matrix-vector path, which can round
        # differently, so a single query is sent as a two-row block.
        Xs = self.scaler.transform(np.repeat(X, 2, axis=0) if n == 1 else X)
        m, k = self.train_X.shape[0], self.k
        counts = np.zeros((Xs.shape[0], self.n_classes), dtype=np.int64)
        per_block = max(2, DISTANCE_CHUNK_ELEMENTS // m)
        # One distance block, partition scratch and mask, reused by every
        # block; the distance block is as wide as the padded product.
        size = min(Xs.shape[0], per_block + 1)
        d2_buf = np.empty((size, self._neg2_train_T.shape[1]))
        part_buf, mask_buf = np.empty((size, m)), np.empty((size, m), dtype=bool)
        for start, stop in _blocks(Xs.shape[0], per_block):
            Q = Xs[start:stop]
            d2 = np.matmul(Q, self._neg2_train_T, out=d2_buf[: stop - start])[:, :m]
            d2 += np.einsum("ij,ij->i", Q, Q)[:, None]
            d2 += self._train_sq
            # Candidates are every entry at or below the row's k-th distance,
            # listed row by row in train order.
            part = part_buf[: stop - start]
            np.copyto(part, d2)
            part.partition(k - 1, axis=1)
            mask = np.less_equal(d2, part[:, k - 1 : k], out=mask_buf[: stop - start])
            rows, cols = np.divmod(np.flatnonzero(mask), m)
            order = np.lexsort((cols, d2[rows, cols], rows))
            rows, cols = rows[order], cols[order]
            # Each row has >= k candidates; its first k are the neighbours.
            keep = np.arange(rows.size) - np.searchsorted(rows, rows) < k
            np.add.at(counts, (start + rows[keep], self.train_y[cols[keep]]), 1)
        return counts[:n] / k

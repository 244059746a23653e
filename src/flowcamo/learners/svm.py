"""Linear one-vs-rest SVM trained by regularized hinge subgradient descent."""
from __future__ import annotations

import numpy as np

from ..core import Dataset, ValidationError
from .base import ClassifierModel, Scaler, check_real, check_shape, check_trainable
from .mlp import stable_scores

# Subgradient steps of the svm target kind.
EPOCHS = 800


class LinearSvmClassifier(ClassifierModel):
    kind = "svm"

    def __init__(self, schema, class_labels, scaler, W, b):
        super().__init__(schema, class_labels)
        k = len(schema)
        scaler.check(k, "svm")
        check_shape("svm W", W, (self.n_classes, k))
        check_shape("svm b", b, (self.n_classes,))
        check_real("svm W/b", W, b)
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ValidationError("svm W/b hold non-finite values")
        self.scaler = scaler
        self.W = W  # (n_classes, K)
        self.b = b  # (n_classes,)

    @classmethod
    def fit(cls, train: Dataset, seed: int = 0) -> "LinearSvmClassifier":
        check_trainable(train)
        scaler = Scaler.fit(train.X)
        X = scaler.transform(train.X)
        n, k = X.shape
        nc = train.n_classes
        Y = -np.ones((n, nc))
        Y[np.arange(n), train.y] = 1.0
        W = np.zeros((nc, k))
        b = np.zeros(nc)
        for t in range(1, EPOCHS + 1):
            margins = Y * (X @ W.T + b)
            viol = (margins < 1.0).astype(float) * Y  # (n, nc)
            gW = 1e-5 * W - (viol.T @ X) / n
            gb = -viol.mean(axis=0)
            step = 5.0 / (1.0 + 0.005 * t)
            W -= step * gW
            b -= step * gb
        return cls(train.schema, train.class_labels, scaler, W, b)

    def to_arrays(self) -> dict:
        return {**super().to_arrays(), **self.scaler.to_arrays(), "W": self.W, "b": self.b}

    @classmethod
    def from_arrays(cls, data) -> "LinearSvmClassifier":
        return cls(*cls.header_from_arrays(data), Scaler.from_arrays(data),
                   np.array(data["W"]), np.array(data["b"]))

    def predict_scores(self, X) -> np.ndarray:
        X = self._check(X)
        margins = self.scaler.transform(X) @ self.W.T + self.b
        return stable_scores(margins)

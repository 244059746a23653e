"""Linear one-vs-rest SVM trained by regularized hinge subgradient descent."""
from __future__ import annotations

import numpy as np

from ..core import Dataset, ValidationError
from .base import ClassifierModel, Scaler, check_trainable
from .mlp import stable_scores


class LinearSvmClassifier(ClassifierModel):
    kind = "svm"

    def __init__(self, schema, class_labels, scaler, W, b):
        super().__init__(schema, class_labels)
        self.scaler = scaler
        self.W = W  # (n_classes, K)
        self.b = b  # (n_classes,)

    @classmethod
    def fit(
        cls,
        train: Dataset,
        reg: float = 1e-5,
        epochs: int = 800,
        lr: float = 5.0,
        lr_decay: float = 0.005,
        seed: int = 0,
    ) -> "LinearSvmClassifier":
        check_trainable(train)
        if reg <= 0:
            raise ValidationError(f"regularization must be > 0, got {reg}")
        if epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {epochs}")
        scaler = Scaler.fit(train.X)
        X = scaler.transform(train.X)
        n, k = X.shape
        nc = train.n_classes
        Y = -np.ones((n, nc))
        Y[np.arange(n), train.y] = 1.0
        W = np.zeros((nc, k))
        b = np.zeros(nc)
        for t in range(1, epochs + 1):
            margins = Y * (X @ W.T + b)
            viol = (margins < 1.0).astype(float) * Y  # (n, nc)
            gW = reg * W - (viol.T @ X) / n
            gb = -viol.mean(axis=0)
            step = lr / (1.0 + lr_decay * t)
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

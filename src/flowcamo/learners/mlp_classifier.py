"""The neural-net classifier kind: standardized inputs into a sigmoid-head Net."""
from __future__ import annotations

import numpy as np

from ..core import Dataset, ValidationError
from .base import ClassifierModel, Scaler, check_trainable
from .mlp import Net, one_hot, train_net

# Training epochs of the neural_net target kind.
EPOCHS = 40


def fit_scaled_net(X, y, n_classes: int, epochs: int, seed: int, holdout=None) -> tuple:
    """The one MLP recipe: a ``Scaler`` fit on ``X``, ``Net([K, 64, 64, C],
    seed)``, then ``train_net`` at step size 0.1 in batches of 128 with seed
    + 1. Returns ``(scaler, net, curve)``: the accuracy on ``holdout=(X_h,
    y_h)`` after each epoch, or an empty curve without one."""
    scaler = Scaler.fit(X)
    net = Net([X.shape[1], 64, 64, n_classes], seed=seed)
    eval_fn = None
    if holdout is not None:
        X_h, y_h = scaler.transform(holdout[0]), holdout[1]

        def eval_fn(_epoch: int) -> float:
            return float(np.mean(np.argmax(net.scores(X_h), axis=1) == y_h))

    curve = train_net(net, scaler.transform(X), one_hot(y, n_classes), epochs=epochs, lr=0.1,
                      batch_size=128, seed=seed + 1, eval_fn=eval_fn)
    return scaler, net, curve


class MlpClassifier(ClassifierModel):
    kind = "neural_net"

    def __init__(self, schema, class_labels, scaler, net):
        super().__init__(schema, class_labels)
        scaler.check(len(schema), self.kind)
        sizes = net.layer_sizes
        if (sizes[0], sizes[-1]) != (len(schema), self.n_classes):
            raise ValidationError(
                f"{self.kind} sizes {list(sizes)} do not map {len(schema)} features "
                f"to {self.n_classes} classes"
            )
        self.scaler = scaler
        self.net = net

    @classmethod
    def fit(cls, train: Dataset, seed: int = 0) -> "MlpClassifier":
        check_trainable(train)
        scaler, net, _ = fit_scaled_net(train.X, train.y, train.n_classes, EPOCHS, seed)
        return cls(train.schema, train.class_labels, scaler, net)

    def to_arrays(self) -> dict:
        return {**super().to_arrays(), **self.scaler.to_arrays(), **self.net.to_arrays("net_")}

    @classmethod
    def from_arrays(cls, data) -> "MlpClassifier":
        return cls(*cls.header_from_arrays(data), Scaler.from_arrays(data),
                   Net.from_arrays(data, "net_"))

    def predict_scores(self, X) -> np.ndarray:
        X = self._check(X)
        return self.net.scores(self.scaler.transform(X))

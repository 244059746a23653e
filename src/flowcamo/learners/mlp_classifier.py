"""The neural-net classifier kind: standardized inputs into a sigmoid-head Net."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core import Dataset, ValidationError
from .base import ClassifierModel, Scaler, check_trainable
from .mlp import Net, one_hot, train_net


class MlpClassifier(ClassifierModel):
    kind = "neural_net"

    def __init__(self, schema, class_labels, scaler, net):
        super().__init__(schema, class_labels)
        scaler.check(len(schema), "neural_net")
        sizes = net.layer_sizes
        if (sizes[0], sizes[-1]) != (len(schema), self.n_classes):
            raise ValidationError(
                f"neural_net sizes {list(sizes)} do not map {len(schema)} features "
                f"to {self.n_classes} classes"
            )
        self.scaler = scaler
        self.net = net

    @classmethod
    def fit(
        cls,
        train: Dataset,
        hidden: Sequence[int] = (64, 64),
        epochs: int = 40,
        seed: int = 0,
    ) -> "MlpClassifier":
        check_trainable(train)
        if not hidden:
            raise ValidationError("need at least one hidden layer")
        scaler = Scaler.fit(train.X)
        net = Net([len(train.schema), *hidden, train.n_classes], seed=seed)
        train_net(
            net,
            scaler.transform(train.X),
            one_hot(train.y, train.n_classes),
            epochs=epochs,
            lr=0.1,
            batch_size=128,
            seed=seed + 1,
        )
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

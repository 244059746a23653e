"""Decision tree (Gini, midpoint thresholds) and bagged random forest.

Tie policy is fully deterministic: among equal-gain splits the lowest
feature index wins, and within a feature the lowest threshold wins.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from ..core import Dataset, ValidationError
from .base import ClassifierModel, check_trainable

_MIN_GAIN = 1e-12


class _TreeArrays:
    """Flattened tree: feature < 0 marks a leaf."""

    _FIELDS = ("feature", "threshold", "left", "right", "dist")

    def __init__(self):
        self.feature: list = []
        self.threshold: list = []
        self.left: list = []
        self.right: list = []
        self.dist: list = []

    def add_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.dist.append(None)
        return len(self.feature) - 1

    def finalize(self, n_classes: int):
        self.feature = np.asarray(self.feature, dtype=int)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.left = np.asarray(self.left, dtype=int)
        self.right = np.asarray(self.right, dtype=int)
        self.dist = np.vstack(
            [d if d is not None else np.zeros(n_classes) for d in self.dist]
        )
        return self

    def to_arrays(self, prefix: str) -> dict:
        return {f"{prefix}{name}": getattr(self, name) for name in self._FIELDS}

    @classmethod
    def from_arrays(cls, data, prefix: str) -> "_TreeArrays":
        tree = cls()
        for name in cls._FIELDS:
            setattr(tree, name, np.array(data[f"{prefix}{name}"]))
        return tree


def _best_split(X, y, n_classes, feat_candidates):
    """Return (feature, threshold) or None if no split reduces impurity."""
    n = y.size
    total = np.bincount(y, minlength=n_classes).astype(float)
    gini_parent = 1.0 - np.sum((total / n) ** 2)
    best_gain = _MIN_GAIN
    best = None
    for f in feat_candidates:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        cut = np.flatnonzero(xs[:-1] < xs[1:])
        if cut.size == 0:
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y[order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        nl = (cut + 1).astype(float)
        nr = n - nl
        left_counts = cum[cut]
        right_counts = total[None, :] - left_counts
        gini_l = 1.0 - np.sum((left_counts / nl[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right_counts / nr[:, None]) ** 2, axis=1)
        gain = gini_parent - (nl * gini_l + nr * gini_r) / n
        i = int(np.argmax(gain))  # first max -> lowest threshold
        if gain[i] > best_gain:
            best_gain = gain[i]
            thresh = 0.5 * (xs[cut[i]] + xs[cut[i] + 1])
            best = (int(f), float(thresh))
    return best


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    max_depth: Optional[int] = None,
    min_samples_leaf: int = 1,
    rng: Optional[np.random.Generator] = None,
    mtry: Optional[int] = None,
) -> _TreeArrays:
    """Greedy Gini tree; ``mtry`` enables per-split feature subsampling."""
    tree = _TreeArrays()
    root = tree.add_node()
    k = X.shape[1]
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        ys = y[idx]
        counts = np.bincount(ys, minlength=n_classes).astype(float)
        tree.dist[node] = counts / counts.sum()
        if (
            counts.max() == counts.sum()
            or (max_depth is not None and depth >= max_depth)
            or idx.size < 2 * min_samples_leaf
        ):
            continue
        if mtry is not None and mtry < k:
            cand = np.sort(rng.choice(k, size=mtry, replace=False))
        else:
            cand = np.arange(k)
        split = _best_split(X[idx], ys, n_classes, cand)
        if split is None:
            continue
        f, t = split
        go_left = X[idx, f] <= t
        if go_left.sum() < min_samples_leaf or (~go_left).sum() < min_samples_leaf:
            continue
        tree.feature[node] = f
        tree.threshold[node] = t
        lid = tree.add_node()
        rid = tree.add_node()
        tree.left[node] = lid
        tree.right[node] = rid
        stack.append((lid, idx[go_left], depth + 1))
        stack.append((rid, idx[~go_left], depth + 1))
    return tree.finalize(n_classes)


def tree_apply(tree: _TreeArrays, X: np.ndarray) -> np.ndarray:
    """Leaf node index for each row (level-synchronous routing)."""
    node = np.zeros(X.shape[0], dtype=int)
    while True:
        feat = tree.feature[node]
        active = feat >= 0
        if not active.any():
            return node
        rows = np.flatnonzero(active)
        f = feat[rows]
        go_left = X[rows, f] <= tree.threshold[node[rows]]
        node[rows] = np.where(go_left, tree.left[node[rows]], tree.right[node[rows]])


class DecisionTreeClassifier(ClassifierModel):
    kind = "decision_tree"

    def __init__(self, schema, class_labels, tree):
        super().__init__(schema, class_labels)
        self.tree = tree

    @classmethod
    def fit(
        cls,
        train: Dataset,
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 1,
        seed: int = 0,
    ) -> "DecisionTreeClassifier":
        check_trainable(train)
        if max_depth is not None and max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_leaf < 1:
            raise ValidationError("min_samples_leaf must be >= 1")
        tree = build_tree(train.X, train.y, train.n_classes, max_depth, min_samples_leaf)
        return cls(train.schema, train.class_labels, tree)

    def to_arrays(self) -> dict:
        return {**super().to_arrays(), **self.tree.to_arrays("t_")}

    @classmethod
    def from_arrays(cls, data) -> "DecisionTreeClassifier":
        return cls(*cls.header_from_arrays(data), _TreeArrays.from_arrays(data, "t_"))

    def predict_scores(self, X) -> np.ndarray:
        X = self._check(X)
        return self.tree.dist[tree_apply(self.tree, X)]


class RandomForestClassifier(ClassifierModel):
    kind = "random_forest"

    def __init__(self, schema, class_labels, trees):
        super().__init__(schema, class_labels)
        self.trees = trees

    @classmethod
    def fit(
        cls,
        train: Dataset,
        n_trees: int = 20,
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 1,
        mtry: Optional[int] = None,
        seed: int = 0,
    ) -> "RandomForestClassifier":
        check_trainable(train)
        if n_trees < 1:
            raise ValidationError(f"n_trees must be >= 1, got {n_trees}")
        if max_depth is not None and max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        k = len(train.schema)
        if mtry is None:
            mtry = max(1, int(round(np.sqrt(k))))
        if not 1 <= mtry <= k:
            raise ValidationError(f"mtry must be in [1, {k}], got {mtry}")
        rng = np.random.default_rng(seed)
        trees = []
        n = len(train)
        for _ in range(n_trees):
            boot = rng.integers(0, n, size=n)
            trees.append(
                build_tree(
                    train.X[boot],
                    train.y[boot],
                    train.n_classes,
                    max_depth,
                    min_samples_leaf,
                    rng=rng,
                    mtry=mtry,
                )
            )
        return cls(train.schema, train.class_labels, trees)

    def to_arrays(self) -> dict:
        out = {**super().to_arrays(), "n_trees": np.asarray(len(self.trees))}
        for i, tree in enumerate(self.trees):
            out.update(tree.to_arrays(f"t{i}_"))
        return out

    @classmethod
    def from_arrays(cls, data) -> "RandomForestClassifier":
        trees = [_TreeArrays.from_arrays(data, f"t{i}_") for i in range(int(data["n_trees"]))]
        return cls(*cls.header_from_arrays(data), trees)

    def predict_scores(self, X) -> np.ndarray:
        X = self._check(X)
        votes = np.zeros((X.shape[0], self.n_classes))
        for tree in self.trees:
            pred = np.argmax(tree.dist[tree_apply(tree, X)], axis=1)
            votes[np.arange(X.shape[0]), pred] += 1.0
        return votes / len(self.trees)

"""Decision tree (Gini, midpoint thresholds) and bagged random forest.

Tie policy is fully deterministic: among equal-gain splits the lowest
feature index wins, and within a feature the lowest threshold wins.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from ..core import Dataset, ValidationError
from .base import ClassifierModel, check_shape, check_trainable, scalar_int

_MIN_GAIN = 1e-12
# The gain ranked from exact integer statistics and the float gain differ by
# about 1e-14; every cut ranked within this much gain of the best is
# re-scored with the float gain.
_RESCORE_MARGIN = 1e-9


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

    def check(self, n_features: int, n_classes: int, what: str) -> None:
        """ValidationError unless the arrays form a tree over these sizes.

        Every split node's children come after it, so routing always ends.
        """
        n = np.size(self.feature)
        if n == 0:
            raise ValidationError(f"{what} has no nodes")
        for name in ("feature", "threshold", "left", "right"):
            check_shape(f"{what} {name}", getattr(self, name), (n,))
        check_shape(f"{what} dist", self.dist, (n, n_classes))
        if not all(np.issubdtype(a.dtype, np.integer)
                   for a in (self.feature, self.left, self.right)):
            raise ValidationError(f"{what} feature, left and right must be integer arrays")
        split = np.flatnonzero(self.feature >= 0)
        if (self.feature[split] >= n_features).any():
            raise ValidationError(f"{what} splits on a feature outside 0..{n_features - 1}")
        for child in (self.left[split], self.right[split]):
            if ((child <= split) | (child >= n)).any():
                raise ValidationError(
                    f"{what} has a child index not after its node or outside 0..{n - 1}"
                )

    def to_arrays(self, prefix: str) -> dict:
        return {f"{prefix}{name}": getattr(self, name) for name in self._FIELDS}

    @classmethod
    def from_arrays(cls, data, prefix: str) -> "_TreeArrays":
        tree = cls()
        for name in cls._FIELDS:
            setattr(tree, name, np.array(data[f"{prefix}{name}"]))
        return tree


def _best_split(cols, y, n_classes, features):
    """Return (feature, threshold) or None if no split reduces impurity.

    ``cols`` is ``(m, n)``: row ``j`` holds feature ``features[j]`` of the
    node's ``n`` rows, whose classes are ``y``. Every cut of every feature
    is ranked at once from exact integer class statistics; the cuts that
    rank within ``_RESCORE_MARGIN`` of the best are then scored with the
    float Gini gain, so the choice and its tie policy are fixed by that one
    expression.
    """
    m, n = cols.shape
    rows = np.arange(m)[:, None]
    counts = np.bincount(y, minlength=n_classes)
    # Rows of equal value are never split apart, so their order is free.
    order = cols.argsort(axis=1)
    xs = cols[rows, order]
    # Moving a row of class c to the left side raises sum_c lc^2 by
    # 2 lc + 1, where lc is the row's rank among that class's earlier rows.
    # Sorted stably by class, every feature row reads counts[0] zeros, then
    # counts[1] ones, ..., so a row's rank is its offset in its class's run.
    by_class = y[order].argsort(axis=1, kind="stable")
    start = counts.cumsum() - counts
    step = np.empty((m, n), dtype=np.intp)
    step[rows, by_class] = 2 * (np.arange(n) - np.repeat(start, counts)) + 1
    sq_left = step.cumsum(axis=1)[:, :-1]
    dot_left = counts[y][order].cumsum(axis=1)[:, :-1]  # sum_c t_c lc
    sq_total = counts @ counts
    sq_right = sq_total - 2 * dot_left + sq_left
    nl = np.arange(1, n)
    # n * (gain - gini_parent + 1) = n * gain + sq_total / n, up to rounding
    score = sq_left / nl + sq_right / (n - nl)
    score[~(xs[:, :-1] < xs[:, 1:])] = -np.inf
    top = score.max()
    if top == -np.inf:
        return None
    # Candidates in feature-major order: lowest feature, then lowest cut.
    row, cut = np.divmod(np.flatnonzero(score >= top - n * _RESCORE_MARGIN), n - 1)
    i = 0
    # A single candidate clearly above _MIN_GAIN is the choice whatever its
    # float gain; otherwise that gain decides.
    if row.size > 1 or top - sq_total / n <= n * (_MIN_GAIN + _RESCORE_MARGIN):
        # Left class counts at the candidate cuts: each row's sorted keys,
        # ordered by (feature row, class, position), binary-searched per class.
        keys = ((rows * n_classes + np.repeat(np.arange(n_classes), counts)) * n
                + by_class).ravel()
        below = (row[:, None] * n_classes + np.arange(n_classes)) * n + cut[:, None]
        left_counts = (np.searchsorted(keys, below, side="right")
                       - (row[:, None] * n + start)).astype(float)
        total = counts.astype(float)
        gini_parent = 1.0 - np.sum((total / n) ** 2)
        nl = (cut + 1).astype(float)
        nr = n - nl
        right_counts = total[None, :] - left_counts
        gini_l = 1.0 - np.sum((left_counts / nl[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right_counts / nr[:, None]) ** 2, axis=1)
        gain = gini_parent - (nl * gini_l + nr * gini_r) / n
        i = int(np.argmax(gain))  # first max -> lowest feature, then lowest threshold
        if not gain[i] > _MIN_GAIN:
            return None
    f, c = row[i], cut[i]
    return int(features[f]), float(0.5 * (xs[f, c] + xs[f, c + 1]))


def build_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    max_depth: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    mtry: Optional[int] = None,
) -> _TreeArrays:
    """Greedy Gini tree; ``mtry`` enables per-split feature subsampling."""
    tree = _TreeArrays()
    root = tree.add_node()
    k = X.shape[1]
    XT = np.ascontiguousarray(X.T)
    y = y.astype(np.min_scalar_type(n_classes - 1))  # a radix-sortable class id
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        ys = y[idx]
        counts = np.bincount(ys, minlength=n_classes).astype(float)
        tree.dist[node] = counts / counts.sum()
        if counts.max() == counts.sum() or (max_depth is not None and depth >= max_depth):
            continue
        if mtry is not None and mtry < k:
            cand = np.sort(rng.choice(k, size=mtry, replace=False))
        else:
            cand = np.arange(k)
        split = _best_split(XT[cand[:, None], idx], ys, n_classes, cand)
        if split is None:
            continue
        f, t = split
        go_left = XT[f, idx] <= t
        if go_left.all() or not go_left.any():
            continue  # the midpoint of two adjacent floats can round onto the upper one
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
        tree.check(len(schema), self.n_classes, "decision_tree")
        self.tree = tree

    @classmethod
    def fit(
        cls,
        train: Dataset,
        max_depth: Optional[int] = None,
        seed: int = 0,
    ) -> "DecisionTreeClassifier":
        check_trainable(train)
        if max_depth is not None and max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        tree = build_tree(train.X, train.y, train.n_classes, max_depth)
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
        if not trees:
            raise ValidationError("random_forest needs n_trees >= 1, got 0")
        for i, tree in enumerate(trees):
            tree.check(len(schema), self.n_classes, f"random_forest tree {i}")
        self.trees = trees

    @classmethod
    def fit(
        cls,
        train: Dataset,
        n_trees: int = 20,
        max_depth: Optional[int] = None,
        seed: int = 0,
    ) -> "RandomForestClassifier":
        check_trainable(train)
        if n_trees < 1:
            raise ValidationError(f"n_trees must be >= 1, got {n_trees}")
        if max_depth is not None and max_depth < 1:
            raise ValidationError(f"max_depth must be >= 1, got {max_depth}")
        mtry = max(1, int(round(np.sqrt(len(train.schema)))))
        rng = np.random.default_rng(seed)
        trees = []
        n = len(train)
        for _ in range(n_trees):
            boot = rng.integers(0, n, size=n)
            trees.append(
                build_tree(train.X[boot], train.y[boot], train.n_classes, max_depth,
                           rng=rng, mtry=mtry)
            )
        return cls(train.schema, train.class_labels, trees)

    def to_arrays(self) -> dict:
        out = {**super().to_arrays(), "n_trees": np.asarray(len(self.trees))}
        for i, tree in enumerate(self.trees):
            out.update(tree.to_arrays(f"t{i}_"))
        return out

    @classmethod
    def from_arrays(cls, data) -> "RandomForestClassifier":
        n_trees = scalar_int(data, "n_trees")
        trees = [_TreeArrays.from_arrays(data, f"t{i}_") for i in range(n_trees)]
        return cls(*cls.header_from_arrays(data), trees)

    def predict_scores(self, X) -> np.ndarray:
        X = self._check(X)
        votes = np.zeros((X.shape[0], self.n_classes))
        for tree in self.trees:
            pred = np.argmax(tree.dist[tree_apply(tree, X)], axis=1)
            votes[np.arange(X.shape[0]), pred] += 1.0
        return votes / len(self.trees)

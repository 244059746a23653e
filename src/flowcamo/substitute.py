"""Substitute-model training against oracle labels and feature-pool pruning.

A substitute is the neural_net classifier over the schema of the corpus it
was fit to. Feature weights come from permutation importance measured as
the drop in held-out oracle agreement; the performance-gain scan retrains
on each top-L projection of the corpus and compares relative accuracy
growth against relative growth in multiply-adds per prediction, a
deterministic proxy for the paper's computing overhead, which grows with
L. The selected size is the scan's knee, the last L before the gain turns
non-positive or undefined (a zero agreement). The scan only reports: no
later stage trains against a narrowed substitute.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .core import Dataset, ValidationError, stratified_split
from .learners import MlpClassifier, Net, Scaler
from .learners.base import check_trainable
from .learners.io import load_archive, save_archive
from .learners.mlp_classifier import fit_scaled_net

# The scan's subset sizes, strictly ascending up to the full attacker pool
# of 24 target features plus 4 decoys, and the epochs each size trains for.
SCAN_L = (2, 4, 6, 8, 12, 16, 20, 28)
SCAN_EPOCHS = 25


def top_l_indices(weights: np.ndarray, L: int) -> tuple:
    """Top-L features by weight; ties broken toward the lower index."""
    weights = np.asarray(weights, dtype=float)
    if not 1 <= L <= weights.size:
        raise ValidationError(f"L must be in [1, {weights.size}], got {L}")
    order = np.argsort(-weights, kind="stable")
    return tuple(sorted(int(i) for i in order[:L]))


class SubstituteModel(MlpClassifier):
    """The neural_net classifier over a corpus schema, fit to oracle labels
    by ``train_substitute``. It keeps its per-epoch held-out agreement and
    the corpus rows that were held out."""

    kind = "substitute"

    def __init__(self, schema, class_labels, scaler, net, training_curve, holdout_idx):
        super().__init__(schema, class_labels, scaler, net)
        curve = np.asarray(training_curve, dtype=float)
        if curve.ndim != 1 or curve.size == 0 or not np.isfinite(curve).all():
            raise ValidationError("substitute training_curve must be non-empty, 1-D and finite")
        self.training_curve = curve.tolist()
        hold = np.asarray(holdout_idx)
        if (hold.ndim != 1 or hold.size == 0 or not np.issubdtype(hold.dtype, np.integer)
                or (hold < 0).any()):
            raise ValidationError("substitute holdout_idx must be a non-empty 1-D array "
                                  "of non-negative row indices")
        self.holdout_idx = np.asarray(hold, dtype=int)

    @property
    def agreement(self) -> float:
        """Final held-out agreement with the oracle."""
        return self.training_curve[-1]

    def to_arrays(self) -> dict:
        return {
            **super().to_arrays(),
            "training_curve": np.asarray(self.training_curve, dtype=float),
            "holdout_idx": self.holdout_idx,
        }

    @classmethod
    def from_arrays(cls, data) -> "SubstituteModel":
        return cls(*cls.header_from_arrays(data), Scaler.from_arrays(data),
                   Net.from_arrays(data, "net_"), np.array(data["training_curve"]),
                   np.array(data["holdout_idx"]))


def train_substitute(corpus: Dataset, epochs: int = 60, seed: int = 0) -> SubstituteModel:
    """Fit the neural_net recipe to the eavesdropped labels; records the
    per-epoch held-out agreement."""
    check_trainable(corpus)
    train_idx, hold_idx = stratified_split(corpus.y, 0.8, seed)
    scaler, net, curve = fit_scaled_net(
        corpus.X[train_idx], corpus.y[train_idx], corpus.n_classes, epochs, seed,
        holdout=(corpus.X[hold_idx], corpus.y[hold_idx]),
    )
    return SubstituteModel(corpus.schema, corpus.class_labels, scaler, net, curve, hold_idx)


def feature_weights(corpus: Dataset, base: SubstituteModel, seed: int = 0) -> np.ndarray:
    """Permutation importance of every corpus feature, floored at zero: the
    mean agreement drop over 10 shuffles of its holdout column."""
    if base.schema != corpus.schema:
        raise ValidationError("base substitute must be trained on the corpus schema")
    hold = base.holdout_idx
    if hold.max() >= len(corpus):
        raise ValidationError(
            f"substitute holdout_idx reaches row {hold.max()}; the corpus has {len(corpus)}")
    X = corpus.X[hold]
    y = corpus.y[hold]
    base_agree = float(np.mean(base.predict_ids(X) == y))
    rng = np.random.default_rng(seed)
    K = len(corpus.schema)
    weights = np.zeros(K)
    for i in range(K):
        drops = np.empty(10)
        for r in range(drops.size):
            Xp = X.copy()
            Xp[:, i] = Xp[rng.permutation(X.shape[0]), i]
            drops[r] = base_agree - float(np.mean(base.predict_ids(Xp) == y))
        weights[i] = max(0.0, float(drops.mean()))
    return weights


@dataclass(frozen=True)
class PerformanceGainPoint:
    L: int
    agreement: float
    multiply_adds: int
    gain: float  # nan when undefined
    undefined: bool


def performance_gain(r_c: float, r_p: float, c_c: float, c_p: float):
    """Relative accuracy growth over relative cost growth.

    Undefined (returns nan with a flag) when the costs tie or the
    current accuracy is zero; never divides by zero.
    """
    if c_c == c_p or r_c == 0.0:
        return float("nan"), True
    rel_r = (r_c - r_p) / r_c
    rel_c = (c_c - c_p) / c_c
    return (rel_r - rel_c) / rel_c, False


def performance_gain_scan(
    corpus: Dataset,
    weights: np.ndarray,
    L_values: Sequence[int] = SCAN_L,
    epochs: int = SCAN_EPOCHS,
    seed: int = 0,
) -> List[PerformanceGainPoint]:
    """Retrain on the top-L projection of the corpus per strictly ascending
    size L; each cost is the trained net's multiply-adds per prediction."""
    L_values = list(L_values)
    if not L_values:
        raise ValidationError("L_values is empty")
    if any(b <= a for a, b in zip(L_values, L_values[1:])):
        raise ValidationError(
            f"scan sizes (--L) must be strictly ascending, got {L_values}")
    K = len(corpus.schema)
    if any(not 1 <= L <= K for L in L_values):
        raise ValidationError(f"every L must be in [1, {K}]")
    points: List[PerformanceGainPoint] = []
    for L in L_values:
        narrow = corpus.project(corpus.schema.subset(top_l_indices(weights, L)))
        sub = train_substitute(narrow, epochs=epochs, seed=seed)
        sizes = sub.net.layer_sizes
        cost = sum(a * b for a, b in zip(sizes, sizes[1:]))
        gain, undefined = (float("nan"), True) if not points else performance_gain(
            sub.agreement, points[-1].agreement, cost, points[-1].multiply_adds)
        points.append(PerformanceGainPoint(L, sub.agreement, cost, gain, undefined))
    return points


def select_subset(scan: List[PerformanceGainPoint]) -> int:
    """The knee of the scan: the last L before the first later point whose
    gain is non-positive or undefined. The walk starts at ``scan[0]``,
    whose gain is always undefined."""
    if not scan:
        raise ValidationError("empty scan")
    for prev, p in zip(scan, scan[1:]):
        if p.undefined or p.gain <= 0:
            return prev.L
    return scan[-1].L


def save_substitute(sub: SubstituteModel, path: str) -> None:
    save_archive(sub, path)


def load_substitute(path: str) -> SubstituteModel:
    return load_archive(path, SubstituteModel.from_arrays, "substitute")


def scan_to_csv_rows(scan: List[PerformanceGainPoint]) -> List[list]:
    """Header plus one row per point; an undefined gain is left empty."""
    header = ["L", "agreement", "multiply_adds", "gain", "undefined_flag"]
    rows = [[p.L, p.agreement, p.multiply_adds, "" if p.undefined else p.gain, int(p.undefined)]
            for p in scan]
    return [header] + rows

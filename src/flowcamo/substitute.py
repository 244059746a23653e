"""Substitute-model training against oracle labels and feature-pool pruning.

Feature weights come from permutation importance measured as the drop in
held-out oracle agreement; the performance-gain metric compares relative
accuracy growth against relative prediction-time growth across subset
sizes. Selection itself uses an agreement-epsilon policy (the gain value
is undefined when prediction times tie, so it is reported, not decisive).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .core import Dataset, FeatureSchema, ValidationError, stratified_split
from .learners import MlpClassifier, Net, Scaler
from .learners.base import check_trainable
from .learners.io import load_archive, save_archive
from .learners.mlp_classifier import fit_scaled_net


def top_l_indices(weights: np.ndarray, L: int) -> tuple:
    """Top-L features by weight; ties broken toward the lower index."""
    weights = np.asarray(weights, dtype=float)
    if not 1 <= L <= weights.size:
        raise ValidationError(f"L must be in [1, {weights.size}], got {L}")
    order = np.argsort(-weights, kind="stable")
    return tuple(sorted(int(i) for i in order[:L]))


class SubstituteModel(MlpClassifier):
    """The neural_net classifier over a subset of the attacker pool, fit to
    oracle labels by ``train_substitute``. It keeps its per-epoch held-out
    agreement and the corpus rows that were held out."""

    kind = "substitute"
    frozen = True

    def __init__(self, pool_schema, subset, class_labels, scaler, net, training_curve,
                 holdout_idx):
        super().__init__(pool_schema.subset(subset), class_labels, scaler, net)
        self.pool_schema = pool_schema
        self.subset = tuple(int(i) for i in subset)
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

    def predict_ids_pool(self, X_pool: np.ndarray) -> np.ndarray:
        """``predict_ids`` of pool-schema rows, without the input checks of
        ``predict_scores``: generator training and permutation importance
        call it on rows that are already pool rows."""
        X = np.asarray(X_pool, dtype=float)
        return np.argmax(self.net.scores(self.scaler.transform(X[:, self.subset])), axis=1)

    def to_arrays(self) -> dict:
        return {
            **super().to_arrays(),
            "pool_schema_json": np.asarray(self.pool_schema.to_json()),
            "subset": np.asarray(self.subset, dtype=int),
            "training_curve": np.asarray(self.training_curve, dtype=float),
            "holdout_idx": self.holdout_idx,
        }

    @classmethod
    def from_arrays(cls, data) -> "SubstituteModel":
        schema, class_labels = cls.header_from_arrays(data)
        sub = cls(FeatureSchema.from_json(str(data["pool_schema_json"])), np.array(data["subset"]),
                  class_labels, Scaler.from_arrays(data), Net.from_arrays(data, "net_"),
                  np.array(data["training_curve"]), np.array(data["holdout_idx"]))
        if sub.schema != schema:
            raise ValidationError("substitute schema_json is not the pool schema's subset")
        return sub


def train_substitute(
    corpus: Dataset,
    subset: Optional[Sequence[int]] = None,
    epochs: int = 60,
    seed: int = 0,
    train_extra: Optional[Dataset] = None,
) -> SubstituteModel:
    """Fit the neural_net recipe to the eavesdropped labels; records the
    per-epoch held-out agreement.

    ``train_extra`` rows (e.g. labeled uniform probes that teach the
    substitute the oracle's behaviour away from the traffic manifold) are
    used for training only; the agreement curve and holdout stay on the
    eavesdropped corpus so fidelity is measured on traffic.
    """
    check_trainable(corpus)
    subset = tuple(range(len(corpus.schema))) if subset is None else tuple(subset)
    train_idx, hold_idx = stratified_split(corpus.y, 0.8, seed)
    Xs = corpus.X[:, subset]
    X_tr, y_tr = Xs[train_idx], corpus.y[train_idx]
    if train_extra is not None:
        if train_extra.schema.names != corpus.schema.names:
            raise ValidationError("train_extra schema differs from the corpus")
        X_tr = np.vstack([X_tr, train_extra.X[:, subset]])
        y_tr = np.concatenate([y_tr, train_extra.y])
    scaler, net, curve = fit_scaled_net(
        X_tr, y_tr, corpus.n_classes, epochs, seed, holdout=(Xs[hold_idx], corpus.y[hold_idx])
    )
    return SubstituteModel(corpus.schema, subset, corpus.class_labels, scaler, net, curve,
                           hold_idx)


def feature_weights(corpus: Dataset, base: SubstituteModel, seed: int = 0) -> np.ndarray:
    """Permutation importance of every pool feature, floored at zero: the
    mean agreement drop over 10 shuffles of its holdout column."""
    if len(base.subset) != len(corpus.schema):
        raise ValidationError("base substitute must be trained on the full pool")
    hold = base.holdout_idx
    if hold.max() >= len(corpus):
        raise ValidationError(
            f"substitute holdout_idx reaches row {hold.max()}; the corpus has {len(corpus)}")
    X = corpus.X[hold]
    y = corpus.y[hold]
    base_agree = float(np.mean(base.predict_ids_pool(X) == y))
    rng = np.random.default_rng(seed)
    K = len(corpus.schema)
    weights = np.zeros(K)
    for i in range(K):
        drops = np.empty(10)
        for r in range(drops.size):
            Xp = X.copy()
            Xp[:, i] = Xp[rng.permutation(X.shape[0]), i]
            drops[r] = base_agree - float(np.mean(base.predict_ids_pool(Xp) == y))
        weights[i] = max(0.0, float(drops.mean()))
    return weights


@dataclass(frozen=True)
class PerformanceGainPoint:
    L: int
    agreement: float
    overhead_s: float
    gain: float  # nan when undefined
    undefined: bool


def performance_gain(r_c: float, r_p: float, c_c: float, c_p: float):
    """Relative accuracy growth over relative overhead growth.

    Undefined (returns nan with a flag) when the overheads tie or the
    current accuracy is zero; never divides by zero.
    """
    if c_c == c_p or r_c == 0.0:
        return float("nan"), True
    rel_r = (r_c - r_p) / r_c
    rel_c = (c_c - c_p) / c_c
    return (rel_r - rel_c) / rel_c, False


def _median_predict_time(model: SubstituteModel, probe: np.ndarray) -> float:
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        model.predict_ids_pool(probe)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def performance_gain_scan(
    corpus: Dataset,
    weights: np.ndarray,
    L_values: Sequence[int],
    epochs: int = 30,
    seed: int = 0,
    train_extra: Optional[Dataset] = None,
) -> List[PerformanceGainPoint]:
    """Retrain per subset size; each overhead is the median of 5 serialized
    predictions on 1,000 corpus rows."""
    L_values = list(L_values)
    if not L_values:
        raise ValidationError("L_values is empty")
    if any(b < a for a, b in zip(L_values, L_values[1:])):
        raise ValidationError("L_values must be sorted ascending")
    K = len(corpus.schema)
    if any(not 1 <= L <= K for L in L_values):
        raise ValidationError(f"every L must be in [1, {K}]")
    rng = np.random.default_rng(seed)
    probe = corpus.X[rng.integers(0, len(corpus), size=1000)]
    points: List[PerformanceGainPoint] = []
    prev: Optional[PerformanceGainPoint] = None
    for L in L_values:
        sub = train_substitute(
            corpus, top_l_indices(weights, L), epochs=epochs, seed=seed,
            train_extra=train_extra,
        )
        overhead = _median_predict_time(sub, probe)
        if prev is None:
            gain, undefined = float("nan"), True
        else:
            gain, undefined = performance_gain(
                sub.agreement, prev.agreement, overhead, prev.overhead_s
            )
        prev = PerformanceGainPoint(L, sub.agreement, overhead, gain, undefined)
        points.append(prev)
    return points


def select_subset(
    scan: List[PerformanceGainPoint],
    full_agreement: Optional[float] = None,
    eps: float = 0.02,
) -> int:
    """Smallest L whose agreement is within eps of the full-pool agreement."""
    if not scan:
        raise ValidationError("empty scan")
    if full_agreement is None:
        full_agreement = max(p.agreement for p in scan)
    for p in scan:
        if p.agreement >= full_agreement - eps:
            return p.L
    best = max(range(len(scan)), key=lambda i: (scan[i].agreement, -scan[i].L))
    return scan[best].L


def save_substitute(sub: SubstituteModel, path: str) -> None:
    save_archive(sub, path)


def load_substitute(path: str) -> SubstituteModel:
    return load_archive(path, SubstituteModel.from_arrays, "substitute")


def scan_to_csv_rows(scan: List[PerformanceGainPoint]) -> List[list]:
    """Header plus one row per point; the wall-clock columns are fixed-width
    (``.6e``/``+.6e``) so the file size does not depend on timing noise."""
    header = ["L", "agreement", "overhead_s", "gain", "undefined_flag"]
    rows = [
        [p.L, p.agreement, f"{p.overhead_s:.6e}", "" if p.undefined else f"{p.gain:+.6e}",
         int(p.undefined)]
        for p in scan
    ]
    return [header] + rows

"""Traffic-feature generator: perturbs mutable features to defeat a classifier.

The generator is residual: h' = h + mask * amp * tanh(net([h, s])), with
the final layer zero-initialized so training starts at the identity map.
Immutable coordinates are restored bit-exactly after the network, and all
coordinates are clamped into schema range, so functionality preservation
holds unconditionally. Training happens against a frozen substitute; the
true victim is only touched at evaluation time (transferability).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from .blackbox import Oracle
from .core import (
    ContractViolationError,
    Dataset,
    DeviceClass,
    FeatureSchema,
    NumericError,
    UnreachableTargetError,
    ValidationError,
    identification_rate,
    spoofing_rate,
)
from .learners import ClassifierModel, Net, Scaler, bce_dlogits_unchecked, one_hot
from .learners.base import check_shape, scalar_int
from .learners.io import load_archive, save_archive
from .substitute import SubstituteModel

BATCH_SIZE = 128
# Training stops early once the success metric moved less than the mode's
# plateau band over PLATEAU_WINDOW epochs, but not before PLATEAU_MIN_EPOCHS.
PLATEAU_WINDOW = 5
PLATEAU_MIN_EPOCHS = 20
# Each mode's training recipe: (LR factor per epoch, cross-entropy gradient
# weight, plateau band). Spoof success on a few thousand rows moves in
# coarser steps than the misidentify band, so its looser band lets a stuck
# trial stop early and leaves the budget to the next restart.
RECIPES = {"misidentify": (1.0, 1.0, 1e-4), "spoof": (0.93, 0.1, 2e-3)}


@dataclass(frozen=True)
class AttackMode:
    mode: str  # "misidentify" | "spoof"
    target: Optional[DeviceClass] = None

    def __post_init__(self):
        if self.mode not in ("misidentify", "spoof"):
            raise ValidationError(f"unknown attack mode {self.mode!r}")
        if self.mode == "spoof" and self.target is None:
            raise ValidationError("spoof mode needs a target class")


def misidentify() -> AttackMode:
    return AttackMode("misidentify")


def spoof(target: DeviceClass) -> AttackMode:
    return AttackMode("spoof", target)


def sample_multipliers(schema: FeatureSchema, n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, K) multiplier draws respecting the mutability mask."""
    R = rng.uniform(0.0, 0.1, size=(n, len(schema)))
    R[:, ~schema.mutable_mask] = 0.0
    return R


class Generator:
    """Manipulative network over a feature schema; residual and range-safe."""

    def __init__(self, schema: FeatureSchema, scaler: Scaler, net: Net, amp: np.ndarray):
        k = len(schema)
        scaler.check(k, "generator")
        sizes = net.layer_sizes
        if (sizes[0], sizes[-1]) != (2 * k, k):
            raise ValidationError(
                f"generator sizes {list(sizes)} do not map {2 * k} inputs to {k} outputs"
            )
        check_shape("generator amp", amp, (k,))
        if not np.isfinite(amp).all():
            raise ValidationError("generator amp holds non-finite values")
        self.schema = schema
        self.scaler = scaler
        self.net = net
        self.amp = amp
        self.trained = False
        self.training_curve: List[float] = []

    def _input_buffer(self, H: np.ndarray) -> np.ndarray:
        """Network input for ``H``: its normalised features, then room for
        the normalised noise, which the caller fills."""
        k = len(self.schema)
        Z = np.empty(H.shape[:-1] + (2 * k,))
        np.subtract(H, self.scaler.mean, out=Z[..., :k])
        Z[..., :k] /= self.scaler.scale
        return Z

    def manipulate_batch(self, H: np.ndarray, S: np.ndarray, want_grad_cache: bool = False):
        H = np.asarray(H, dtype=float)
        S = np.asarray(S, dtype=float)
        if S.shape != H.shape:
            raise ValidationError("noise must match the feature matrix shape")
        Z = self._input_buffer(H)
        np.divide(S, self.scaler.scale, out=Z[..., len(self.schema):])
        return self._manipulate(H, Z, want_grad_cache)

    def _manipulate(self, H: np.ndarray, Z: np.ndarray, want_grad_cache: bool = False):
        """``manipulate_batch`` of ``H`` given its network input ``Z``."""
        U, cache = self.net.forward_logits(Z, want_cache=True)
        T = np.tanh(U, out=U)
        raw = self.amp * T
        raw += H
        lo, hi = self.schema.lows, self.schema.highs
        Hp = np.maximum(raw, lo)
        np.minimum(Hp, hi, out=Hp)
        # Bit-exact functionality projection.
        np.copyto(Hp, H, where=~self.schema.mutable_mask)
        if not np.isfinite(Hp).all():
            raise NumericError("non-finite manipulated output")
        if want_grad_cache:
            return Hp, (cache, T, raw <= lo, raw >= hi)
        return Hp

    def backward_to_params(self, grad_cache, dHp: np.ndarray):
        """Parameter gradients from d(loss)/d(h').

        Clipped coordinates pass gradient only when the descent direction
        points back inside the valid range; outward pushes are blocked.
        Without the inward pass-through a coordinate that saturates at a
        range boundary would stop receiving any signal and could never
        recover.
        """
        cache, T, at_lo, at_hi = grad_cache
        blocked = (at_lo & (dHp >= 0)) | (at_hi & (dHp <= 0))
        dU = np.square(T)
        np.subtract(1.0, dU, out=dU)
        dU *= self.amp
        dU *= np.where(blocked, 0.0, dHp)
        return self.net.backward(cache, dU)

    def to_arrays(self) -> dict:
        return {
            "schema_json": np.asarray(self.schema.to_json()),
            **self.scaler.to_arrays(),
            "amp": self.amp,
            "trained": np.asarray(int(self.trained)),
            "training_curve": np.asarray(self.training_curve, dtype=float),
            **self.net.to_arrays("net_"),
        }

    @classmethod
    def from_arrays(cls, data) -> "Generator":
        g = cls(FeatureSchema.from_json(str(data["schema_json"])), Scaler.from_arrays(data),
                Net.from_arrays(data, "net_"), np.array(data["amp"]))
        g.trained = bool(scalar_int(data, "trained"))
        curve = np.array(data["training_curve"], dtype=float)
        check_shape("generator training_curve", curve, (curve.size,))
        g.training_curve = curve.tolist()
        return g


def build_generator(
    schema: FeatureSchema,
    reference_X: np.ndarray,
    hidden: Sequence[int] = (64, 64),
    delta_scale: float = 6.0,
    seed: int = 0,
) -> Generator:
    """Generator with input normalization fitted to reference traffic."""
    scaler = Scaler.fit(np.asarray(reference_X, dtype=float))
    k = len(schema)
    net = Net([2 * k, *hidden, k], seed=seed, zero_init_last=True)
    # Perturbation amplitude in units of the reference spread, not the
    # schema range: wide-range features would otherwise dominate the
    # gradient into the network and saturate the tanh irrecoverably.
    return Generator(schema, scaler, net, delta_scale * scaler.scale * schema.mutable_mask)


def save_generator(g: Generator, path: str) -> None:
    save_archive(g, path)


def load_generator(path: str) -> Generator:
    return load_archive(path, Generator.from_arrays, "generator")


def _success_metric(
    g: Generator, sub: SubstituteModel, X: np.ndarray, Z: np.ndarray, mode: AttackMode,
    orig_labels: Optional[np.ndarray], rng: np.random.Generator,
) -> float:
    """Substitute success on ``X`` under fresh noise; ``Z`` is ``X``'s
    network input, whose noise half this overwrites."""
    np.divide(sample_multipliers(g.schema, X.shape[0], rng) * X, g.scaler.scale,
              out=Z[:, len(g.schema):])
    pred = sub.predict_ids_pool(g._manipulate(X, Z))
    if mode.mode == "misidentify":
        return float(np.mean(pred != orig_labels))
    return float(np.mean(pred == mode.target.id))


def train_generator(
    g: Generator,
    sub: SubstituteModel,
    train: Dataset,
    mode: AttackMode,
    epochs: int,
    seed: int = 0,
    lr: float = 0.01,
    anchor_X: Optional[np.ndarray] = None,
) -> Generator:
    """Gradient-train the generator against a frozen substitute.

    Misidentify mode ascends the substitute's cross-entropy against its
    own clean-traffic labels at a constant ``lr``. Spoof mode descends
    cross-entropy toward the chosen class with two stabilisers, and needs
    ``anchor_X``. A quadratic pull draws the mutable features toward the
    centroid of the rows of ``anchor_X`` that the substitute labels as the
    target class, weighted per feature by the inverse squared reference
    spread; this keeps the output on the traffic manifold, where substitute
    agreement with the victim is high. The cross-entropy gradient is zeroed
    for rows the substitute already assigns to the target, so late training
    only tightens the stragglers. ``lr`` decays after each epoch; plain
    constant-step SGD oscillates around the anchor minimum instead of
    settling into it. Multipliers are re-sampled fresh every epoch.
    """
    if not getattr(sub, "frozen", False):
        raise ContractViolationError("substitute must be trained and frozen")
    if epochs < 1:
        raise ValidationError(f"epochs must be >= 1, got {epochs}")
    if tuple(g.schema.names) != tuple(train.schema.names):
        raise ValidationError("generator and training data schemas differ")
    misidentify_mode = mode.mode == "misidentify"
    if not misidentify_mode and not 0 <= mode.target.id < sub.n_classes:
        raise ValidationError("spoof target id outside the substitute's classes")
    if (anchor_X is None) != misidentify_mode:
        raise ValidationError("spoof mode needs anchor_X; misidentify mode takes none")

    lr_factor, ce_weight, plateau_band = RECIPES[mode.mode]
    X = train.X
    n, k = X.shape
    rng = np.random.default_rng(seed)
    eval_rng = np.random.default_rng(seed + 1)
    orig_labels = None
    if misidentify_mode:
        orig_labels = sub.predict_ids_pool(X)  # frozen clean labels
        targets = one_hot(orig_labels, sub.n_classes)  # row i is sample i's target
    else:
        # Every row has the same target, so any batch uses a leading slice.
        targets = one_hot(np.full(min(n, BATCH_SIZE), mode.target.id), sub.n_classes)
        rows = anchor_X[sub.predict_ids_pool(anchor_X) == mode.target.id]
        if rows.shape[0] == 0:
            raise UnreachableTargetError(
                "anchor_X has no rows the substitute assigns to the spoof target"
            )
        anchor = rows.mean(axis=0)
        anchor_scale2 = g.scaler.scale**2
        mut = g.schema.mutable_mask

    sub_cols = np.asarray(sub.subset, dtype=int)
    # Network input of every training row. Its noise half is refilled once
    # per epoch and once per plateau probe; batches gather their rows.
    Z = g._input_buffer(X)
    noise = Z[:, k:]
    g.training_curve = [
        _success_metric(g, sub, X, Z, mode, orig_labels, eval_rng)
    ]
    for _epoch in range(epochs):
        np.divide(sample_multipliers(g.schema, n, rng) * X, g.scaler.scale, out=noise)
        order = rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            Hp, grad_cache = g._manipulate(X[idx], Z[idx], want_grad_cache=True)
            Xs = sub.scaler.transform(Hp[:, sub_cols])
            z, sub_cache = sub.net.forward_logits(Xs, want_cache=True)
            if misidentify_mode:
                dz = bce_dlogits_unchecked(z, targets[idx])
                np.negative(dz, out=dz)  # ascend the loss against the frozen labels
            else:
                dz = bce_dlogits_unchecked(z, targets[: idx.size])
                dz[np.argmax(z, axis=1) == mode.target.id] = 0.0
            dXs = sub.net.input_grad(sub_cache, dz)
            dXs *= ce_weight
            dXs /= sub.scaler.scale
            dHp = np.zeros_like(Hp)
            dHp[:, sub_cols] = dXs
            if not misidentify_mode:
                pull = Hp - anchor
                pull *= 2.0
                pull *= mut
                pull /= anchor_scale2
                pull /= idx.size
                dHp += pull
            dWs, dbs = g.backward_to_params(grad_cache, dHp)
            g.net.sgd_step(dWs, dbs, lr)
        lr *= lr_factor
        g.training_curve.append(
            _success_metric(g, sub, X, Z, mode, orig_labels, eval_rng)
        )
        recent = g.training_curve[-PLATEAU_WINDOW:]
        if (
            len(g.training_curve) > PLATEAU_MIN_EPOCHS
            and len(recent) == PLATEAU_WINDOW
            and max(recent) - min(recent) < plateau_band
        ):
            break
    g.trained = True
    return g


@dataclass(frozen=True)
class AttackReport:
    mode: str
    attacked_rate: float
    n_rows: int

    @property
    def success_rate(self) -> float:
        """Evasion rate for misidentify; the attacked rate itself for spoof."""
        if self.mode == "misidentify":
            return 1.0 - self.attacked_rate
        return self.attacked_rate


def _victim_predict(victim: Union[ClassifierModel, Oracle], g: Generator, X: np.ndarray):
    if isinstance(victim, Oracle):
        return victim.collect(X).y
    cols = g.schema.projection_onto(victim.schema)
    return victim.predict_ids(X[:, cols])


def evaluate_attack(
    g: Generator,
    victim: Union[ClassifierModel, Oracle],
    test: Dataset,
    mode: AttackMode,
    seed: int = 0,
) -> AttackReport:
    """Measure the attack on the true victim with fresh per-row noise.

    Only the manipulated rows are sent to the victim; the clean rate is
    the victim's own identification rate on ``test``.
    """
    rng = np.random.default_rng(seed)
    X = test.X
    Hp = g.manipulate_batch(X, sample_multipliers(g.schema, X.shape[0], rng) * X)
    atk_pred = _victim_predict(victim, g, Hp)
    if mode.mode == "misidentify":
        attacked = identification_rate(test.y, atk_pred)
    else:
        attacked = spoofing_rate(atk_pred, mode.target)
    return AttackReport(mode.mode, attacked, X.shape[0])

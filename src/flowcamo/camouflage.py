"""Traffic-feature generator: perturbs mutable features to defeat a classifier.

The generator is residual: h' = h + mask * amp * tanh(net([h, s])), with
the final layer zero-initialized so training starts at the identity map.
Immutable coordinates are restored bit-exactly after the network, and all
coordinates are clamped into schema range, so functionality preservation
holds unconditionally. Training happens against a substitute over the
generator's own schema, whose weights it never updates; the true victim is
only touched at evaluation time (transferability).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .blackbox import Oracle
from .core import (
    Dataset,
    DeviceClass,
    FeatureSchema,
    NumericError,
    UnreachableTargetError,
    ValidationError,
    identification_rate,
    spoofing_rate,
)
from .learners import ClassifierModel, Net, Scaler, bce_dlogits, one_hot
from .learners.base import check_real, check_shape
from .learners.io import load_archive, save_archive
from .substitute import SubstituteModel

# Hidden layer widths of the generator network.
HIDDEN = (64, 64)
# Perturbation amplitude in units of the reference spread, not the schema
# range: wide-range features would otherwise dominate the gradient into the
# network and saturate the tanh irrecoverably.
DELTA_SCALE = 6.0
BATCH_SIZE = 128
# Training reaches its goal after any epoch in which every row succeeded on
# the substitute, the attacker's only model (asking the oracle costs queries),
# and stops there. It also stops once the success metric moved less than the
# mode's plateau band over PLATEAU_WINDOW epochs, not before PLATEAU_MIN_EPOCHS.
PLATEAU_WINDOW = 5
PLATEAU_MIN_EPOCHS = 20
# Each mode's training recipe: (LR factor per epoch, cross-entropy gradient
# weight, plateau band). Spoof's step size decays, as constant-step SGD
# oscillates around the anchor minimum instead of settling into it. Spoof
# success on a few thousand rows moves in coarser steps than the misidentify
# band, so its looser band lets a stuck trial stop early and leaves the
# budget to the next restart.
RECIPES = {"misidentify": (1.0, 1.0, 1e-4), "spoof": (0.93, 0.1, 2e-3)}
# Step size of the misidentify training in ``flowcamo run`` and ``attack``.
MISIDENTIFY_LR = 0.05


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
        if not schema.mutable_mask.any():
            raise ValidationError("a generator needs at least one mutable feature")
        k = len(schema)
        scaler.check(k, "generator")
        sizes = net.layer_sizes
        if (sizes[0], sizes[-1]) != (2 * k, k):
            raise ValidationError(
                f"generator sizes {list(sizes)} do not map {2 * k} inputs to {k} outputs"
            )
        check_shape("generator amp", amp, (k,))
        check_real("generator amp", amp)
        if not np.isfinite(amp).all():
            raise ValidationError("generator amp holds non-finite values")
        self.schema = schema
        self.scaler = scaler
        self.net = net
        self.amp = amp
        self.training_curve: List[float] = []

    def _input_buffer(self, H: np.ndarray) -> np.ndarray:
        """Network input for the ``(n, k)`` rows ``H``: their normalised
        features, then room for the normalised noise, which the caller fills."""
        k = len(self.schema)
        Z = np.empty((H.shape[0], 2 * k))
        np.subtract(H, self.scaler.mean, out=Z[:, :k])
        Z[:, :k] /= self.scaler.scale
        return Z

    def manipulate_batch(self, H: np.ndarray, S: np.ndarray, want_grad_cache: bool = False):
        """The manipulated ``(n, k)`` rows ``H`` under noise ``S`` of one shape."""
        H = np.asarray(H, dtype=float)
        S = np.asarray(S, dtype=float)
        k = len(self.schema)
        if H.ndim != 2 or H.shape[1] != k or S.shape != H.shape:
            raise ValidationError(
                f"features {H.shape} and noise {S.shape} must both be (n, {k}) row batches")
        Z = self._input_buffer(H)
        np.divide(S, self.scaler.scale, out=Z[:, k:])
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
        """Parameter gradient, in the ``Net.params`` layout, from d(loss)/d(h').

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
            "training_curve": np.asarray(self.training_curve, dtype=float),
            **self.net.to_arrays("net_"),
        }

    @classmethod
    def from_arrays(cls, data) -> "Generator":
        g = cls(FeatureSchema.from_json(str(data["schema_json"])), Scaler.from_arrays(data),
                Net.from_arrays(data, "net_"), np.array(data["amp"]))
        curve = np.array(data["training_curve"], dtype=float)
        check_shape("generator training_curve", curve, (curve.size,))
        g.training_curve = curve.tolist()
        return g


def build_generator(schema: FeatureSchema, reference_X: np.ndarray, seed: int = 0) -> Generator:
    """Generator with input normalization fitted to reference traffic."""
    scaler = Scaler.fit(np.asarray(reference_X, dtype=float))
    k = len(schema)
    net = Net([2 * k, *HIDDEN, k], seed=seed, zero_init_last=True)
    return Generator(schema, scaler, net, DELTA_SCALE * scaler.scale * schema.mutable_mask)


def save_generator(g: Generator, path: str) -> None:
    save_archive(g, path)


def load_generator(path: str) -> Generator:
    return load_archive(path, Generator.from_arrays, "generator")


def attack_objective(mode: AttackMode, g: Generator, sub: SubstituteModel, X: np.ndarray,
                     anchor_X: Optional[np.ndarray]) -> tuple:
    """``(success, dlogits, pull)`` of ``mode`` for the training rows ``X``.

    ``success(pred, idx)`` marks the rows ``X[idx]`` whose substitute ids
    ``pred`` count; ``dlogits(z, idx, hit)`` is their logit gradient;
    ``pull(Hp)``, or None, adds a gradient on the manipulated rows.
    Misidentify ascends the substitute's cross-entropy against its frozen
    clean labels. Spoof descends it toward the target and pulls the mutable
    features toward the centroid of the ``anchor_X`` rows the substitute
    assigns to the target, per feature over the squared reference spread:
    on the traffic manifold substitute agreement with the victim is high.
    """
    spoofing = mode.mode == "spoof"
    if spoofing and not 0 <= mode.target.id < sub.n_classes:
        raise ValidationError("spoof target id outside the substitute's classes")
    if (anchor_X is None) == spoofing:
        raise ValidationError("spoof mode needs anchor_X; misidentify mode takes none")
    if not spoofing:
        orig_labels = sub.predict_ids(X)
        targets = one_hot(orig_labels, sub.n_classes)  # row i is sample i's target

        def success(pred, idx):
            return pred != orig_labels[idx]

        def dlogits(z, idx, hit):
            dz = bce_dlogits(z, targets[idx])
            return np.negative(dz, out=dz)

        return success, dlogits, None

    tid = mode.target.id
    # Every row has the same target, so any batch uses a leading slice.
    targets = one_hot(np.full(min(X.shape[0], BATCH_SIZE), tid), sub.n_classes)
    rows = anchor_X[sub.predict_ids(anchor_X) == tid]
    if rows.shape[0] == 0:
        raise UnreachableTargetError("anchor_X has no rows the substitute assigns to the "
                                     "spoof target")
    anchor = rows.mean(axis=0)
    anchor_scale2 = g.scaler.scale**2
    mut = g.schema.mutable_mask

    def success(pred, idx):
        return pred == tid

    def dlogits(z, idx, hit):
        dz = bce_dlogits(z, targets[: idx.size])
        dz[hit] = 0.0  # late training only tightens the stragglers
        return dz

    def pull(Hp):
        p = Hp - anchor
        p *= 2.0
        p *= mut
        p /= anchor_scale2
        p /= Hp.shape[0]
        return p

    return success, dlogits, pull


def generator_step(g: Generator, sub: SubstituteModel, H: np.ndarray, Z: np.ndarray,
                   idx: np.ndarray, objective: tuple, ce_weight: float, lr: float) -> int:
    """One SGD step of ``g`` on training rows ``idx`` (features ``H``,
    network input ``Z``) toward ``objective``; returns how many rows the
    substitute counted as a success before the step."""
    success, dlogits, pull = objective
    Hp, grad_cache = g._manipulate(H, Z, want_grad_cache=True)
    z, sub_cache = sub.net.forward_logits(sub.scaler.transform(Hp), want_cache=True)
    hit = success(np.argmax(z, axis=1), idx)
    dHp = sub.net.input_grad(sub_cache, dlogits(z, idx, hit))
    dHp *= ce_weight
    dHp /= sub.scaler.scale
    if pull is not None:
        dHp += pull(Hp)
    g.net.sgd_step(g.backward_to_params(grad_cache, dHp), lr)
    return np.count_nonzero(hit)


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
    """Gradient-train the generator against a substitute over its schema.

    Each batch is one ``generator_step`` toward the mode's
    ``attack_objective``; spoof mode needs ``anchor_X``. The mode's
    ``RECIPES`` entry weights the cross-entropy gradient and sets how
    ``lr`` decays after each epoch. Multipliers are re-sampled fresh every
    epoch.

    ``g.training_curve`` starts with the substitute's success on ``train``
    under fresh noise. Each epoch then appends the share of rows the
    substitute's logits counted as a success in that epoch's batches,
    before each batch's step; the plateau test reads this curve. Either
    mode also ends after the first epoch whose entry is 1.0: the
    substitute, the attacker's only model, counted every row as a success
    before that row's own step, so the goal is reached with no oracle query.
    """
    if not isinstance(sub, SubstituteModel):
        raise ValidationError(
            f"train_generator needs a SubstituteModel, got {type(sub).__name__}")
    if epochs < 1:
        raise ValidationError(f"epochs must be >= 1, got {epochs}")
    if not g.schema == train.schema == sub.schema:
        raise ValidationError("generator, training data and substitute schemas differ")
    if len(train) == 0:
        raise ValidationError("training dataset is empty")

    lr_factor, ce_weight, plateau_band = RECIPES[mode.mode]
    X = train.X
    n, k = X.shape
    rng = np.random.default_rng(seed)
    objective = attack_objective(mode, g, sub, X, anchor_X)

    # Network input of every training row. Its noise half is refilled for
    # the first probe and once per epoch; batches gather their rows.
    Z = g._input_buffer(X)
    noise = Z[:, k:]
    np.divide(sample_multipliers(g.schema, n, np.random.default_rng(seed + 1)) * X,
              g.scaler.scale, out=noise)
    pred = sub.predict_ids(g._manipulate(X, Z))
    g.training_curve = [float(np.mean(objective[0](pred, np.arange(n))))]
    for _epoch in range(epochs):
        np.divide(sample_multipliers(g.schema, n, rng) * X, g.scaler.scale, out=noise)
        order = rng.permutation(n)
        hits = 0
        for start in range(0, n, BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            hits += generator_step(g, sub, X[idx], Z[idx], idx, objective, ce_weight, lr)
        lr *= lr_factor
        g.training_curve.append(hits / n)
        if hits == n:
            break
        recent = g.training_curve[-PLATEAU_WINDOW:]
        if (
            len(g.training_curve) > PLATEAU_MIN_EPOCHS
            and len(recent) == PLATEAU_WINDOW
            and max(recent) - min(recent) < plateau_band
        ):
            break
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

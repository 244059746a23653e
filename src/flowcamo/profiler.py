"""Radio-signature device profiling: synthesis, multi-stage classifier, defense.

Signatures come from a parsimonious channel model (log-distance path
loss, one static per-device reflection, Gaussian measurement noise) so
they are device- and location-specific but entirely independent of the
traffic features the generator can touch. Identification is a shallow
decision tree over the four profiled features routing into per-group
neural scorers over profiled features plus simulated CSI magnitudes.
The defense evaluation synthesises one signature stream per round and
identifies it once; a traffic-feature attacker has no write path into it.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .core import ValidationError, identification_rate
from .learners import Net, Scaler, build_tree, one_hot, train_net, tree_apply

CARRIER_HZ = 2.4e9
WAVELENGTH_M = 2.998e8 / CARRIER_HZ
PATH_LOSS_REF_DB = 40.0  # at 1 m
PATH_LOSS_EXPONENT = 2.5
N_SUBCARRIERS = 30
SUBCARRIER_SPACING_HZ = 312.5e3
# The defense's training signatures per device and its evaluation rounds.
TRAIN_PER_DEVICE = 40
DEFENSE_ROUNDS = 30


@dataclass(frozen=True)
class HardwareIdentity:
    """Static manufacturing/placement identity; drawn once per device."""

    device_id: int
    cfo_ppm: float
    iq_gain_imbalance: float
    iq_phase_skew_rad: float
    location: Tuple[float, float]  # meters; receiver array at origin, broadside +y


@dataclass(frozen=True)
class NoiseModel:
    freq_sigma_hz: float = 400.0
    angle_sigma_rad: float = 0.03
    atten_sigma_db: float = 1.0
    phase_sigma_rad: float = 0.08
    csi_snr_sigma: float = 0.08  # relative to the local path gain


DEFAULT_NOISE = NoiseModel()


def make_identities(n_devices: int, seed: int = 0) -> List[HardwareIdentity]:
    """Draw one fixed identity per device (ids double as class ids)."""
    rng = np.random.default_rng(seed)
    out = []
    for dev in range(n_devices):
        out.append(
            HardwareIdentity(
                device_id=dev,
                cfo_ppm=float(rng.uniform(-25.0, 25.0)),
                iq_gain_imbalance=float(rng.uniform(0.0, 0.1)),
                iq_phase_skew_rad=float(rng.uniform(-0.2, 0.2)),
                location=(float(rng.uniform(-15.0, 15.0)), float(rng.uniform(3.0, 30.0))),
            )
        )
    return out


def _device_multipath(device_id: int):
    """Static single-reflection parameters tied to the device, not the round."""
    rng = np.random.default_rng(np.random.SeedSequence([int(device_id), 0xD5]))
    psi = rng.uniform(0.0, 2 * np.pi)
    rho = rng.uniform(0.2, 0.4)
    tau_s = rng.uniform(20e-9, 100e-9)
    return psi, rho, tau_s


def _wrap_pi(x):
    """Angle(s) ``x`` wrapped onto (-pi, pi]."""
    return np.angle(np.exp(1j * x))


@lru_cache(maxsize=256)
def _channel(ident: HardwareIdentity, noise: NoiseModel):
    """A device's fixed channel terms and its per-column noise sigmas.

    Scalar expressions per device, so each value has the same bits as
    in a per-row synthesis; the arrays are read-only because they are
    shared by every batch of the device.
    """
    x, y = ident.location
    d = float(np.hypot(x, y))
    if d <= 0:
        raise ValidationError("device cannot sit on the receiver")
    psi, rho, tau_s = _device_multipath(ident.device_id)
    mp_db = 20.0 * np.log10(abs(1.0 + rho * np.exp(1j * psi)))
    mp_db *= 1.0 + ident.iq_gain_imbalance
    pl_db = PATH_LOSS_REF_DB + 10.0 * PATH_LOSS_EXPONENT * np.log10(d)
    gain = 10.0 ** (-pl_db / 20.0)
    k = np.arange(N_SUBCARRIERS) - N_SUBCARRIERS / 2
    ray = 1.0 + rho * np.exp(1j * (psi + 2.0 * np.pi * tau_s * k * SUBCARRIER_SPACING_HZ))
    csi = gain * np.abs(ray) * (1.0 + ident.iq_gain_imbalance)
    # Profiled columns before noise: attenuation, phase, frequency, angle.
    base = np.array([pl_db + mp_db,
                     -2.0 * np.pi * d / WAVELENGTH_M + ident.iq_phase_skew_rad,
                     CARRIER_HZ * ident.cfo_ppm * 1e-6,
                     np.arctan2(x, y)])
    # Noise is drawn in the order freq, angle, atten, phase, csi.
    sigmas = np.concatenate([
        [noise.freq_sigma_hz, noise.angle_sigma_rad, noise.atten_sigma_db,
         noise.phase_sigma_rad],
        np.full(N_SUBCARRIERS, noise.csi_snr_sigma * gain),
    ])
    for a in (base, csi, sigmas):
        a.flags.writeable = False
    return base, csi, sigmas


def signature_batch(
    identities: Sequence[HardwareIdentity],
    per_device: int,
    noise_seed: int,
):
    """Stacked (profiled, csi, class_id) arrays, ``per_device`` rows per device.

    Each device's noise comes from its own generator, seeded by
    ``(device_id, noise_seed)`` and drawn in one call, so row ``j`` of a
    device depends only on its identity, ``noise_seed`` and ``j``: not on
    the other devices in the batch or their order, and not on
    ``per_device`` beyond ``j``. A device's fixed channel terms are
    computed once per (identity, noise model) and cached across calls.
    Profiled columns are amplitude attenuation (dB), phase shift (rad,
    wrapped), frequency offset (Hz) and arrival angle (rad, clipped to
    (-pi/2, pi/2]).
    """
    if len(identities) == 0:
        raise ValidationError("signature_batch needs at least one device")
    if per_device < 1:
        raise ValidationError(f"per_device must be >= 1, got {per_device}")
    channels = [_channel(ident, DEFAULT_NOISE) for ident in identities]
    base = np.repeat([c[0] for c in channels], per_device, axis=0)
    csi = np.repeat([c[1] for c in channels], per_device, axis=0)
    sigmas = np.repeat([c[2] for c in channels], per_device, axis=0)

    z = np.empty(sigmas.shape)
    for ident, block in zip(identities, np.split(z, len(identities))):
        rng = np.random.default_rng([int(ident.device_id), int(noise_seed)])
        rng.standard_normal(out=block)
    z *= sigmas  # normal(0.0, sigmas) is 0.0 + sigmas * z
    z += 0.0

    atten = base[:, 0] + z[:, 2]
    phase = _wrap_pi(base[:, 1] + z[:, 3])
    freq = base[:, 2] + z[:, 0]
    angle = np.clip(base[:, 3] + z[:, 1], -np.pi / 2 + 1e-9, np.pi / 2)
    ids = np.repeat([ident.device_id for ident in identities], per_device).astype(int)
    return np.column_stack([atten, phase, freq, angle]), csi + z[:, 4:], ids


class MultiStageClassifier:
    """Stage-1 tree over profiled features routes to per-group stage-2 nets.

    ``group[node]`` is the stage of each tree leaf (-1 at split nodes), and
    ``stages[g]`` is ``(classes, scaler, net)``: the group's sorted global
    class ids, and its scaler and net, both None for a one-class group.
    """

    def __init__(self, tree, group: np.ndarray, stages: List[tuple]):
        self.tree = tree
        self.group = group
        self.stages = stages

    def identify_batch(self, P: np.ndarray, Csi: np.ndarray) -> np.ndarray:
        """The class id of each row."""
        features = np.hstack([P, Csi])
        groups = self.group[tree_apply(self.tree, P)]
        ids = np.empty(P.shape[0], dtype=int)
        for gidx in np.unique(groups):
            rows = np.flatnonzero(groups == gidx)
            classes, scaler, net = self.stages[gidx]
            if net is None:
                ids[rows] = classes[0]
            else:
                scores = net.scores(scaler.transform(features[rows]))
                ids[rows] = classes[np.argmax(scores, axis=1)]
        return ids


def _group_leaves(tree, leaves: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Stage-two group of each tree node, -1 at split nodes.

    ``leaves`` are the training rows' leaves; ``build_tree`` splits only
    when both sides get rows, so they reach every leaf. A leaf's anchor is
    the leaf itself if its training rows hold two or more classes, or if it
    is the root; otherwise it is the leaf's parent. A split node's rows
    always hold two or more classes, so the parent always qualifies. Leaves
    with one anchor form one group; groups are numbered in anchor order.
    """
    split = np.flatnonzero(tree.feature >= 0)
    parent = np.full(tree.feature.size, -1)
    parent[tree.left[split]] = split
    parent[tree.right[split]] = split
    leaf = np.flatnonzero(tree.feature < 0)
    anchor = leaf.copy()
    for i, node in enumerate(leaf):
        if parent[node] >= 0 and np.unique(y[leaves == node]).size < 2:
            anchor[i] = parent[node]
    group = np.full(tree.feature.size, -1)
    group[leaf] = np.unique(anchor, return_inverse=True)[1]
    return group


def fit_profiler(
    P: np.ndarray,
    Csi: np.ndarray,
    y: np.ndarray,
    seed: int = 0,
) -> MultiStageClassifier:
    """Train the two-stage identifier on ``signature_batch``-shaped arrays.

    ``P`` holds the four profiled features per row, ``Csi`` the CSI
    magnitudes and ``y`` the class ids; needs >= 10 signatures per class.
    """
    P = np.asarray(P, dtype=float)
    Csi = np.asarray(Csi, dtype=float)
    y = np.asarray(y, dtype=int)
    if P.ndim != 2 or Csi.ndim != 2:
        raise ValidationError(f"P and Csi must be row batches, got shapes {P.shape}, {Csi.shape}")
    if not P.shape[0] == Csi.shape[0] == y.shape[0]:
        raise ValidationError(
            f"row counts differ: P {P.shape[0]}, Csi {Csi.shape[0]}, y {y.shape[0]}"
        )
    n_classes = int(y.max()) + 1
    counts = np.bincount(y, minlength=n_classes)
    if (counts < 10).any():
        bad = int(np.argmin(counts))
        raise ValidationError(f"class {bad} has {counts[bad]} signatures; need >= 10")

    tree = build_tree(P, y, n_classes, max_depth=3)
    leaves = tree_apply(tree, P)
    group = _group_leaves(tree, leaves, y)

    features = np.hstack([P, Csi])
    stages = []
    for gidx in range(group.max() + 1):
        # Rows leaf by leaf: their order fixes the scaler's sums and the batches.
        rows = np.concatenate([np.flatnonzero(leaves == l) for l in np.flatnonzero(group == gidx)])
        classes = np.unique(y[rows])
        if classes.size == 1:
            stages.append((classes, None, None))
            continue
        local = np.searchsorted(classes, y[rows])
        scaler = Scaler.fit(features[rows])
        net = Net([features.shape[1], 48, classes.size], seed=seed + gidx)
        train_net(
            net,
            scaler.transform(features[rows]),
            one_hot(local, classes.size),
            epochs=60,
            lr=0.5,
            batch_size=64,
            seed=seed + 1000 + gidx,
        )
        stages.append((classes, scaler, net))
    return MultiStageClassifier(tree, group, stages)


def stream_hash(P: np.ndarray, Csi: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(P).tobytes())
    h.update(np.ascontiguousarray(Csi).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class DefenseReport:
    rounds: tuple
    clean_rates: tuple
    attacked_rates: tuple
    clean_hash: str
    attacked_hash: str


def evaluate_defense(
    classifier: MultiStageClassifier,
    identities: Sequence[HardwareIdentity],
    rounds: int = DEFENSE_ROUNDS,
    per_device: int = 10,
    seed: int = 0,
) -> DefenseReport:
    """Identification rate per evaluation round, one signature stream per round.

    Each round synthesises one batch from the unchanged hardware identities
    and identifies it once. The ``attacked_*`` fields repeat the clean ones:
    an attacker who rewrites only traffic features leaves the RF stream as
    it is, so under such an attack the profiler sees the clean stream. The
    equal rates and hashes hold by construction, not as evidence that no
    attacker could reach the stream (see ROADMAP item 4 for RF attackers).
    """
    if rounds < 0:
        raise ValidationError(f"rounds must be >= 0, got {rounds}")
    rates = []
    h = hashlib.sha256()
    for r in range(rounds + 1):
        P, Csi, y = signature_batch(identities, per_device, noise_seed=seed + 7919 * r)
        ids = classifier.identify_batch(P, Csi)
        rates.append(identification_rate(y, ids))
        h.update(stream_hash(P, Csi).encode())
    rates, digest = tuple(rates), h.hexdigest()
    return DefenseReport(tuple(range(rounds + 1)), rates, rates, digest, digest)

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import ValidationError, identification_rate
from .learners import Net, Scaler, build_tree, one_hot, train_net, tree_apply

CARRIER_HZ = 2.4e9
WAVELENGTH_M = 2.998e8 / CARRIER_HZ
PATH_LOSS_REF_DB = 40.0  # at 1 m
PATH_LOSS_EXPONENT = 2.5
N_SUBCARRIERS = 30
SUBCARRIER_SPACING_HZ = 312.5e3


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


@dataclass
class _StageTwo:
    classes: np.ndarray  # global class ids, sorted
    scaler: Optional[Scaler]
    net: Optional[Net]

    def score(self, features: np.ndarray) -> np.ndarray:
        if self.net is None:
            return np.ones((features.shape[0], 1))
        return self.net.scores(self.scaler.transform(features))


class MultiStageClassifier:
    """Stage-1 tree over profiled features routes to per-group stage-2 nets."""

    def __init__(self, tree, leaf_to_group: Dict[int, int], stages: List[_StageTwo]):
        self.tree = tree
        self.leaf_to_group = dict(leaf_to_group)
        self.stages = stages

    def route(self, profiled: np.ndarray) -> np.ndarray:
        leaves = tree_apply(self.tree, np.atleast_2d(profiled))
        return np.array([self.leaf_to_group[int(l)] for l in leaves], dtype=int)

    def identify_batch(self, P: np.ndarray, Csi: np.ndarray):
        P = np.atleast_2d(P)
        Csi = np.atleast_2d(Csi)
        features = np.hstack([P, Csi])
        groups = self.route(P)
        ids = np.empty(P.shape[0], dtype=int)
        scores = np.empty(P.shape[0])
        for gidx in np.unique(groups):
            rows = np.flatnonzero(groups == gidx)
            stage = self.stages[gidx]
            s = stage.score(features[rows])
            local = np.argmax(s, axis=1)
            ids[rows] = stage.classes[local]
            scores[rows] = s[np.arange(rows.size), local]
        return ids, scores


def _subtree_leaves(tree, node: int) -> List[int]:
    if tree.feature[node] < 0:
        return [node]
    return _subtree_leaves(tree, tree.left[node]) + _subtree_leaves(tree, tree.right[node])


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
    P = np.atleast_2d(np.asarray(P, dtype=float))
    Csi = np.atleast_2d(np.asarray(Csi, dtype=float))
    y = np.asarray(y, dtype=int)
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

    # Parent map for the sibling-merge prune.
    parent = {}
    for node in range(tree.feature.size):
        if tree.feature[node] >= 0:
            parent[int(tree.left[node])] = node
            parent[int(tree.right[node])] = node

    # Nearest ancestor-or-self whose training subtree holds >= 2 classes.
    leaf_rows = {int(l): np.flatnonzero(leaves == l) for l in np.unique(leaves)}
    leaf_to_anchor = {}
    for leaf in leaf_rows:
        node = leaf
        while True:
            members = [l for l in _subtree_leaves(tree, node) if l in leaf_rows]
            classes = set()
            for l in members:
                classes.update(int(c) for c in np.unique(y[leaf_rows[l]]))
            if len(classes) >= 2 or node not in parent:
                break
            node = parent[node]
        leaf_to_anchor[leaf] = node

    # Anchors are consistent: a leaf's nearest qualifying ancestor is unique,
    # so mapping each leaf to its anchor partitions the leaves into groups.
    anchors = sorted(set(leaf_to_anchor.values()))
    leaf_to_group = {leaf: anchors.index(a) for leaf, a in leaf_to_anchor.items()}

    features = np.hstack([P, Csi])
    stages: List[_StageTwo] = []
    for gidx, _anchor in enumerate(anchors):
        rows = np.concatenate(
            [leaf_rows[l] for l, gg in leaf_to_group.items() if gg == gidx]
        )
        classes = np.unique(y[rows])
        if classes.size == 1:
            stages.append(_StageTwo(classes, None, None))
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
        stages.append(_StageTwo(classes, scaler, net))
    return MultiStageClassifier(tree, leaf_to_group, stages)


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
    rounds: int = 30,
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
        ids, _ = classifier.identify_batch(P, Csi)
        rates.append(identification_rate(y, ids))
        h.update(stream_hash(P, Csi).encode())
    rates, digest = tuple(rates), h.hexdigest()
    return DefenseReport(tuple(range(rounds + 1)), rates, rates, digest, digest)

"""Synthetic flow-feature dataset generator standing in for real traces.

28 device classes grouped into four types (camera / hub / switch /
health). Class identity is carried by a handful of mutable traffic
features; the payload-semantic one-hot features are sampled with the
same distribution for every class, so the immutable mask never leaks
identity by construction.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..core import Dataset, Feature, FeatureSchema, ValidationError

DEVICE_TYPES = ("camera", "hub", "switch", "health")

# (name, unit, lo, hi, mutable)
_TARGET_FEATURES = [
    ("request_interval_s", "s", 0.01, 600.0, True),
    ("service_volume_kb", "kB", 0.1, 50000.0, True),
    ("active_cycle_s", "s", 1.0, 3600.0, True),
    ("sleep_cycle_s", "s", 0.0, 7200.0, True),
    ("domain_hash_bucket", "bucket", 0.0, 255.0, True),
    ("local_port", "port", 1024.0, 65535.0, True),
    ("remote_port", "port", 1.0, 65535.0, True),
    ("pkt_size_mean", "B", 40.0, 1500.0, True),
    ("pkt_size_std", "B", 0.0, 700.0, True),
    ("pkt_interval_mean_ms", "ms", 0.1, 12000.0, True),
    ("pkt_interval_std_ms", "ms", 0.0, 5000.0, True),
    ("flow_duration_s", "s", 0.1, 3600.0, True),
    ("bytes_per_s", "B/s", 1.0, 1e7, True),
    ("svc_ntp", "onehot", 0.0, 1.0, False),
    ("svc_dns", "onehot", 0.0, 1.0, False),
    ("svc_storage", "onehot", 0.0, 1.0, False),
    ("svc_stream", "onehot", 0.0, 1.0, False),
    ("proto_tcp", "onehot", 0.0, 1.0, False),
    ("proto_udp", "onehot", 0.0, 1.0, False),
    ("proto_other", "onehot", 0.0, 1.0, False),
    ("ciph_none", "onehot", 0.0, 1.0, False),
    ("ciph_aes128", "onehot", 0.0, 1.0, False),
    ("ciph_aes256", "onehot", 0.0, 1.0, False),
    ("ciph_chacha", "onehot", 0.0, 1.0, False),
]

# Category draws are class-independent (identity never leaks through the
# immutable mask) and heavily skewed, so same-class rows mostly agree.
ONEHOT_GROUPS = {
    "svc": (("svc_ntp", "svc_dns", "svc_storage", "svc_stream"), (0.85, 0.05, 0.05, 0.05)),
    "proto": (("proto_tcp", "proto_udp", "proto_other"), (0.9, 0.07, 0.03)),
    "ciph": (
        ("ciph_none", "ciph_aes128", "ciph_aes256", "ciph_chacha"),
        (0.85, 0.05, 0.05, 0.05),
    ),
}

N_DECOYS = 4


def target_schema() -> FeatureSchema:
    """The identifier-side schema (no decoys)."""
    return FeatureSchema(tuple(Feature(*f) for f in _TARGET_FEATURES))


def attacker_pool_schema(n_decoys: int = N_DECOYS) -> FeatureSchema:
    """Target schema plus attacker-computed decoy features."""
    feats = [Feature(*f) for f in _TARGET_FEATURES]
    feats += [Feature(f"decoy_{i}", "arb", 0.0, 1000.0, True) for i in range(n_decoys)]
    return FeatureSchema(tuple(feats))


@dataclass(frozen=True)
class SyntheticProfile:
    """Per-class generating distribution over one schema."""

    label: str
    device_type: str
    means: np.ndarray  # per feature; for one-hot members: category probability
    spreads: np.ndarray  # normal sigma; 0 for one-hot members
    families: tuple  # "normal" | "uniform" | "onehot" per feature

    def __post_init__(self):
        object.__setattr__(self, "means", np.asarray(self.means, dtype=float))
        object.__setattr__(self, "spreads", np.asarray(self.spreads, dtype=float))
        object.__setattr__(self, "families", tuple(self.families))


# Per-type means (mean, sigma) for the type-carrying features. Type means
# are kept within roughly one order of magnitude per feature so that the
# decision margin between adjacent types stays a sizeable fraction of the
# feature's overall spread (order-of-magnitude ranges would make the
# margin vanish once the feature is standardised).
_TYPE_BASE = {
    "camera": {
        "bytes_per_s": (1.4e5, 1.2e4), "service_volume_kb": (350.0, 40.0),
        "pkt_size_mean": (1150.0, 60.0), "request_interval_s": (2.0, 0.5),
        "active_cycle_s": (2400.0, 200.0), "sleep_cycle_s": (50.0, 10.0),
        "remote_port": (443.0, 3.0), "pkt_size_std": (300.0, 12.0),
        "flow_duration_s": (1600.0, 120.0),
    },
    "hub": {
        "bytes_per_s": (1.0e5, 1.0e4), "service_volume_kb": (250.0, 30.0),
        "pkt_size_mean": (500.0, 50.0), "request_interval_s": (8.0, 1.2),
        "active_cycle_s": (1600.0, 150.0), "sleep_cycle_s": (600.0, 80.0),
        "remote_port": (8883.0, 3.0), "pkt_size_std": (150.0, 12.0),
        "flow_duration_s": (1100.0, 100.0),
    },
    "switch": {
        "bytes_per_s": (2.0e4, 2.5e3), "service_volume_kb": (50.0, 8.0),
        "pkt_size_mean": (90.0, 15.0), "request_interval_s": (20.0, 2.0),
        "active_cycle_s": (200.0, 30.0), "sleep_cycle_s": (3000.0, 300.0),
        "remote_port": (1883.0, 3.0), "pkt_size_std": (20.0, 5.0),
        "flow_duration_s": (100.0, 15.0),
    },
    "health": {
        "bytes_per_s": (6.0e4, 6.0e3), "service_volume_kb": (150.0, 20.0),
        "pkt_size_mean": (260.0, 35.0), "request_interval_s": (14.0, 1.5),
        "active_cycle_s": (800.0, 80.0), "sleep_cycle_s": (1500.0, 200.0),
        "remote_port": (8443.0, 3.0), "pkt_size_std": (60.0, 8.0),
        "flow_duration_s": (600.0, 60.0),
    },
}


def default_profiles(
    schema: FeatureSchema,
    n_classes: int = 28,
    separability: float = 1.0,
) -> List[SyntheticProfile]:
    """Deterministic class profiles: type carried by volume/bandwidth-style
    features, within-type identity by the packet-interval grid."""
    if n_classes < 2:
        raise ValidationError("need at least 2 classes")
    if separability <= 0:
        raise ValidationError("separability must be > 0")
    names = schema.names
    profiles = []
    per_type = -(-n_classes // len(DEVICE_TYPES))  # ceil
    for c in range(n_classes):
        ti = c // per_type
        j = c % per_type
        dtype = DEVICE_TYPES[ti]
        base = _TYPE_BASE[dtype]
        # Within-type identity sits on a semicircle over the two
        # packet-interval features, so every class is an extreme point
        # (keeps the benchmark linearly separable for the SVM target).
        theta = np.pi * j / max(1, per_type - 1)
        means = np.zeros(len(names))
        spreads = np.zeros(len(names))
        families = []
        for i, name in enumerate(names):
            fam = "normal"
            if name in base:
                m, s = base[name]
            elif name == "pkt_interval_mean_ms":
                m, s = 4500.0 + 3000.0 * np.cos(theta), 120.0
            elif name == "pkt_interval_std_ms":
                m, s = 2500.0 + 2000.0 * np.sin(theta), 90.0
            elif name == "local_port":
                m, s = 22000.0 + 1400.0 * c, 250.0
            elif name == "domain_hash_bucket":
                m, s = float((37 * c + 11) % 256), 4.0
            elif name.startswith("decoy_"):
                fam, m, s = "uniform", 0.0, 0.0
            elif any(name.startswith(p) for p in ("svc_", "proto_", "ciph_")):
                fam, m, s = "onehot", 0.0, 0.0
            else:
                fam, m, s = "uniform", 0.0, 0.0
            means[i] = m
            spreads[i] = s / separability if fam == "normal" else 0.0
            families.append(fam)
        # One-hot member probabilities are class-independent by design.
        for _, (members, probs) in ONEHOT_GROUPS.items():
            for member, p in zip(members, probs):
                if member in names:
                    means[names.index(member)] = p
        profiles.append(
            SyntheticProfile(f"{dtype}_{j:02d}", dtype, means, spreads, tuple(families))
        )
    return profiles


def check_separability(profiles: Sequence[SyntheticProfile]) -> bool:
    """Warn when two classes lack a feature whose means sit > 2x spread apart."""
    ok = True
    for a in range(len(profiles)):
        for b in range(a + 1, len(profiles)):
            pa, pb = profiles[a], profiles[b]
            sep = False
            for i, fam in enumerate(pa.families):
                if fam != "normal":
                    continue
                spread = max(pa.spreads[i], pb.spreads[i])
                if spread == 0:
                    if pa.means[i] != pb.means[i]:
                        sep = True
                        break
                    continue
                if abs(pa.means[i] - pb.means[i]) > 2.0 * spread:
                    sep = True
                    break
            if not sep:
                ok = False
                warnings.warn(
                    f"profiles {pa.label!r} and {pb.label!r} may be inseparable",
                    stacklevel=2,
                )
    return ok


def generate_dataset(
    profiles: Sequence[SyntheticProfile],
    rows_per_class: int,
    seed: int,
    schema: FeatureSchema,
) -> Dataset:
    """Seeded per-class draws, clamped to schema ranges; deterministic."""
    if len(profiles) < 2:
        raise ValidationError("need at least 2 profiles")
    if rows_per_class < 1:
        raise ValidationError("rows_per_class must be >= 1")
    check_separability(profiles)
    rng = np.random.default_rng(seed)
    names = schema.names
    blocks, labels = [], []
    for cid, prof in enumerate(profiles):
        X = np.zeros((rows_per_class, len(schema)))
        for i, fam in enumerate(prof.families):
            if fam == "normal":
                X[:, i] = rng.normal(prof.means[i], prof.spreads[i], size=rows_per_class) \
                    if prof.spreads[i] > 0 else prof.means[i]
            elif fam == "uniform":
                X[:, i] = rng.uniform(schema.lows[i], schema.highs[i], size=rows_per_class)
        for _, (members, _) in ONEHOT_GROUPS.items():
            idx = [names.index(m) for m in members if m in names]
            if not idx:
                continue
            probs = np.array([prof.means[i] for i in idx])
            probs = probs / probs.sum()
            choice = rng.choice(len(idx), size=rows_per_class, p=probs)
            X[np.arange(rows_per_class), np.asarray(idx)[choice]] = 1.0
        np.clip(X, schema.lows, schema.highs, out=X)
        blocks.append(X)
        labels.extend([cid] * rows_per_class)
    return Dataset(
        schema,
        np.vstack(blocks),
        np.asarray(labels, dtype=int),
        tuple(p.label for p in profiles),
    )


def classes_of_type(profiles: Sequence[SyntheticProfile], dtype: str) -> List[int]:
    return [i for i, p in enumerate(profiles) if p.device_type == dtype]

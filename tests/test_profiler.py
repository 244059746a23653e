"""Radio-signature synthesis and the signature-based identification defense."""
import dataclasses
import hashlib
import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from flowcamo import profiler as profiler_module
from flowcamo.core import ValidationError
from flowcamo.learners import build_tree, tree_apply
from flowcamo.profiler import (
    CARRIER_HZ,
    DEFAULT_NOISE,
    N_SUBCARRIERS,
    PATH_LOSS_EXPONENT,
    PATH_LOSS_REF_DB,
    SUBCARRIER_SPACING_HZ,
    WAVELENGTH_M,
    HardwareIdentity,
    NoiseModel,
    _device_multipath,
    _wrap_pi,
    evaluate_defense,
    fit_profiler,
    make_identities,
    signature_batch,
    stream_hash,
)


def scaled(noise: NoiseModel, factor: float) -> NoiseModel:
    """Every noise level of ``noise`` times ``factor``."""
    return NoiseModel(*(factor * getattr(noise, f.name) for f in dataclasses.fields(noise)))


ZERO_NOISE = scaled(DEFAULT_NOISE, 0.0)


# ---- reference: the per-row synthesis that signature_batch replaced ----------


def _reference_wrap_pi(x: float) -> float:
    return float(np.angle(np.exp(1j * x)))


def synthesize_signature(identity, rng, noise=DEFAULT_NOISE):
    """One simulated observation, its noise drawn from ``rng``; returns
    ``(profiled, csi)``."""
    x, y = identity.location
    d = float(np.hypot(x, y))
    if d <= 0:
        raise ValidationError("device cannot sit on the receiver")
    psi, rho, tau_s = _device_multipath(identity.device_id)

    freq = CARRIER_HZ * identity.cfo_ppm * 1e-6 + rng.normal(0.0, noise.freq_sigma_hz)

    angle = np.arctan2(x, y) + rng.normal(0.0, noise.angle_sigma_rad)
    angle = float(np.clip(angle, -np.pi / 2 + 1e-9, np.pi / 2))

    mp_db = 20.0 * np.log10(abs(1.0 + rho * np.exp(1j * psi)))
    mp_db *= 1.0 + identity.iq_gain_imbalance
    pl_db = PATH_LOSS_REF_DB + 10.0 * PATH_LOSS_EXPONENT * np.log10(d)
    atten = pl_db + mp_db + rng.normal(0.0, noise.atten_sigma_db)

    phase = _reference_wrap_pi(
        -2.0 * np.pi * d / WAVELENGTH_M
        + identity.iq_phase_skew_rad
        + rng.normal(0.0, noise.phase_sigma_rad)
    )

    gain = 10.0 ** (-pl_db / 20.0)
    k = np.arange(N_SUBCARRIERS) - N_SUBCARRIERS / 2
    ray = 1.0 + rho * np.exp(1j * (psi + 2.0 * np.pi * tau_s * k * SUBCARRIER_SPACING_HZ))
    csi = gain * np.abs(ray) * (1.0 + identity.iq_gain_imbalance)
    csi = csi + rng.normal(0.0, noise.csi_snr_sigma * gain, size=N_SUBCARRIERS)

    return np.array([float(atten), phase, float(freq), angle]), csi


def reference_batch(identities, per_device, noise_seed, noise=DEFAULT_NOISE):
    """Each device's rows in order, all drawn from one generator seeded by
    ``(device_id, noise_seed)``."""
    P, C, y = [], [], []
    for ident in identities:
        rng = np.random.default_rng([int(ident.device_id), int(noise_seed)])
        for j in range(per_device):
            profiled, csi = synthesize_signature(ident, rng, noise)
            P.append(profiled)
            C.append(csi)
            y.append(ident.device_id)
    return np.vstack(P), np.vstack(C), np.asarray(y, dtype=int)


def _coordinate():
    """Metres on either side of the receiver, from centimetres to kilometres."""
    magnitude = st.one_of(st.sampled_from([0.01, 1.0, 3.0, 30.0, 5000.0]),
                          st.floats(0.01, 5000.0))
    return st.tuples(st.sampled_from([-1.0, 1.0]), magnitude).map(lambda t: t[0] * t[1])


IDENTITY = st.builds(
    HardwareIdentity,
    device_id=st.integers(0, 40),
    cfo_ppm=st.floats(-25.0, 25.0),
    iq_gain_imbalance=st.floats(0.0, 0.1),
    iq_phase_skew_rad=st.floats(-0.2, 0.2),
    location=st.tuples(_coordinate(), _coordinate()),
)


@pytest.fixture(scope="module")
def identities():
    return make_identities(8, seed=21)


@pytest.fixture(scope="module")
def profiler(identities):
    P, Csi, y = signature_batch(identities, per_device=40, noise_seed=5)
    return fit_profiler(P, Csi, y, seed=3)


@pytest.fixture
def no_noise(monkeypatch):
    monkeypatch.setattr(profiler_module, "DEFAULT_NOISE", ZERO_NOISE)


def assert_same_bits(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    idents=st.lists(IDENTITY, min_size=1, max_size=4),
    per_device=st.integers(1, 12),
    # Seeds of one, two and three 32-bit words.
    noise_seed=st.one_of(st.integers(0, 10**6), st.integers(0, 2**66)),
)
def test_signature_batch_matches_per_row_reference(idents, per_device, noise_seed):
    """Per-device synthesis gives the per-row reference's bits, row for row."""
    assert_same_bits(signature_batch(idents, per_device, noise_seed),
                     reference_batch(idents, per_device, noise_seed))


class TestSignatureBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        idents=st.lists(IDENTITY, min_size=1, max_size=5),
        per_device=st.integers(1, 12),
        noise_seed=st.integers(0, 2**40),
        data=st.data(),
    )
    def test_device_rows_depend_only_on_device_seed_and_row(
            self, idents, per_device, noise_seed, data):
        """A device's rows keep their bits when the batch is reordered, when
        other devices are removed, and when ``per_device`` is cut to a
        prefix."""
        def by_device(devices, n):
            P, Csi, _ = signature_batch([idents[i] for i in devices], n, noise_seed)
            return P.reshape(len(devices), n, 4), Csi.reshape(len(devices), n, N_SUBCARRIERS)

        P, Csi = by_device(range(len(idents)), per_device)
        order = data.draw(st.permutations(range(len(idents))))
        keep = data.draw(st.lists(st.sampled_from(order), min_size=1, unique=True))
        cut = data.draw(st.integers(1, per_device))
        assert_same_bits(by_device(order, per_device), (P[order], Csi[order]))
        assert_same_bits(by_device(keep, cut), (P[keep, :cut], Csi[keep, :cut]))

    def test_negative_seed_rejected(self, identities):
        with pytest.raises(ValueError, match="non-negative"):
            signature_batch(identities, 2, -1)

    def test_cache_keys_on_the_noise_model(self, monkeypatch):
        """Synthesising under one noise model and then under another gives
        each model's own bits, so cached channel terms are per noise model."""
        idents = make_identities(3, seed=99)
        with monkeypatch.context() as m:
            m.setattr(profiler_module, "DEFAULT_NOISE", ZERO_NOISE)
            quiet = signature_batch(idents, 4, 12)
        loud = signature_batch(idents, 4, 12)
        assert_same_bits(quiet, reference_batch(idents, 4, 12, ZERO_NOISE))
        assert_same_bits(loud, reference_batch(idents, 4, 12))

    @pytest.mark.parametrize("idents, per_device", [([], 3), (None, 0), (None, -2)])
    def test_empty_batch_rejected(self, identities, idents, per_device):
        with pytest.raises(ValidationError):
            signature_batch(identities if idents is None else idents, per_device, 1)


class TestSignaturePhysics:
    def test_frequency_offset_exact_without_noise(self, identities, no_noise):
        """[DERIVED] with noise off, measured offset is carrier * ppm * 1e-6."""
        P, _, y = signature_batch(identities, 2, noise_seed=1)
        for ident in identities:
            for freq in P[y == ident.device_id, 2]:
                assert freq == pytest.approx(CARRIER_HZ * ident.cfo_ppm * 1e-6, rel=1e-12)

    def test_doubling_distance_adds_expected_loss(self, identities, no_noise):
        """[DERIVED] log-distance model: moving the same device twice as far
        adds 10 * exponent * log10(2) dB of attenuation."""
        ident = identities[0]
        far = dataclasses.replace(
            ident, location=(2 * ident.location[0], 2 * ident.location[1])
        )
        a1 = signature_batch([ident], 1, 1)[0][0, 0]
        a2 = signature_batch([far], 1, 1)[0][0, 0]
        assert a2 - a1 == pytest.approx(10.0 * PATH_LOSS_EXPONENT * math.log10(2.0))

    def test_arrival_angle_matches_geometry(self, identities, no_noise):
        P, _, _ = signature_batch(identities, 1, 1)
        for ident, angle in zip(identities, P[:, 3]):
            x, y = ident.location
            assert angle == pytest.approx(math.atan2(x, y), abs=1e-9)

    def test_phase_wrapped(self, identities, rng):
        P, _, _ = signature_batch(identities, 3, int(rng.integers(0, 1000)))
        assert np.all((-math.pi < P[:, 1]) & (P[:, 1] <= math.pi))

    def test_wrap_pi_range_and_values(self):
        assert _wrap_pi(0.0) == 0.0
        assert _wrap_pi(3 * math.pi) == pytest.approx(math.pi)
        assert _wrap_pi(-0.5) == pytest.approx(-0.5)
        values = np.linspace(-20, 20, 101)
        for v, w in zip(values, _wrap_pi(values)):
            assert w == _wrap_pi(v)
            assert -math.pi <= w <= math.pi
            # Same point on the circle.
            assert math.cos(w) == pytest.approx(math.cos(v), abs=1e-9)
            assert math.sin(w) == pytest.approx(math.sin(v), abs=1e-9)

    def test_deterministic_per_identity_and_seed(self, identities):
        a = signature_batch([identities[2]], 3, 77)
        b = signature_batch([identities[2]], 3, 77)
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)
        c = signature_batch([identities[2]], 3, 78)
        assert np.all(a[0][:, 2] != c[0][:, 2])

    def test_receiver_colocated_device_rejected(self, identities):
        bad = dataclasses.replace(identities[0], location=(0.0, 0.0))
        with pytest.raises(ValidationError):
            signature_batch([identities[1], bad], 1, 1)

    def test_noise_scaling(self):
        half = scaled(DEFAULT_NOISE, 0.5)
        assert half.freq_sigma_hz == DEFAULT_NOISE.freq_sigma_hz * 0.5
        assert half.csi_snr_sigma == DEFAULT_NOISE.csi_snr_sigma * 0.5


class TestStreamHash:
    def test_equal_inputs_equal_hash(self, identities):
        P, Csi, _ = signature_batch(identities, 5, noise_seed=9)
        assert stream_hash(P, Csi) == stream_hash(P.copy(), Csi.copy())

    def test_any_bit_change_changes_hash(self, identities):
        P, Csi, _ = signature_batch(identities, 5, noise_seed=9)
        h0 = stream_hash(P, Csi)
        P2 = P.copy()
        P2[0, 0] = np.nextafter(P2[0, 0], np.inf)
        assert stream_hash(P2, Csi) != h0


class TestProfilerIdentification:
    def test_clean_identification_rate(self, profiler, identities):
        P, Csi, y = signature_batch(identities, 20, noise_seed=991)
        ids = profiler.identify_batch(P, Csi)
        assert ids.shape == y.shape
        assert float(np.mean(ids == y)) >= 0.95

    def test_too_few_signatures_rejected(self, identities):
        P, Csi, y = signature_batch(identities, 5, noise_seed=1)
        with pytest.raises(ValidationError):
            fit_profiler(P, Csi, y)

    @pytest.mark.parametrize("cut", ["P", "Csi", "y"])
    def test_row_count_mismatch_rejected(self, identities, cut):
        arrays = dict(zip(("P", "Csi", "y"), signature_batch(identities, 12, noise_seed=1)))
        arrays[cut] = arrays[cut][:-1]
        with pytest.raises(ValidationError, match="row counts differ"):
            fit_profiler(**arrays)

    @pytest.mark.parametrize("flat", ["P", "Csi"])
    def test_arrays_that_are_not_row_batches_rejected(self, identities, flat):
        """A flattened array with one entry per label is refused as a shape
        error, not read as a single row."""
        arrays = dict(zip(("P", "Csi", "y"), signature_batch(identities, 12, noise_seed=1)))
        arrays[flat] = arrays[flat][:, 0]
        with pytest.raises(ValidationError, match="must be row batches"):
            fit_profiler(**arrays)


# ---- reference: the ancestor search that the anchor rule replaced -------------


def _subtree_leaves(tree, node):
    if tree.feature[node] < 0:
        return [node]
    return _subtree_leaves(tree, tree.left[node]) + _subtree_leaves(tree, tree.right[node])


def reference_leaf_groups(tree, leaves, y):
    """A leaf's anchor is its nearest ancestor-or-self whose training
    subtree holds two or more classes, or else the root; the leaves of one
    anchor form one group, numbered in anchor order."""
    parent = {}
    for node in range(tree.feature.size):
        if tree.feature[node] >= 0:
            parent[int(tree.left[node])] = node
            parent[int(tree.right[node])] = node
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
    anchors = sorted(set(leaf_to_anchor.values()))
    return {leaf: anchors.index(a) for leaf, a in leaf_to_anchor.items()}


def leaf_groups(tree, group):
    """``{leaf: group}`` of a node-indexed group array, which must read -1
    at every split node and a group at every leaf."""
    assert group.shape == tree.feature.shape
    assert ((group < 0) == (tree.feature >= 0)).all()
    return {leaf: int(group[leaf]) for leaf in np.flatnonzero(tree.feature < 0).tolist()}


class TestLeafGroups:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**16), n_devices=st.integers(2, 40),
           per_device=st.integers(10, 20), depth=st.integers(1, 5))
    def test_anchor_rule_matches_the_ancestor_search(self, seed, n_devices, per_device,
                                                     depth):
        P, _, y = signature_batch(make_identities(n_devices, seed), per_device,
                                  noise_seed=seed + 1)
        tree = build_tree(P, y, n_devices, max_depth=depth)
        leaves = tree_apply(tree, P)
        want = reference_leaf_groups(tree, leaves, y)
        assert leaf_groups(tree, profiler_module._group_leaves(tree, leaves, y)) == want

    def test_fitted_profiler_groups_match_the_ancestor_search(self, profiler, identities):
        P, _, y = signature_batch(identities, per_device=40, noise_seed=5)  # its training set
        want = reference_leaf_groups(profiler.tree, tree_apply(profiler.tree, P), y)
        assert leaf_groups(profiler.tree, profiler.group) == want
        assert len(profiler.stages) == max(want.values()) + 1


class TestDefense:
    def test_attack_cannot_touch_signature_stream(self, profiler, identities):
        """Identification stays high on every round, and the clean and
        under-attack signature streams are one stream."""
        rep = evaluate_defense(profiler, identities, rounds=5, per_device=10, seed=17)
        assert rep.clean_hash == rep.attacked_hash
        assert rep.clean_rates == rep.attacked_rates
        assert min(rep.clean_rates) >= 0.95
        assert rep.rounds == tuple(range(6))

    def test_negative_rounds_rejected(self, profiler, identities):
        with pytest.raises(ValidationError, match="rounds"):
            evaluate_defense(profiler, identities, rounds=-1)

    def test_no_generator_baseline_matches(self, profiler, identities):
        a = evaluate_defense(profiler, identities, rounds=2, per_device=8, seed=4)
        b = evaluate_defense(profiler, identities, rounds=2, per_device=8, seed=4)
        assert a == b

    def test_one_stream_per_round(self, profiler, identities, monkeypatch):
        """Each round synthesises and identifies one batch, and the report's
        hash chains that batch's stream hash round by round."""
        calls = []

        def counted(idents, per_device, noise_seed):
            out = signature_batch(idents, per_device, noise_seed)
            calls.append(stream_hash(*out[:2]))
            return out

        monkeypatch.setattr(profiler_module, "signature_batch", counted)
        rep = evaluate_defense(profiler, identities, rounds=3, per_device=4, seed=9)
        assert len(calls) == 4
        h = hashlib.sha256()
        for digest in calls:
            h.update(digest.encode())
        assert rep.clean_hash == h.hexdigest()

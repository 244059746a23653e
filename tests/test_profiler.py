"""Radio-signature synthesis and the signature-based identification defense."""
import dataclasses
import math

import numpy as np
import pytest

from flowcamo.camouflage import build_generator
from flowcamo.core import ValidationError
from flowcamo.profiler import (
    CARRIER_HZ,
    DEFAULT_NOISE,
    NoiseModel,
    PATH_LOSS_EXPONENT,
    _wrap_pi,
    evaluate_defense,
    fit_profiler,
    make_identities,
    signature_batch,
    stream_hash,
    synthesize_signature,
)


def scaled(noise: NoiseModel, factor: float) -> NoiseModel:
    """Every noise level of ``noise`` times ``factor``."""
    return NoiseModel(*(factor * getattr(noise, f.name) for f in dataclasses.fields(noise)))


ZERO_NOISE = scaled(DEFAULT_NOISE, 0.0)


@pytest.fixture(scope="module")
def identities():
    return make_identities(8, seed=21)


@pytest.fixture(scope="module")
def profiler(identities):
    P, Csi, y = signature_batch(identities, per_device=40, noise_seed=5)
    return fit_profiler(P, Csi, y, seed=3)


class TestSignaturePhysics:
    def test_frequency_offset_exact_without_noise(self, identities):
        """[DERIVED] with noise off, measured offset is carrier * ppm * 1e-6."""
        for ident in identities:
            sig = synthesize_signature(ident, noise_seed=1, noise=ZERO_NOISE)
            assert sig.frequency_offset == pytest.approx(
                CARRIER_HZ * ident.cfo_ppm * 1e-6, rel=1e-12
            )

    def test_doubling_distance_adds_expected_loss(self, identities):
        """[DERIVED] log-distance model: moving the same device twice as far
        adds 10 * exponent * log10(2) dB of attenuation."""
        ident = identities[0]
        far = dataclasses.replace(
            ident, location=(2 * ident.location[0], 2 * ident.location[1])
        )
        a1 = synthesize_signature(ident, 1, ZERO_NOISE).amplitude_attenuation
        a2 = synthesize_signature(far, 1, ZERO_NOISE).amplitude_attenuation
        assert a2 - a1 == pytest.approx(10.0 * PATH_LOSS_EXPONENT * math.log10(2.0))

    def test_arrival_angle_matches_geometry(self, identities):
        for ident in identities:
            sig = synthesize_signature(ident, 1, ZERO_NOISE)
            x, y = ident.location
            assert sig.arrival_angle == pytest.approx(math.atan2(x, y), abs=1e-9)

    def test_phase_wrapped(self, identities, rng):
        for ident in identities:
            sig = synthesize_signature(ident, int(rng.integers(0, 1000)), DEFAULT_NOISE)
            assert -math.pi < sig.phase_shift <= math.pi

    def test_wrap_pi_range_and_values(self):
        assert _wrap_pi(0.0) == 0.0
        assert _wrap_pi(3 * math.pi) == pytest.approx(math.pi)
        assert _wrap_pi(-0.5) == pytest.approx(-0.5)
        for v in np.linspace(-20, 20, 101):
            w = _wrap_pi(v)
            assert -math.pi <= w <= math.pi
            # Same point on the circle.
            assert math.cos(w) == pytest.approx(math.cos(v), abs=1e-9)
            assert math.sin(w) == pytest.approx(math.sin(v), abs=1e-9)

    def test_deterministic_per_identity_and_seed(self, identities):
        a = synthesize_signature(identities[2], 77)
        b = synthesize_signature(identities[2], 77)
        assert a.profiled.tolist() == b.profiled.tolist()
        np.testing.assert_array_equal(a.csi, b.csi)
        c = synthesize_signature(identities[2], 78)
        assert a.frequency_offset != c.frequency_offset

    def test_receiver_colocated_device_rejected(self, identities):
        bad = dataclasses.replace(identities[0], location=(0.0, 0.0))
        with pytest.raises(ValidationError):
            synthesize_signature(bad, 1)

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
        ids, _ = profiler.identify_batch(P, Csi)
        assert float(np.mean(ids == y)) >= 0.95

    def test_single_signature_api(self, profiler, identities):
        sig = synthesize_signature(identities[3], 1234)
        cls, score = profiler.identify(sig)
        assert cls.id in range(8)
        assert 0.0 <= score <= 1.0

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


class TestDefense:
    def test_attack_cannot_touch_signature_stream(
        self, profiler, identities, pool_schema, small_dataset
    ):
        """Identification stays high while the generator trains, and the
        clean and under-attack signature streams hash identically."""
        g = build_generator(pool_schema, small_dataset.X, seed=2)
        rep = evaluate_defense(
            profiler, g, identities, rounds=5, per_device=10, seed=17,
            traffic=small_dataset.X[:64],
        )
        assert rep.clean_hash == rep.attacked_hash
        assert rep.clean_rates == rep.attacked_rates
        assert min(rep.clean_rates) >= 0.95
        assert rep.epochs == tuple(range(6))

    def test_no_generator_baseline_matches(self, profiler, identities):
        a = evaluate_defense(profiler, None, identities, rounds=2, per_device=8, seed=4)
        b = evaluate_defense(profiler, None, identities, rounds=2, per_device=8, seed=4)
        assert a == b

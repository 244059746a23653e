"""Substitute extraction: permutation importance, subset selection, the
accuracy-per-overhead gain metric, and model persistence."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcamo.blackbox import make_oracle
from flowcamo.core import Dataset, DegenerateTrainingError, ValidationError
from flowcamo.harness import synth
from flowcamo.harness.csvio import write_report_csv
from flowcamo.learners import fit
from flowcamo.substitute import (
    PerformanceGainPoint,
    feature_weights,
    load_substitute,
    performance_gain,
    performance_gain_scan,
    save_substitute,
    scan_to_csv_rows,
    select_subset,
    top_l_indices,
    train_substitute,
)


@pytest.fixture(scope="module")
def corpus(small_split, pool_schema, target_schema):
    """Oracle-labeled corpus eavesdropped from a tree identifier."""
    train, _ = small_split
    target = fit("decision_tree", train.project(target_schema), seed=3)
    oracle = make_oracle(target, pool_schema)
    return oracle.collect(train.X)


@pytest.fixture(scope="module")
def base_sub(corpus):
    return train_substitute(corpus, epochs=25, seed=11)


class TestPerformanceGain:
    def test_hand_computed_value(self):
        """[DERIVED] r_c=0.95, r_p=0.90, c_c=2, c_p=1:
        rel accuracy growth = 0.05/0.95, rel overhead growth = 0.5,
        gain = (0.05/0.95 - 0.5)/0.5 = -0.894736842..."""
        gain, undefined = performance_gain(0.95, 0.90, 2.0, 1.0)
        assert not undefined
        assert gain == pytest.approx((0.05 / 0.95 - 0.5) / 0.5)
        assert gain == pytest.approx(-0.8947368421052632)

    def test_equal_accuracies_give_minus_one(self):
        """[DERIVED] rel accuracy growth is 0, so gain = (0 - x)/x = -1."""
        gain, undefined = performance_gain(0.9, 0.9, 3.0, 1.0)
        assert not undefined
        assert gain == -1.0

    def test_tied_overheads_undefined(self):
        gain, undefined = performance_gain(0.9, 0.8, 1.5, 1.5)
        assert undefined and math.isnan(gain)

    def test_zero_current_accuracy_undefined(self):
        gain, undefined = performance_gain(0.0, 0.5, 2.0, 1.0)
        assert undefined and math.isnan(gain)

    @settings(max_examples=300, deadline=None)
    @given(
        r_c=st.floats(0.0, 1.0),
        r_p=st.floats(0.0, 1.0),
        c_c=st.floats(1e-9, 10.0),
        c_p=st.floats(1e-9, 10.0),
    )
    def test_never_divides_by_zero(self, r_c, r_p, c_c, c_p):
        """Any accuracy pair and positive overhead pair either yields a
        real number or is flagged undefined; no exception escapes."""
        gain, undefined = performance_gain(r_c, r_p, c_c, c_p)
        if undefined:
            assert math.isnan(gain)
        else:
            assert not math.isnan(gain)


class TestTopL:
    def test_matches_brute_force(self, rng):
        """[DERIVED] compare against sorting (weight desc, index asc)."""
        for _ in range(20):
            w = rng.integers(0, 5, size=12).astype(float)  # many ties
            for L in (1, 4, 12):
                ranked = sorted(range(12), key=lambda i: (-w[i], i))
                assert top_l_indices(w, L) == tuple(sorted(ranked[:L]))

    def test_rejects_bad_L(self):
        w = np.ones(5)
        with pytest.raises(ValidationError):
            top_l_indices(w, 0)
        with pytest.raises(ValidationError):
            top_l_indices(w, 6)


class TestTrainSubstitute:
    def test_high_oracle_agreement(self, base_sub):
        assert base_sub.agreement >= 0.85

    def test_curve_length_matches_epochs(self, base_sub):
        assert len(base_sub.training_curve) == 25
        assert base_sub.training_curve[-1] == base_sub.agreement

    def test_single_class_corpus_rejected(self, corpus):
        one = Dataset(
            corpus.schema, corpus.X[:40], np.zeros(40, dtype=int), corpus.class_labels
        )
        with pytest.raises(DegenerateTrainingError):
            train_substitute(one, epochs=2)

    def test_bad_epochs_rejected(self, corpus):
        with pytest.raises(ValidationError):
            train_substitute(corpus, epochs=0)

    def test_extra_rows_train_only(self, corpus, pool_schema, rng):
        """Holdout indices address the eavesdropped corpus, so agreement is
        unaffected by how many extra probe rows are appended for training."""
        probes = rng.uniform(
            pool_schema.lows, pool_schema.highs, size=(200, len(pool_schema))
        )
        extra = Dataset(
            pool_schema, probes, rng.integers(0, 8, 200), corpus.class_labels
        )
        sub = train_substitute(corpus, epochs=5, seed=11, train_extra=extra)
        assert sub.holdout_idx.max() < len(corpus)

    def test_extra_schema_mismatch_rejected(self, corpus, target_schema, rng):
        probes = rng.uniform(
            target_schema.lows, target_schema.highs, size=(10, len(target_schema))
        )
        extra = Dataset(
            target_schema, probes, np.zeros(10, dtype=int), corpus.class_labels
        )
        with pytest.raises(ValidationError):
            train_substitute(corpus, epochs=2, train_extra=extra)


class TestFeatureWeights:
    def test_informative_feature_beats_decoy(self, corpus, base_sub):
        w = feature_weights(corpus, base_sub, seed=1)
        names = corpus.schema.names
        informative = max(w[names.index(n)] for n in ("bytes_per_s", "pkt_size_mean"))
        decoys = [w[i] for i, n in enumerate(names) if n.startswith("decoy_")]
        assert informative > max(decoys)
        assert np.all(w >= 0.0)

    def test_requires_full_pool_base(self, corpus):
        narrow = train_substitute(corpus, subset=(0, 1, 2, 3), epochs=3, seed=0)
        with pytest.raises(ValidationError):
            feature_weights(corpus, narrow)

    def test_holdout_past_the_corpus_rejected(self, corpus, base_sub):
        short = corpus.take(np.arange(base_sub.holdout_idx.max()))
        with pytest.raises(ValidationError, match="holdout_idx reaches row"):
            feature_weights(short, base_sub)


class TestScanAndSelect:
    def test_scan_shape_and_first_point(self, corpus, base_sub):
        w = feature_weights(corpus, base_sub, seed=1)
        scan = performance_gain_scan(corpus, w, [4, 12, 28], epochs=8, seed=2)
        assert [p.L for p in scan] == [4, 12, 28]
        assert scan[0].undefined and math.isnan(scan[0].gain)
        for p in scan[1:]:
            assert p.undefined == math.isnan(p.gain)
        chosen = select_subset(scan, full_agreement=base_sub.agreement, eps=0.05)
        assert chosen in (4, 12, 28)

    def test_scan_rejects_bad_L_values(self, corpus):
        w = np.ones(len(corpus.schema))
        with pytest.raises(ValidationError):
            performance_gain_scan(corpus, w, [])
        with pytest.raises(ValidationError):
            performance_gain_scan(corpus, w, [12, 4])
        with pytest.raises(ValidationError):
            performance_gain_scan(corpus, w, [0, 4])

    def test_select_smallest_within_eps(self):
        """[DERIVED] 0.95 is within 0.02 of 0.96, so L=8 wins over L=16."""
        scan = [
            PerformanceGainPoint(4, 0.70, 1.0, float("nan"), True),
            PerformanceGainPoint(8, 0.95, 2.0, 1.0, False),
            PerformanceGainPoint(16, 0.96, 3.0, 0.5, False),
        ]
        assert select_subset(scan, full_agreement=0.96, eps=0.02) == 8
        assert select_subset(scan, full_agreement=0.96, eps=0.001) == 16

    def test_select_falls_back_to_best_agreement(self):
        scan = [
            PerformanceGainPoint(4, 0.50, 1.0, float("nan"), True),
            PerformanceGainPoint(8, 0.60, 2.0, 1.0, False),
        ]
        assert select_subset(scan, full_agreement=0.99, eps=0.02) == 8

    def test_select_rejects_empty(self):
        with pytest.raises(ValidationError):
            select_subset([])


class TestScanCsv:
    def test_timing_does_not_change_the_byte_count(self, tmp_path):
        """Two scans that differ only in their wall-clock columns."""
        fast = [
            PerformanceGainPoint(4, 0.75, 0.001, float("nan"), True),
            PerformanceGainPoint(8, 0.9375, 0.0015, 0.25, False),
            PerformanceGainPoint(16, 0.96875, 0.002, -0.8947368421052632, False),
        ]
        slow = [
            PerformanceGainPoint(4, 0.75, 0.00123456789012345, float("nan"), True),
            PerformanceGainPoint(8, 0.9375, 0.1, -3.0, False),
            PerformanceGainPoint(16, 0.96875, 12.5, 1.0 / 3.0, False),
        ]
        sizes = []
        for name, scan in (("fast", fast), ("slow", slow)):
            rows = scan_to_csv_rows(scan)
            path = tmp_path / f"{name}.csv"
            write_report_csv(str(path), rows[0], rows[1:], {"selected_L": "8"})
            sizes.append(len(path.read_bytes()))
        assert sizes[0] == sizes[1]

    def test_columns_parse_back(self):
        rows = scan_to_csv_rows([PerformanceGainPoint(8, 0.9375, 0.0015, -0.25, False)])
        assert rows[1][2] == "1.500000e-03" and rows[1][3] == "-2.500000e-01"
        assert float(rows[1][2]) == 0.0015 and float(rows[1][3]) == -0.25


class TestPersistence:
    def test_round_trip(self, base_sub, small_split, tmp_path):
        train, _ = small_split
        path = str(tmp_path / "sub.npz")
        save_substitute(base_sub, path)
        loaded = load_substitute(path)
        np.testing.assert_array_equal(
            loaded.predict_ids_pool(train.X), base_sub.predict_ids_pool(train.X)
        )
        np.testing.assert_array_equal(
            loaded.net.get_flat_params(), base_sub.net.get_flat_params()
        )
        assert loaded.subset == base_sub.subset
        assert loaded.agreement == base_sub.agreement

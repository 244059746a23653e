"""Substitute extraction: permutation importance, subset selection, the
accuracy-per-cost gain metric, and model persistence."""
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

from criteria import scan_of


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
        rel accuracy growth = 0.05/0.95, rel cost growth = 0.5,
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
        """Any accuracy pair and positive cost pair either yields a
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


class TestFeatureWeights:
    def test_informative_feature_beats_decoy(self, corpus, base_sub):
        w = feature_weights(corpus, base_sub, seed=1)
        names = corpus.schema.names
        informative = max(w[names.index(n)] for n in ("bytes_per_s", "pkt_size_mean"))
        decoys = [w[i] for i, n in enumerate(names) if n.startswith("decoy_")]
        assert informative > max(decoys)
        assert np.all(w >= 0.0)

    def test_requires_full_pool_base(self, corpus):
        narrow = train_substitute(corpus.project(corpus.schema.subset((0, 1, 2, 3))),
                                  epochs=3, seed=0)
        with pytest.raises(ValidationError, match="corpus schema"):
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
        assert select_subset(scan) in (4, 12, 28)

    def test_full_size_point_is_the_unprojected_substitute(self, corpus):
        """Projecting onto every column, in schema order, changes no number."""
        w = np.arange(len(corpus.schema), dtype=float)
        (point,) = performance_gain_scan(corpus, w, [len(corpus.schema)], epochs=3, seed=2)
        assert point.agreement == train_substitute(corpus, epochs=3, seed=2).agreement

    def test_scan_rejects_bad_L_values(self, corpus):
        w = np.ones(len(corpus.schema))
        with pytest.raises(ValidationError):
            performance_gain_scan(corpus, w, [])
        with pytest.raises(ValidationError):
            performance_gain_scan(corpus, w, [12, 4])
        with pytest.raises(ValidationError):
            performance_gain_scan(corpus, w, [0, 4])
        with pytest.raises(ValidationError, match="strictly ascending"):
            performance_gain_scan(corpus, w, [4, 4])

    def test_cost_is_the_trained_nets_multiply_adds(self, corpus):
        """[DERIVED] a 64-64 net over L features and C classes does
        64·L + 64·64 + 64·C multiply-adds per prediction."""
        w = np.arange(len(corpus.schema), dtype=float)
        scan = performance_gain_scan(corpus, w, [2, 8, 28], epochs=2, seed=2)
        for p in scan:
            assert p.multiply_adds == 64 * p.L + 64 * 64 + 64 * corpus.n_classes
        costs = [p.multiply_adds for p in scan]
        assert costs == sorted(set(costs))
        assert [p.undefined for p in scan] == [True, False, False]

    def test_rerun_returns_equal_points(self, corpus):
        w = np.arange(len(corpus.schema), dtype=float)
        first, again = (performance_gain_scan(corpus, w, [4, 12], epochs=3, seed=5)
                        for _ in range(2))
        assert repr(first) == repr(again)  # exact floats; nan gains compare equal

    def test_select_knee_where_agreement_eps_would_not(self):
        """[DERIVED] costs 4736/4864/5120/5632; the gain at L=4 is
        (0.4/0.9 - 128/4864)/(128/4864) = +15.9 and at L=8
        (0.01/0.91 - 256/5120)/(256/5120) = -0.78, so the knee is 4. The
        smallest L within 0.02 of the 0.97 full pool would be 16."""
        scan = scan_of([(2, 0.50), (4, 0.90), (8, 0.91), (16, 0.97)], n_classes=8)
        assert [p.gain > 0 for p in scan[1:]] == [True, False, False]
        assert select_subset(scan) == 4

    def test_select_stops_at_an_undefined_gain(self):
        """A zero agreement leaves its gain undefined; the walk ends before
        it although the next gain is positive."""
        scan = scan_of([(2, 0.50), (4, 0.90), (8, 0.0), (16, 0.99)], n_classes=8)
        assert [p.undefined for p in scan] == [True, False, True, False]
        assert scan[3].gain > 0
        assert select_subset(scan) == 4

    def test_select_one_point_scan(self):
        assert select_subset(scan_of([(6, 0.7)], n_classes=8)) == 6

    def test_select_last_L_when_gains_stay_positive(self):
        scan = scan_of([(2, 0.40), (4, 0.60), (8, 0.80), (16, 0.95)], n_classes=8)
        assert all(p.gain > 0 for p in scan[1:])
        assert select_subset(scan) == 16

    def test_select_rejects_empty(self):
        with pytest.raises(ValidationError):
            select_subset([])


class TestScanCsv:
    def test_columns_parse_back(self, tmp_path):
        rows = scan_to_csv_rows([PerformanceGainPoint(4, 0.75, 6208, float("nan"), True),
                                 PerformanceGainPoint(8, 0.9375, 6464, -1.0 / 3.0, False)])
        path = tmp_path / "scan.csv"
        write_report_csv(str(path), rows[0], rows[1:], {"selected_L": "8"})
        header, *lines = path.read_text().splitlines()[1:]
        assert header == "L,agreement,multiply_adds,gain,undefined_flag"
        assert lines[0] == "4,0.75,6208,,1"
        L, agree, cost, gain, flag = lines[1].split(",")
        assert (int(L), float(agree), int(cost), float(gain), int(flag)) == (
            8, 0.9375, 6464, -1.0 / 3.0, 0)


class TestPersistence:
    def test_round_trip(self, base_sub, small_split, tmp_path):
        train, _ = small_split
        path = str(tmp_path / "sub.npz")
        save_substitute(base_sub, path)
        loaded = load_substitute(path)
        np.testing.assert_array_equal(loaded.predict_ids(train.X), base_sub.predict_ids(train.X))
        np.testing.assert_array_equal(loaded.net.params, base_sub.net.params)
        assert loaded.schema == base_sub.schema
        assert loaded.agreement == base_sub.agreement

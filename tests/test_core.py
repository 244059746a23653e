import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcamo.core import (
    Dataset,
    DeviceClass,
    Feature,
    FeatureSchema,
    ValidationError,
    identification_rate,
    readonly_array,
    split_dataset,
    spoofing_rate,
    stratified_split,
    validate_matrix,
)


def make_schema():
    return FeatureSchema(
        (
            Feature("a", "u", 0.0, 10.0, True),
            Feature("b", "u", -1.0, 1.0, False),
            Feature("c", "u", 0.0, 100.0, True),
        )
    )


class TestFeatureSchema:
    def test_basic_accessors(self):
        s = make_schema()
        assert len(s) == 3
        assert s.names == ("a", "b", "c")
        assert s.index("c") == 2
        np.testing.assert_array_equal(s.lows, [0.0, -1.0, 0.0])
        np.testing.assert_array_equal(s.highs, [10.0, 1.0, 100.0])
        np.testing.assert_array_equal(s.mutable_mask, [True, False, True])

    def test_unknown_feature_name(self):
        with pytest.raises(ValidationError):
            make_schema().index("nope")

    def test_duplicate_names_rejected(self):
        f = Feature("x", "u", 0.0, 1.0, True)
        with pytest.raises(ValidationError):
            FeatureSchema((f, f))

    def test_inverted_range_rejected(self):
        with pytest.raises(ValidationError):
            Feature("x", "u", 2.0, 1.0, True)

    def test_projection_reorders_columns(self):
        s = make_schema()
        sub = s.subset([2, 0])
        cols = s.projection_onto(sub)
        np.testing.assert_array_equal(cols, [2, 0])
        # Brute-force oracle: projected names must match the target schema.
        assert tuple(s.names[i] for i in cols) == sub.names

    def test_projection_missing_feature(self):
        other = FeatureSchema((Feature("zz", "u", 0.0, 1.0, True),))
        with pytest.raises(ValidationError):
            make_schema().projection_onto(other)


class TestValidateMatrix:
    def test_out_of_range_rejected(self):
        X = np.array([[11.0, 0.0, 5.0]])
        with pytest.raises(ValidationError):
            validate_matrix(make_schema(), X)

    def test_nan_rejected(self):
        X = np.array([[np.nan, 0.0, 5.0]])
        with pytest.raises(ValidationError):
            validate_matrix(make_schema(), X)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValidationError):
            validate_matrix(make_schema(), np.zeros((2, 2)))

    def test_boundary_values_accepted(self):
        X = np.array([[0.0, -1.0, 100.0], [10.0, 1.0, 0.0]])
        out = validate_matrix(make_schema(), X)
        np.testing.assert_array_equal(out, X)


def id_arrays():
    """(y_true, y_pred, n_classes): two equal-length arrays of random ids."""
    return st.tuples(
        st.integers(1, 3000), st.integers(2, 40), st.integers(0, 2**32 - 1)
    ).map(lambda a: (*np.random.default_rng(a[2]).integers(0, a[1], size=(2, a[0])), a[1]))


class TestRates:
    def test_identification_rate_hand_counted(self):
        # [TRIVIAL] 3 correct out of 5.
        y = np.array([0, 0, 1, 1, 2])
        p = np.array([0, 1, 1, 1, 0])
        assert identification_rate(y, p) == 3 / 5

    @settings(max_examples=200)
    @given(id_arrays())
    def test_identification_rate_is_correct_over_total(self, case):
        """Bit-equal to the count-matrix rate it replaced: trace / total of
        the confusion counts, as Python ints."""
        y, p, n = case
        counts = np.zeros((n, n), dtype=np.int64)
        np.add.at(counts, (y, p), 1)
        assert identification_rate(y, p) == int(np.trace(counts)) / int(counts.sum())

    @settings(max_examples=200)
    @given(id_arrays())
    def test_spoofing_rate_is_hits_over_total(self, case):
        _, p, _ = case
        target = int(p[0])
        hits = sum(1 for v in p.tolist() if v == target)
        assert spoofing_rate(p, DeviceClass(target, "t")) == hits / p.size

    def test_spoofing_rate_hand_counted(self):
        # [TRIVIAL] 2 of 4 predictions hit the chosen class.
        preds = np.array([3, 1, 3, 0])
        assert spoofing_rate(preds, DeviceClass(3, "t")) == pytest.approx(0.5)

    def test_empty_predictions_rejected(self):
        empty = np.array([], dtype=int)
        with pytest.raises(ValidationError, match="no predictions to evaluate"):
            spoofing_rate(empty, DeviceClass(0, "t"))
        with pytest.raises(ValidationError, match="no predictions to evaluate"):
            identification_rate(empty, empty)
        with pytest.raises(ValidationError, match="no predictions to evaluate"):
            identification_rate([], [])

    def test_misaligned_ids_rejected(self):
        with pytest.raises(ValidationError):
            identification_rate(np.array([0, 1, 1]), np.array([1]))


class TestSplit:
    def test_split_is_stratified_and_disjoint(self, small_dataset):
        tr, te = split_dataset(small_dataset, 0.8, seed=3)
        assert len(tr) + len(te) == len(small_dataset)
        # Every class appears on both sides with the requested proportion.
        for c in range(small_dataset.n_classes):
            n_tr = int(np.sum(tr.y == c))
            n_te = int(np.sum(te.y == c))
            n = int(np.sum(small_dataset.y == c))
            assert n_tr + n_te == n
            assert n_tr == round(0.8 * n)

    def test_split_deterministic(self, small_dataset):
        a = split_dataset(small_dataset, 0.8, seed=11)[0]
        b = split_dataset(small_dataset, 0.8, seed=11)[0]
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)

    def test_split_seed_changes_partition(self, small_dataset):
        a = split_dataset(small_dataset, 0.8, seed=1)[0]
        b = split_dataset(small_dataset, 0.8, seed=2)[0]
        assert not np.array_equal(a.X, b.X)

    def test_degenerate_fraction_rejected(self, small_dataset):
        with pytest.raises(ValidationError, match=r"train_fraction must be in \(0,1\)"):
            split_dataset(small_dataset, 1.0, seed=0)

    def test_singleton_class_rejected(self):
        ds = Dataset(make_schema(), np.zeros((5, 3)), [0, 0, 1, 2, 2], ("x", "y", "z"))
        with pytest.raises(ValidationError, match="'y' has 1 row"):
            split_dataset(ds, 0.8, seed=0)


def _old_holdout_split(y, frac, seed):
    """The substitute's former private split, kept as the reference."""
    rng = np.random.default_rng(seed)
    train_idx, hold_idx = [], []
    for c in np.unique(y):
        rows = rng.permutation(np.flatnonzero(y == c))
        if rows.size < 2:
            train_idx.append(rows)
            continue
        n_train = min(max(int(round(frac * rows.size)), 1), rows.size - 1)
        train_idx.append(rows[:n_train])
        hold_idx.append(rows[n_train:])
    train_idx = np.sort(np.concatenate(train_idx))
    hold_idx = np.sort(np.concatenate(hold_idx)) if hold_idx else np.array([], dtype=int)
    return train_idx, hold_idx


class TestStratifiedSplit:
    @settings(max_examples=200, deadline=None)
    @given(
        y=st.lists(st.integers(0, 6), min_size=1, max_size=60),
        frac=st.floats(0.05, 0.95),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_former_substitute_split(self, y, frac, seed):
        y = np.array(y)
        got = stratified_split(y, frac, seed)
        want = _old_holdout_split(y, frac, seed)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
            assert g.dtype == w.dtype
        # split_dataset is the same split, or refuses a singleton class;
        # column c carries each row's index.
        X = np.zeros((y.size, 3))
        X[:, 2] = np.arange(y.size)
        ds = Dataset(make_schema(), X, y, tuple("abcdefg"))
        if (np.bincount(y) == 1).any():
            with pytest.raises(ValidationError, match=r"has 1 row\(s\); need >= 2"):
                split_dataset(ds, frac, seed)
        else:
            tr, te = split_dataset(ds, frac, seed)
            np.testing.assert_array_equal(tr.X[:, 2], want[0])
            np.testing.assert_array_equal(te.X[:, 2], want[1])

    def test_singletons_go_to_train(self):
        train_idx, test_idx = stratified_split(np.array([0, 1, 1, 1, 2]), 0.5, seed=3)
        assert {0, 4} <= set(train_idx.tolist())
        assert not {0, 4} & set(test_idx.tolist())


class TestReadonlyArray:
    def test_writeable_input_or_view_is_copied(self):
        a = np.arange(6.0).reshape(2, 3)
        for src in (a, a[0]):
            r = readonly_array(src, float)
            assert src.flags.writeable and not r.flags.writeable
            assert not np.shares_memory(a, r)

    def test_readonly_input_and_fresh_conversion_are_not_copied(self):
        a = np.arange(4.0)
        a.flags.writeable = False
        assert readonly_array(a, float) is a
        ints = np.arange(4)
        r = readonly_array(ints, float)
        assert r.dtype == float and not r.flags.writeable and r.base is None
        assert ints.flags.writeable


class TestDataset:
    def test_project_keeps_rows(self, small_dataset, target_schema):
        ds = small_dataset.project(target_schema)
        assert len(ds) == len(small_dataset)
        assert ds.schema.names == target_schema.names
        col = small_dataset.schema.index(target_schema.names[0])
        np.testing.assert_array_equal(ds.X[:, 0], small_dataset.X[:, col])

    def test_take_subset(self, small_dataset):
        idx = np.arange(5)
        sub = small_dataset.take(idx)
        np.testing.assert_array_equal(sub.X, small_dataset.X[:5])
        np.testing.assert_array_equal(sub.y, small_dataset.y[:5])

    def test_caller_arrays_stay_writeable_and_unshared(self, small_dataset):
        X, y = small_dataset.X.copy(), small_dataset.y.copy()
        ds = Dataset(small_dataset.schema, X, y, small_dataset.class_labels)
        assert X.flags.writeable and y.flags.writeable
        assert not ds.X.flags.writeable and not ds.y.flags.writeable
        X[0, 0] += 1.0
        y[0] = (y[0] + 1) % ds.n_classes
        np.testing.assert_array_equal(ds.X, small_dataset.X)
        np.testing.assert_array_equal(ds.y, small_dataset.y)

    def test_label_mismatch_rejected(self, pool_schema):
        X = np.clip(np.ones((4, len(pool_schema))), pool_schema.lows, pool_schema.highs)
        with pytest.raises(ValidationError):
            Dataset(pool_schema, X, np.array([0, 1, 2]), ("a", "b", "c"))

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcamo.core import (
    Dataset,
    DegenerateTrainingError,
    Feature,
    FeatureSchema,
    ValidationError,
)
from flowcamo.learners import (
    KINDS,
    DecisionTreeClassifier,
    KnnClassifier,
    RandomForestClassifier,
    Scaler,
    fit,
    load_model,
    save_model,
)
from flowcamo.learners import knn as knn_module
from flowcamo.learners import trees as trees_module


def toy_schema(k=4):
    return FeatureSchema(
        tuple(Feature(f"f{i}", "u", -100.0, 100.0, True) for i in range(k))
    )


def blob_dataset(n_classes=3, n_per=40, k=4, seed=0, sep=8.0):
    """Well-separated Gaussian blobs; every sane learner must ace these."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-40.0, 40.0, size=(n_classes, k))
    X = np.vstack([c + rng.normal(0, sep / 8.0, size=(n_per, k)) for c in centers])
    y = np.repeat(np.arange(n_classes), n_per)
    X = np.clip(X, -100.0, 100.0)
    return Dataset(toy_schema(k), X, y, tuple(f"c{i}" for i in range(n_classes)))


def knn_with_k(ds, k):
    """The knn recipe at another k. ``fit`` always uses 5 neighbours; the
    constructor takes any k, because an archive carries its own."""
    scaler = Scaler.fit(ds.X)
    return KnnClassifier(ds.schema, ds.class_labels, scaler, scaler.transform(ds.X),
                         ds.y.copy(), k)


@pytest.mark.parametrize("kind", KINDS)
class TestEveryKind:
    def test_fits_separable_blobs(self, kind):
        ds = blob_dataset(seed=1)
        model = fit(kind, ds, seed=0)
        acc = float(np.mean(model.predict_ids(ds.X) == ds.y))
        assert acc >= 0.95, f"{kind} training accuracy {acc}"

    def test_predict_matches_argmax_scores(self, kind):
        ds = blob_dataset(seed=2)
        model = fit(kind, ds, seed=0)
        rng = np.random.default_rng(3)
        X = rng.uniform(-100.0, 100.0, size=(200, 4))
        scores = model.predict_scores(X)
        np.testing.assert_array_equal(model.predict_ids(X), np.argmax(scores, axis=1))
        assert scores.shape == (200, ds.n_classes)

    def test_single_vector_predict(self, kind):
        """One row is predicted as a (1, K) batch. A scalar, a bare row and a
        stack of batches are refused with the shape named."""
        ds = blob_dataset(seed=4, k=28)
        model = fit(kind, ds, seed=0)
        np.testing.assert_array_equal(model.predict_ids(ds.X[:1]), model.predict_ids(ds.X)[:1])
        for bad in (ds.X[0, 0], ds.X[0], np.stack([ds.X[:28], ds.X[28:56]])):
            with pytest.raises(ValidationError, match=re.escape(f"got shape {bad.shape}")):
                model.predict_ids(bad)

    def test_save_load_round_trip(self, kind, tmp_path):
        ds = blob_dataset(seed=5)
        model = fit(kind, ds, seed=0)
        path = str(tmp_path / f"{kind}.npz")
        save_model(model, path)
        loaded = load_model(path)
        rng = np.random.default_rng(6)
        X = rng.uniform(-100.0, 100.0, size=(100, 4))
        np.testing.assert_array_equal(
            model.predict_scores(X), loaded.predict_scores(X)
        )
        assert loaded.schema.names == model.schema.names
        assert loaded.class_labels == model.class_labels

    def test_deterministic_given_seed(self, kind):
        ds = blob_dataset(seed=7)
        a = fit(kind, ds, seed=9)
        b = fit(kind, ds, seed=9)
        X = ds.X[:50]
        np.testing.assert_array_equal(a.predict_scores(X), b.predict_scores(X))

    def test_single_class_rejected(self, kind):
        ds = blob_dataset(seed=8)
        one = ds.take(np.flatnonzero(ds.y == 0))
        with pytest.raises(DegenerateTrainingError):
            fit(kind, one, seed=0)

    def test_out_of_range_input_rejected(self, kind):
        ds = blob_dataset(seed=9)
        model = fit(kind, ds, seed=0)
        with pytest.raises(ValidationError):
            model.predict_ids(np.full((1, 4), 1e6))


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError):
        fit("boosted_stump", blob_dataset(), seed=0)


class TestKnnOracle:
    def test_matches_brute_force_neighbors(self):
        """[DERIVED] compare against an independent O(n^2) majority vote."""
        ds = blob_dataset(n_classes=3, n_per=25, seed=10, sep=30.0)
        model = KnnClassifier.fit(ds)
        rng = np.random.default_rng(11)
        Q = rng.uniform(-60.0, 60.0, size=(50, 4))
        # Same standardization the model uses.
        Xs = model.scaler.transform(ds.X)
        Qs = model.scaler.transform(Q)
        expected = []
        for q in Qs:
            d = np.sqrt(((Xs - q) ** 2).sum(axis=1))
            nearest = np.argsort(d, kind="stable")[:5]
            votes = np.bincount(ds.y[nearest], minlength=ds.n_classes)
            expected.append(int(np.argmax(votes)))
        np.testing.assert_array_equal(model.predict_ids(Q), np.array(expected))


def padded_product(Q, train_X):
    """``Q @ train_X.T`` as ``predict_scores`` multiplies: the training side
    padded with zero rows to a multiple of 16, and a single query row sent
    twice, so BLAS computes every entry with its main matrix-matrix kernel."""
    m = train_X.shape[0]
    T = np.zeros((m + -m % 16, train_X.shape[1]))
    T[:m] = train_X
    return ((np.repeat(Q, 2, axis=0) if len(Q) == 1 else Q) @ T.T)[: len(Q), :m]


def stable_argsort_scores(model, X):
    """Reference vote: every query's distances from one product, a full
    stable argsort per row, then a bincount per row."""
    Xs = model.scaler.transform(X)
    d2 = (
        np.einsum("ij,ij->i", Xs, Xs)[:, None]
        - 2.0 * padded_product(Xs, model.train_X)
        + np.einsum("ij,ij->i", model.train_X, model.train_X)[None, :]
    )
    votes = model.train_y[np.argsort(d2, axis=1, kind="stable")[:, : model.k]]
    return np.array([np.bincount(v, minlength=model.n_classes) for v in votes]) / model.k


@st.composite
def knn_tie_cases(draw):
    """Small integer grids with duplicated training rows, so distances tie."""
    n_feat = draw(st.integers(1, 3))
    cell = st.integers(-2, 2).map(float)
    base = draw(st.lists(st.lists(cell, min_size=n_feat, max_size=n_feat),
                         min_size=1, max_size=12))
    reps = draw(st.lists(st.integers(1, 4), min_size=len(base), max_size=len(base)))
    X = np.repeat(np.array(base), reps, axis=0)
    if len(X) == 1:
        X = np.vstack([X, X + 1.0])
    X = X[draw(st.permutations(range(len(X))))]
    n_classes = draw(st.integers(2, 4))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1),
                               min_size=len(X), max_size=len(X))))
    y[:2] = [0, 1]  # fit needs two classes present
    k = draw(st.integers(1, len(X)))
    own = draw(st.lists(st.integers(0, len(X) - 1), max_size=8))
    fresh = draw(st.lists(st.lists(st.integers(-3, 3).map(float),
                                   min_size=n_feat, max_size=n_feat), max_size=8))
    Q = np.vstack([X[own], np.array(fresh).reshape(-1, n_feat)])
    if len(Q) == 0:
        Q = X[:1]
    chunk_rows = draw(st.integers(1, len(Q)))
    ds = Dataset(toy_schema(n_feat), X, y, tuple(f"c{i}" for i in range(n_classes)))
    return ds, k, Q, chunk_rows


class TestKnnTiePolicy:
    @settings(max_examples=200, deadline=None)
    @given(knn_tie_cases())
    def test_matches_stable_argsort_reference(self, case):
        ds, k, Q, chunk_rows = case
        model = knn_with_k(ds, k)
        with pytest.MonkeyPatch.context() as mp:
            # Several distance chunks per call.
            mp.setattr(knn_module, "DISTANCE_CHUNK_ELEMENTS", chunk_rows * len(ds))
            got = model.predict_scores(Q)
            want = stable_argsort_scores(model, Q)
        assert np.array_equal(got, want)
        np.testing.assert_allclose(got.sum(axis=1), 1.0)

    def test_ties_at_kth_distance_go_to_earlier_train_rows(self):
        # The last row is nearest to the query, rows 1-4 tie behind it and
        # row 0 is farthest.
        X = np.array([[2.0, 2.0]] + [[1.0, 1.0]] * 4 + [[0.0, 0.0]])
        y = np.array([1, 2, 0, 0, 1, 1])
        ds = Dataset(toy_schema(2), X, y, ("a", "b", "c"))
        q = np.zeros((1, 2))
        for k, want in ((1, [0.0, 1.0, 0.0]), (3, [1 / 3, 1 / 3, 1 / 3]), (5, [0.4, 0.4, 0.2])):
            scores = knn_with_k(ds, k).predict_scores(q)
            np.testing.assert_array_equal(scores, [want])


def reference_predict_scores(model, X, chunk_elements=2_000_000):
    """The chunked ``predict_scores`` the blocked one replaced: a fresh chunk
    of up to ``chunk_elements`` distances, and a fresh partition copy, per
    chunk of queries, each chunk multiplied as ``padded_product``."""
    X = model._check(X)
    Xs = model.scaler.transform(X)
    n, k = Xs.shape[0], model.k
    counts = np.zeros((n, model.n_classes), dtype=np.int64)
    chunk = max(1, chunk_elements // model.train_X.shape[0])
    tr_sq = np.einsum("ij,ij->i", model.train_X, model.train_X)
    for start in range(0, n, chunk):
        Q = Xs[start : start + chunk]
        d2 = -2.0 * padded_product(Q, model.train_X)
        d2 += np.einsum("ij,ij->i", Q, Q)[:, None]
        d2 += tr_sq
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
        rows, cols = np.divmod(np.flatnonzero(d2 <= kth), d2.shape[1])
        order = np.lexsort((cols, d2[rows, cols], rows))
        rows, cols = rows[order], cols[order]
        keep = np.arange(rows.size) - np.searchsorted(rows, rows) < k
        np.add.at(counts, (start + rows[keep], model.train_y[cols[keep]]), 1)
    return counts / k


def real_schema(n_feat):
    return FeatureSchema(
        tuple(Feature(f"f{i}", "u", -1000.0, 1000.0, True) for i in range(n_feat))
    )


def real_knn(rng, n_train, n_feat, n_classes=28, k=5):
    X = rng.uniform(-50.0, 50.0, size=(n_train, n_feat))
    y = np.arange(n_train) % n_classes
    ds = Dataset(real_schema(n_feat), X, y, tuple(f"c{i}" for i in range(n_classes)))
    return knn_with_k(ds, k)


@st.composite
def knn_real_cases(draw):
    """Real-valued training sets of up to 2000 rows and 1-28 features (the
    pool schema has 28), queried by up to 3000 rows.

    Half the cases keep the default block bound and query enough rows to
    fill several blocks, where the old 2,000,000 bound takes one chunk; the
    rest draw a bound of 2-6 rows per block. Half the training sets repeat
    rows exactly, so distances tie. Queries mix copies of training rows,
    near copies, midpoints of two training rows (equidistant from both, so
    rounding picks the nearer) and fresh points.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_feat = draw(st.integers(1, 28))
    block_rows = draw(st.one_of(st.none(), st.integers(2, 6)))
    m = draw(st.integers(2 if block_rows else 300, 2000))
    scales = rng.uniform(0.1, 50.0, size=n_feat)
    if draw(st.booleans()):
        base = rng.normal(size=(draw(st.integers(2, m)), n_feat)) * scales
        X = base[rng.integers(0, len(base), size=m)]
    else:
        X = rng.normal(size=(m, n_feat)) * scales
    n_classes = draw(st.integers(2, 6))
    y = rng.integers(0, n_classes, size=m)
    y[:2] = [0, 1]
    k = draw(st.integers(1, min(m, 25)))
    n = draw(st.integers(1 if block_rows else knn_module.DISTANCE_CHUNK_ELEMENTS // m + 1,
                         3000))
    own = X[rng.integers(0, m, size=n)]
    near = own + rng.normal(size=own.shape) * scales * 1e-3
    mid = (own + X[rng.integers(0, m, size=n)]) / 2
    fresh = rng.normal(size=own.shape) * scales
    Q = np.choose(rng.integers(0, 4, size=(n, 1)), [own, near, mid, fresh])
    ds = Dataset(real_schema(n_feat), np.clip(X, -999.0, 999.0), y,
                 tuple(f"c{i}" for i in range(n_classes)))
    return ds, k, np.clip(Q, -999.0, 999.0), block_rows


class TestKnnWidth:
    """Batch independence holds only under 32 features, so wider knns are
    rejected (``test_io`` covers a 32-feature archive)."""

    def test_31_features_accepted(self, tmp_path):
        model = real_knn(np.random.default_rng(0), 40, 31)
        path = str(tmp_path / "knn.npz")
        save_model(model, path)
        assert load_model(path).train_X.shape == (40, 31)

    def test_32_features_rejected(self):
        with pytest.raises(ValidationError, match="knn takes at most 31 features, got 32"):
            real_knn(np.random.default_rng(0), 40, 32)


class TestKnnBlocks:
    @settings(max_examples=60, deadline=None)
    @given(knn_real_cases())
    def test_scores_bit_equal_to_the_chunked_reference(self, case):
        ds, k, Q, block_rows = case
        model = knn_with_k(ds, k)
        want = reference_predict_scores(model, Q)
        with pytest.MonkeyPatch.context() as mp:
            if block_rows is not None:
                mp.setattr(knn_module, "DISTANCE_CHUNK_ELEMENTS", block_rows * len(ds))
            got = model.predict_scores(Q)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 145, 146, 147, 148, 292, 293, 3136])
    def test_benchmark_shape_bit_equal(self, n):
        """1,792 training rows of 24 features, as an extract-knn target:
        146-row blocks, so 147 and 293 queries fold a one-row tail. 1,792 is
        a multiple of 16, so no column is padded and a multi-row call has
        the unpadded product's bits."""
        rng = np.random.default_rng(n)
        model = real_knn(rng, 1792, 24)
        assert model._neg2_train_T.shape == (24, 1792)
        Q = rng.uniform(-60.0, 60.0, size=(n, 24))
        Q[: n // 2] = model.scaler.mean + model.train_X[: n // 2] * model.scaler.scale
        assert model.predict_scores(Q).tobytes() == reference_predict_scores(model, Q).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(knn_real_cases(), st.data())
    def test_scores_do_not_depend_on_the_other_queries(self, case, data):
        """A query's scores have the same bits alone, among any other
        queries and at any block height."""
        ds, k, Q, block_rows = case
        model = knn_with_k(ds, k)
        full = model.predict_scores(Q)
        pick = np.array(data.draw(st.lists(st.integers(0, len(Q) - 1), min_size=1,
                                           max_size=40)))
        with pytest.MonkeyPatch.context() as mp:
            if block_rows is not None:
                mp.setattr(knn_module, "DISTANCE_CHUNK_ELEMENTS", block_rows * len(ds))
            some = model.predict_scores(Q[pick])
            alone = model.predict_scores(Q[pick[:1]])
        assert some.tobytes() == full[pick].tobytes()
        assert alone.tobytes() == full[pick[:1]].tobytes()

    def test_single_query_scores_as_in_a_batch(self):
        """Midpoints of two training rows of different classes, k = 1:
        rounding picks the nearer row, so a single query multiplied on the
        matrix-vector path would flip some of them."""
        rng = np.random.default_rng(8)
        model = real_knn(rng, 501, 13, n_classes=5, k=1)
        i, j = rng.integers(0, 501, size=(2, 200))
        Q = model.scaler.mean + (model.train_X[i] + model.train_X[j]) / 2 * model.scaler.scale
        full = model.predict_scores(Q)
        alone = np.vstack([model.predict_scores(q[None]) for q in Q])
        assert alone.tobytes() == full.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 60), st.integers(2, 8))
    def test_blocks_cover_the_queries_without_a_one_row_block(self, n, rows):
        blocks = knn_module._blocks(n, rows)
        assert [start for start, _ in blocks] == [0, *[stop for _, stop in blocks[:-1]]][
            : len(blocks)]
        assert (blocks[-1][1] if blocks else 0) == n
        sizes = [stop - start for start, stop in blocks]
        assert all(s == rows for s in sizes[:-1])
        assert sizes == [1] if n == 1 else all(2 <= s <= rows + 1 for s in sizes)

    def test_blocks_hold_two_rows_when_the_bound_allows_one(self):
        model = real_knn(np.random.default_rng(5), 40, 3)
        seen, blocks = [], knn_module._blocks

        def spy(n, rows):
            seen.append(rows)
            return blocks(n, rows)

        Q = np.random.default_rng(6).uniform(-60.0, 60.0, size=(7, 3))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(knn_module, "DISTANCE_CHUNK_ELEMENTS", len(model.train_y))
            mp.setattr(knn_module, "_blocks", spy)
            got = model.predict_scores(Q)
        assert seen == [2]
        assert got.tobytes() == reference_predict_scores(model, Q).tobytes()

    def test_working_set_stays_a_few_blocks(self):
        """3,136 queries against a 1,792-row target: one 2 MiB distance block,
        its partition scratch and mask, not a 16 MB chunk and its copy."""
        rng = np.random.default_rng(3)
        model = real_knn(rng, 1792, 24)
        Q = rng.uniform(-60.0, 60.0, size=(3136, 24))
        model.predict_scores(Q[:8])
        tracemalloc.start()
        try:
            model.predict_scores(Q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_distance_terms_are_read_only(self):
        model = real_knn(np.random.default_rng(4), 64, 3)
        with pytest.raises(ValueError):
            model._train_sq[0] = 0.0
        with pytest.raises(ValueError):
            model._neg2_train_T[0, 0] = 0.0


class TestKnnArchiveValidation:
    @pytest.mark.parametrize(
        "tamper",
        [
            lambda a: a.update(k=np.asarray(0)),
            lambda a: a.update(k=np.asarray(len(a["train_y"]) + 1)),
            lambda a: a.update(train_y=a["train_y"][:-1]),
            lambda a: a.update(train_y=np.where(np.arange(len(a["train_y"])) == 0,
                                                len(a["class_labels"]), a["train_y"])),
            lambda a: a.update(train_y=a["train_y"] - 1),
            lambda a: a.update(train_X=a["train_X"][:, :-1]),
            lambda a: a.update(scaler_mean=a["scaler_mean"][:-1]),
        ],
        ids=["k_zero", "k_above_rows", "row_mismatch", "class_above_range", "negative_class",
             "train_X_narrow", "scaler_short"],
    )
    def test_tampered_archive_rejected(self, tamper, tmp_path):
        path = str(tmp_path / "knn.npz")
        save_model(KnnClassifier.fit(blob_dataset(seed=15)), path)
        with np.load(path) as data:
            arrays = dict(data)
        tamper(arrays)
        np.savez(path, **arrays)
        with pytest.raises(ValidationError):
            load_model(path)


class TestTreePurity:
    def test_pure_leaves_on_disjoint_intervals(self):
        """[DERIVED] axis-separable data must be memorized exactly."""
        X = np.array([[float(v), 0.0, 0.0, 0.0] for v in range(-20, 20)])
        y = (X[:, 0] >= 0).astype(int)
        ds = Dataset(toy_schema(), X, y, ("neg", "pos"))
        model = fit("decision_tree", ds, seed=0)
        np.testing.assert_array_equal(model.predict_ids(X), y)

    def test_forest_majority_beats_stump_noise(self):
        ds = blob_dataset(n_classes=4, n_per=50, seed=12)
        model = fit("random_forest", ds, seed=0)
        assert float(np.mean(model.predict_ids(ds.X) == ds.y)) >= 0.98


@st.composite
def tree_tie_cases(draw):
    """Small integer grids, so split gains and feature values tie often."""
    n_feat = draw(st.integers(1, 4))
    cell = st.integers(-3, 3).map(float)
    rows = draw(st.lists(st.lists(cell, min_size=n_feat, max_size=n_feat),
                         min_size=2, max_size=30))
    n_classes = draw(st.integers(2, 4))
    y = np.array(draw(st.lists(st.integers(0, n_classes - 1),
                               min_size=len(rows), max_size=len(rows))))
    y[:2] = [0, 1]  # fit needs two classes present
    labels = tuple(f"c{i}" for i in range(n_classes))
    return np.array(rows), y, labels, draw(st.permutations(range(len(rows))))


def _arrays_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        np.asarray(a[k]).dtype == np.asarray(b[k]).dtype
        and np.asarray(a[k]).tobytes() == np.asarray(b[k]).tobytes() for k in a
    )


class TestTreeTieDeterminism:
    @settings(max_examples=100, deadline=None)
    @given(tree_tie_cases())
    def test_row_order_does_not_change_the_tree(self, case):
        X, y, labels, perm = case
        k = X.shape[1]
        a = DecisionTreeClassifier.fit(Dataset(toy_schema(k), X, y, labels))
        b = DecisionTreeClassifier.fit(Dataset(toy_schema(k), X[perm], y[perm], labels))
        assert _arrays_equal(a.to_arrays(), b.to_arrays())

    @settings(max_examples=100, deadline=None)
    @given(tree_tie_cases(), st.data())
    def test_never_splits_on_a_later_duplicate_column(self, case, data):
        X, y, labels, _ = case
        k = X.shape[1]
        col = data.draw(st.integers(0, k - 1))
        at = data.draw(st.integers(col + 1, k))
        X2 = np.insert(X, at, X[:, col], axis=1)
        model = DecisionTreeClassifier.fit(Dataset(toy_schema(k + 1), X2, y, labels))
        assert at not in model.tree.feature.tolist()

    @settings(max_examples=40, deadline=None)
    @given(tree_tie_cases(), st.integers(0, 2**16))
    def test_forest_is_bit_equal_for_one_seed(self, case, seed):
        X, y, labels, _ = case
        ds = Dataset(toy_schema(X.shape[1]), X, y, labels)
        a = RandomForestClassifier.fit(ds, seed=seed)
        b = RandomForestClassifier.fit(ds, seed=seed)
        assert _arrays_equal(a.to_arrays(), b.to_arrays())


def _reference_best_split(X, y, n_classes, feat_candidates):
    """The per-feature split search the batched one replaced, kept verbatim."""
    n = y.size
    total = np.bincount(y, minlength=n_classes).astype(float)
    gini_parent = 1.0 - np.sum((total / n) ** 2)
    best_gain = trees_module._MIN_GAIN
    best = None
    for f in feat_candidates:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        cut = np.flatnonzero(xs[:-1] < xs[1:])
        if cut.size == 0:
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y[order]] = 1.0
        cum = np.cumsum(onehot, axis=0)
        nl = (cut + 1).astype(float)
        nr = n - nl
        left_counts = cum[cut]
        right_counts = total[None, :] - left_counts
        gini_l = 1.0 - np.sum((left_counts / nl[:, None]) ** 2, axis=1)
        gini_r = 1.0 - np.sum((right_counts / nr[:, None]) ** 2, axis=1)
        gain = gini_parent - (nl * gini_l + nr * gini_r) / n
        i = int(np.argmax(gain))  # first max -> lowest threshold
        if gain[i] > best_gain:
            best_gain = gain[i]
            thresh = 0.5 * (xs[cut[i]] + xs[cut[i] + 1])
            best = (int(f), float(thresh))
    return best


def _batched_split(X, y, n_classes, cand):
    return trees_module._best_split(np.ascontiguousarray(X[:, cand].T), y, n_classes, cand)


@st.composite
def split_nodes(draw):
    """A node as build_tree sees it: tie-prone values, repeated rows, a column subset.

    Small integer grids give many cuts of equal exact gain in different
    features, whose float gains then differ in the last bits.
    """
    n_classes = draw(st.integers(2, 28))
    k = draw(st.integers(1, 10))
    n = draw(st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(st.sampled_from(["integer", "integer", "binary", "float", "distinct"]))
    if values == "integer":
        X = rng.integers(-3, 4, size=(n, k)).astype(float)
    elif values == "binary":
        X = rng.integers(0, 2, size=(n, k)).astype(float)
    elif values == "float":
        X = rng.uniform(-100.0, 100.0, size=(n, k))
    else:
        X = np.tile(np.arange(n, dtype=float)[:, None], (1, k))
    y = rng.integers(0, n_classes, size=n)
    for _ in range(draw(st.integers(0, 2))):  # duplicated columns
        X[:, rng.integers(k)] = X[:, rng.integers(k)]
    if draw(st.booleans()):  # a bootstrap sample: rows repeat
        boot = rng.integers(0, n, size=n)
        X, y = X[boot], y[boot]
    mtry = draw(st.integers(1, k))
    cand = np.sort(rng.choice(k, size=mtry, replace=False))
    return X, y, n_classes, cand


def _equal_gain_node():
    """Two binary features whose cuts have the same exact Gini gain.

    Feature 0 cuts 6 | 6 rows, feature 1 cuts 9 | 3; the integer-statistics
    scores of the two differ in the last bit, their float gains do not, so
    the lower feature must win.
    """
    y = np.array([0, 0, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8])
    f0 = np.isin(np.arange(12), [2, 3, 5, 9, 10, 11]).astype(float)
    f1 = (np.arange(12) >= 9).astype(float)
    return np.stack([f0, f1], axis=1), y, 9, np.arange(2)


def _one_row_per_class_node():
    """Every cut has the same exact gain; the float gains alone tell them apart."""
    return np.arange(10, dtype=float)[:, None], np.arange(10), 10, np.arange(1)


class TestBatchedSplitSearch:
    @settings(max_examples=400, deadline=None)
    @given(split_nodes())
    @example(_equal_gain_node())
    @example(_one_row_per_class_node())
    def test_matches_the_per_feature_search(self, node):
        X, y, n_classes, cand = node
        assert _batched_split(X, y, n_classes, cand) == _reference_best_split(
            X, y, n_classes, cand)

    @settings(max_examples=30, deadline=None)
    @given(tree_tie_cases(), st.integers(0, 2**16))
    def test_forest_equals_one_grown_with_the_reference_search(self, case, seed):
        X, y, labels, _ = case
        ds = Dataset(toy_schema(X.shape[1]), X, y, labels)
        batched = RandomForestClassifier.fit(ds, seed=seed)

        def reference(cols, ys, n_classes, features):
            best = _reference_best_split(cols.T, ys, n_classes, range(len(features)))
            return None if best is None else (int(features[best[0]]), best[1])

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trees_module, "_best_split", reference)
            old = RandomForestClassifier.fit(ds, seed=seed)
        assert _arrays_equal(batched.to_arrays(), old.to_arrays())


class TestSvmLinearity:
    def test_predictions_match_margin_oracle(self):
        """[DERIVED] recompute the one-vs-rest margins from W, b by hand."""
        ds = blob_dataset(seed=13)
        model = fit("svm", ds, seed=0)
        rng = np.random.default_rng(14)
        X = rng.uniform(-50.0, 50.0, size=(200, 4))
        margins = model.scaler.transform(X) @ model.W.T + model.b
        # The model squashes margins through a logit-clipped sigmoid; clip
        # the oracle the same way so saturation ties break identically.
        np.testing.assert_array_equal(
            model.predict_ids(X), np.argmax(np.clip(margins, -30.0, 30.0), axis=1)
        )

import numpy as np
import pytest
from hypothesis import given, settings
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
    KnnClassifier,
    fit,
    load_model,
    save_model,
)
from flowcamo.learners import knn as knn_module


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
        ds = blob_dataset(seed=4)
        model = fit(kind, ds, seed=0)
        dc = model.predict(ds.X[0])
        assert dc.label == ds.class_labels[dc.id]

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
        model = KnnClassifier.fit(ds, k=5)
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


def stable_argsort_scores(model, X):
    """Reference vote: full stable argsort per chunk, then bincount per row."""
    Xs = model.scaler.transform(X)
    n = Xs.shape[0]
    scores = np.empty((n, model.n_classes))
    chunk = max(1, int(knn_module.DISTANCE_CHUNK_ELEMENTS // max(1, model.train_X.shape[0])))
    tr_sq = np.einsum("ij,ij->i", model.train_X, model.train_X)
    for start in range(0, n, chunk):
        Q = Xs[start : start + chunk]
        d2 = (
            np.einsum("ij,ij->i", Q, Q)[:, None]
            - 2.0 * Q @ model.train_X.T
            + tr_sq[None, :]
        )
        nn = np.argsort(d2, axis=1, kind="stable")[:, : model.k]
        votes = model.train_y[nn]
        for j in range(Q.shape[0]):
            scores[start + j] = np.bincount(votes[j], minlength=model.n_classes) / model.k
    return scores


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
        model = KnnClassifier.fit(ds, k=k)
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
            scores = KnnClassifier.fit(ds, k=k).predict_scores(q)
            np.testing.assert_array_equal(scores, [want])


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
        ],
        ids=["k_zero", "k_above_rows", "row_mismatch", "class_above_range", "negative_class"],
    )
    def test_tampered_archive_rejected(self, tamper, tmp_path):
        path = str(tmp_path / "knn.npz")
        save_model(KnnClassifier.fit(blob_dataset(seed=15), k=5), path)
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

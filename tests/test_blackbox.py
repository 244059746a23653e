import re

import numpy as np
import pytest

from flowcamo.blackbox import Oracle, make_oracle
from flowcamo.core import Dataset, ValidationError
from flowcamo.learners import fit


@pytest.fixture(scope="module")
def oracle_setup(small_split, target_schema, pool_schema):
    train_pool, test_pool = small_split
    model = fit("decision_tree", train_pool.project(target_schema), seed=0)
    return make_oracle(model, pool_schema), model, train_pool


class TestOracleSurface:
    def test_public_surface_is_collect_and_log_only(self, oracle_setup):
        """The attacker-facing object exposes exactly {collect, query_log};
        no weights, scores, or training internals leak."""
        oracle, _, _ = oracle_setup
        public = {n for n in dir(oracle) if not n.startswith("_")}
        assert public == {"collect", "query_log"}

    def test_one_row_batch_label_matches_target(self, oracle_setup, pool_schema):
        """A single row goes in as a (1, K) batch and comes back as one label."""
        oracle, model, train_pool = oracle_setup
        corpus = oracle.collect(train_pool.X[:1])
        cols = pool_schema.projection_onto(model.schema)
        assert corpus.y.shape == (1,)
        assert corpus.y[0] == model.predict_ids(train_pool.X[:1, cols])[0]

    def test_labels_match_target_on_projected_columns(self, oracle_setup, pool_schema):
        oracle, model, train_pool = oracle_setup
        corpus = oracle.collect(train_pool.X[:100])
        cols = pool_schema.projection_onto(model.schema)
        np.testing.assert_array_equal(
            corpus.y, model.predict_ids(train_pool.X[:100][:, cols])
        )
        assert corpus.schema.names == pool_schema.names

    def test_query_log_counts_rows(self, small_split, target_schema, pool_schema):
        train_pool, _ = small_split
        model = fit("decision_tree", train_pool.project(target_schema), seed=0)
        oracle = make_oracle(model, pool_schema)
        assert oracle.query_log == 0
        oracle.collect(train_pool.X[:1])
        oracle.collect(train_pool.X[:25])
        assert oracle.query_log == 26

    def test_decoy_columns_ignored(self, oracle_setup, pool_schema):
        """Decoy features exist only in the attacker pool; flipping them
        cannot change the oracle's answer."""
        oracle, _, train_pool = oracle_setup
        X = np.array(train_pool.X[:50])
        decoys = [i for i, n in enumerate(pool_schema.names) if n.startswith("decoy_")]
        assert decoys
        before = oracle.collect(X).y
        X2 = X.copy()
        X2[:, decoys] = 999.0
        np.testing.assert_array_equal(before, oracle.collect(X2).y)

    def test_out_of_range_query_rejected(self, oracle_setup, pool_schema):
        oracle, _, _ = oracle_setup
        before = oracle.query_log
        with pytest.raises(ValidationError, match="out of range"):
            oracle.collect(np.full((1, len(pool_schema)), -1e9))
        assert oracle.query_log == before

    @pytest.mark.parametrize("shape", [(), (28,), (2, 28, 28)])
    def test_non_batch_traffic_rejected(self, oracle_setup, pool_schema, shape):
        """A scalar, a bare row and a stack of batches are refused with the
        shape named, and cost no query."""
        oracle, _, train_pool = oracle_setup
        assert len(pool_schema) == 28
        traffic = np.resize(train_pool.X, shape)  # X's own values, so all in range
        before = oracle.query_log
        with pytest.raises(ValidationError, match=re.escape(f"row batch, got shape {shape}")):
            oracle.collect(traffic)
        assert oracle.query_log == before


class TestCorpus:
    def test_corpus_validates_alignment(self, pool_schema, small_dataset):
        with pytest.raises(ValidationError):
            Dataset(pool_schema, small_dataset.X[:5], np.zeros(4, dtype=int), ("a", "b"))

    def test_corpus_len_and_classes(self, oracle_setup):
        oracle, _, train_pool = oracle_setup
        corpus = oracle.collect(train_pool.X[:40])
        assert isinstance(corpus, Dataset)
        assert len(corpus) == 40
        assert corpus.n_classes == len(train_pool.class_labels)

    def test_collect_leaves_caller_array_writeable(self, oracle_setup):
        oracle, _, train_pool = oracle_setup
        X = train_pool.X[:40].copy()
        corpus = oracle.collect(X)
        assert X.flags.writeable
        assert not corpus.X.flags.writeable and not corpus.y.flags.writeable
        X[:] = train_pool.X[40:80]
        np.testing.assert_array_equal(corpus.X, train_pool.X[:40])

    def test_corpus_copies_writeable_labels(self, pool_schema, small_dataset):
        X, y = small_dataset.X[:5].copy(), np.zeros(5, dtype=int)
        corpus = Dataset(pool_schema, X, y, ("a", "b"))
        assert X.flags.writeable and y.flags.writeable
        y[:] = 1
        np.testing.assert_array_equal(corpus.y, np.zeros(5, dtype=int))

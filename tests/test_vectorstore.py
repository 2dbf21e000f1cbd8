"""Tests for the vector store, filters, and indexes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.documents import Document
from repro.embeddings import HashingEmbedding
from repro.errors import VectorStoreError
from repro.vectorstore import BruteForceIndex, IVFIndex, VectorStore, matches_where

DOCS = [
    Document(text="GMRES handles nonsymmetric systems", metadata={"doc_type": "manual_page", "n": 1}),
    Document(text="CG requires symmetric positive definite operators", metadata={"doc_type": "manual_page", "n": 2}),
    Document(text="Preallocation accelerates matrix assembly", metadata={"doc_type": "faq", "n": 3}),
    Document(text="Chebyshev avoids global reductions entirely", metadata={"doc_type": "tutorial", "n": 4}),
]


@pytest.fixture()
def small_store():
    return VectorStore.from_documents(DOCS, HashingEmbedding(dim=128))


class TestWhereFilters:
    def test_implicit_eq(self):
        assert matches_where({"a": 1}, {"a": 1})
        assert not matches_where({"a": 1}, {"a": 2})

    def test_none_matches_all(self):
        assert matches_where({}, None)

    @pytest.mark.parametrize(
        "cond,value,expected",
        [
            ({"$eq": 3}, 3, True),
            ({"$ne": 3}, 4, True),
            ({"$gt": 2}, 3, True),
            ({"$gte": 3}, 3, True),
            ({"$lt": 2}, 3, False),
            ({"$lte": 3}, 3, True),
            ({"$in": [1, 2]}, 2, True),
            ({"$nin": [1, 2]}, 3, True),
            ({"$contains": "KSP"}, "see KSPSolve", True),
        ],
    )
    def test_operators(self, cond, value, expected):
        assert matches_where({"k": value}, {"k": cond}) is expected

    def test_missing_key_comparisons(self):
        assert not matches_where({}, {"k": {"$gt": 1}})

    def test_logical_and_or_not(self):
        md = {"a": 1, "b": 2}
        assert matches_where(md, {"$and": [{"a": 1}, {"b": 2}]})
        assert matches_where(md, {"$or": [{"a": 9}, {"b": 2}]})
        assert matches_where(md, {"$not": {"a": 9}})
        assert not matches_where(md, {"$not": {"a": 1}})

    def test_unknown_operator(self):
        with pytest.raises(VectorStoreError):
            matches_where({"a": 1}, {"a": {"$weird": 1}})
        with pytest.raises(VectorStoreError):
            matches_where({"a": 1}, {"$xor": []})


class TestBruteForceIndex:
    def test_add_and_search(self):
        idx = BruteForceIndex(4, initial_capacity=2)
        vecs = np.eye(4, dtype=np.float32)
        idx.add(vecs)
        assert idx.size == 4
        found, scores = idx.search(np.array([1, 0, 0, 0], dtype=np.float32), 2)
        assert found[0] == 0
        assert scores[0] == pytest.approx(1.0)

    def test_growth_preserves_data(self):
        idx = BruteForceIndex(3, initial_capacity=1)
        for i in range(10):
            v = np.zeros(3, dtype=np.float32)
            v[i % 3] = 1.0
            idx.add(v)
        assert idx.size == 10

    def test_dim_mismatch(self):
        idx = BruteForceIndex(4)
        with pytest.raises(VectorStoreError):
            idx.add(np.ones((1, 3), dtype=np.float32))
        with pytest.raises(VectorStoreError):
            idx.search(np.ones(3, dtype=np.float32), 1)

    def test_empty_search(self):
        idx = BruteForceIndex(4)
        found, scores = idx.search(np.ones(4, dtype=np.float32), 3)
        assert len(found) == 0

    def test_matrix_view_readonly(self):
        idx = BruteForceIndex(2)
        idx.add(np.ones((1, 2), dtype=np.float32))
        with pytest.raises(ValueError):
            idx.matrix[0, 0] = 5.0


class TestIVFIndex:
    def _vectors(self, n=200, dim=16, seed=3):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n, dim)).astype(np.float32)
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    def test_train_and_search(self):
        vecs = self._vectors()
        idx = IVFIndex(16, n_clusters=8, nprobe=8)
        idx.add(vecs)
        idx.train()
        found, _ = idx.search(vecs[17], 1)
        assert found[0] == 17  # full probe = exact

    def test_lazy_training_on_search(self):
        vecs = self._vectors(50)
        idx = IVFIndex(16, n_clusters=4)
        idx.add(vecs)
        assert not idx.is_trained
        idx.search(vecs[0], 1)
        assert idx.is_trained

    def test_add_after_train_rejected(self):
        vecs = self._vectors(20)
        idx = IVFIndex(16, n_clusters=2)
        idx.add(vecs)
        idx.train()
        with pytest.raises(VectorStoreError):
            idx.add(vecs)

    def test_recall_vs_bruteforce(self):
        vecs = self._vectors(400)
        bf = BruteForceIndex(16)
        bf.add(vecs)
        ivf = IVFIndex(16, n_clusters=16, nprobe=6)
        ivf.add(vecs)
        ivf.train()
        rng = np.random.default_rng(5)
        hits = 0
        trials = 25
        for _ in range(trials):
            q = rng.standard_normal(16).astype(np.float32)
            q /= np.linalg.norm(q)
            exact, _ = bf.search(q, 5)
            approx, _ = ivf.search(q, 5)
            hits += len(set(exact.tolist()) & set(approx.tolist()))
        recall = hits / (trials * 5)
        assert recall >= 0.5  # approximate but not useless

    def test_train_empty_raises(self):
        with pytest.raises(VectorStoreError):
            IVFIndex(4).train()


class TestVectorStore:
    def test_from_documents_and_len(self, small_store):
        assert len(small_store) == 4

    def test_similarity_search_relevance(self, small_store):
        hits = small_store.similarity_search("symmetric positive definite CG", k=1)
        assert "CG" in hits[0].text

    def test_with_score_ordering(self, small_store):
        hits = small_store.similarity_search_with_score("matrix assembly preallocation", k=4)
        scores = [s for _, s in hits]
        assert scores == sorted(scores, reverse=True)

    def test_where_filter(self, small_store):
        hits = small_store.similarity_search("matrix", k=4, where={"doc_type": "faq"})
        assert all(h.metadata["doc_type"] == "faq" for h in hits)

    def test_duplicate_insert_skipped(self, small_store):
        store = VectorStore.from_documents(DOCS + [DOCS[0]], HashingEmbedding(dim=128))
        assert len(store) == 4
        assert np.array_equal(store.index.matrix, small_store.index.matrix)
        hits = store.similarity_search("GMRES nonsymmetric", k=5)
        assert [h.doc_id for h in hits].count(DOCS[0].doc_id) == 1

    def test_get(self, small_store):
        doc = small_store.get(DOCS[0].doc_id)
        assert doc.text == DOCS[0].text
        with pytest.raises(VectorStoreError):
            small_store.get("nope")

    def test_k_zero(self, small_store):
        assert small_store.similarity_search("x", k=0) == []

    def test_mmr_diversifies(self):
        near_dupes = [
            Document(text="GMRES restart memory tradeoff", metadata={"i": i})
            for i in range(3)
        ] + [Document(text="conjugate gradient symmetric", metadata={"i": 9})]
        store = VectorStore.from_documents(near_dupes, HashingEmbedding(dim=128))
        # near-dupes share doc_id? texts identical → same id; make unique
        assert len(store) == 2  # identical texts+no source dedupe to one
        out = store.max_marginal_relevance_search("GMRES restart", k=2, lambda_mult=0.5)
        assert len(out) == 2

    def test_mmr_invalid_lambda(self, small_store):
        with pytest.raises(VectorStoreError):
            small_store.max_marginal_relevance_search("x", lambda_mult=1.5)

    def test_persistence_roundtrip(self, tmp_path, small_store):
        d = small_store.save(tmp_path / "db")
        emb = HashingEmbedding(dim=128)
        loaded = VectorStore.load(d, emb)
        assert len(loaded) == len(small_store)
        a = small_store.similarity_search("assembly", k=2)
        b = loaded.similarity_search("assembly", k=2)
        assert [x.doc_id for x in a] == [x.doc_id for x in b]

    def test_load_wrong_model_rejected(self, tmp_path, small_store):
        d = small_store.save(tmp_path / "db")
        other = HashingEmbedding(dim=128, name="other-model")
        with pytest.raises(VectorStoreError):
            VectorStore.load(d, other)

    def test_load_wrong_dim_rejected(self, tmp_path, small_store):
        d = small_store.save(tmp_path / "db")
        # Same registry name but different dim.
        other = HashingEmbedding(dim=64, name=small_store.embedding.name)
        with pytest.raises(VectorStoreError):
            VectorStore.load(d, other)

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_k_bounded_by_store(self, k):
        store = VectorStore.from_documents(DOCS, HashingEmbedding(dim=64))
        hits = store.similarity_search("matrix", k=k)
        assert len(hits) <= min(k, len(DOCS))

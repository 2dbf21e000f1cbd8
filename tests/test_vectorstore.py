"""Tests for the vector store and its filters.

The IVF ablation arm is not served by ``src/repro``; its tests live
beside it in ``benchmarks/test_arms.py`` and are collected here too.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.documents import Document
from repro.embeddings import HashingEmbedding
from repro.errors import VectorStoreError
from repro.vectorstore import ShardedVectorStore, VectorStore, matches_where

from benchmarks.test_arms import TestIVFIndex  # noqa: F401  (collected here)

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


def _store(vectors: np.ndarray) -> VectorStore:
    """A store over ``vectors`` as given, one distinct document per row."""
    docs = [Document(text=f"row {i}", metadata={"n": i}) for i in range(len(vectors))]
    emb = HashingEmbedding(dim=vectors.shape[1])
    return VectorStore.from_precomputed(docs, vectors, emb)


def _rows(store: VectorStore, query, k: int) -> list[int]:
    hits = store.similarity_search_by_vector_with_score(np.asarray(query, np.float32), k=k)
    return [doc.metadata["n"] for doc, _ in hits]


DIM = 8  # the smallest dimension a hashing model accepts
E = np.eye(DIM, dtype=np.float32)


class TestBruteForceIndex:
    """The exact scan a store runs over its own ``matrix``."""

    def test_add_and_search(self):
        store = _store(E)
        assert store.matrix.shape == (DIM, DIM)
        (doc, score), _second = store.similarity_search_by_vector_with_score(E[0], k=2)
        assert doc.metadata["n"] == 0
        assert score == pytest.approx(1.0)

    def test_growth_preserves_data(self):
        # More rows than any fixed preallocation: every row is kept, in order.
        vecs = np.random.default_rng(0).standard_normal((1500, DIM)).astype(np.float32)
        store = _store(vecs)
        assert store.matrix.dtype == np.float32 and store.matrix.flags.c_contiguous
        assert np.array_equal(store.matrix, vecs)
        assert len(store) == 1500

    def test_dim_mismatch(self):
        with pytest.raises(VectorStoreError):
            VectorStore.from_precomputed(
                DOCS[:1], np.ones((1, 3), dtype=np.float32), HashingEmbedding(dim=DIM)
            )
        with pytest.raises(VectorStoreError, match="query dim 3"):
            _store(E).similarity_search_by_vector_with_score(np.ones(3, dtype=np.float32), k=1)

    def test_dim_mismatch_composite(self):
        # The walk catches a copy's VectorStoreError as a dark shard, so
        # the composite checks the query's dimension before it scatters.
        store = _store(E)
        composite = ShardedVectorStore([store], store.embedding)
        with pytest.raises(VectorStoreError, match="query dim 3"):
            composite.similarity_search_by_vector_with_score(np.ones(3, dtype=np.float32), k=1)

    def test_empty_search(self):
        store = VectorStore.from_documents([], HashingEmbedding(dim=DIM))
        assert store.matrix.shape == (0, DIM)
        assert store.similarity_search_by_vector_with_score(E[0], k=3) == []
        assert store.similarity_search("anything", k=3) == []

    def test_matrix_view_readonly(self):
        store = _store(E)
        assert store.matrix.flags.writeable is False
        with pytest.raises(ValueError):
            store.matrix[0, 0] = 5.0

    def test_matrix_is_the_stores_own_copy(self):
        vecs = E.copy()
        store = _store(vecs)
        before = _rows(store, E[2], DIM)
        vecs[:] = E[0]  # the caller scribbles over the array it passed in
        assert _rows(store, E[2], DIM) == before
        assert np.array_equal(store.matrix, E)

    def test_ties_break_by_doc_id(self):
        # Six identical rows: every score ties, so the cut takes the
        # lowest doc ids — the composite store's order, not row order.
        store = _store(np.tile(E[0], (6, 1)))
        by_id = sorted(store._docs, key=lambda doc: doc.doc_id)
        assert _rows(store, E[0], 4) == [doc.metadata["n"] for doc in by_id[:4]]

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=12))
    @settings(max_examples=25, deadline=None)
    def test_top_k_is_a_prefix_of_top_k_plus_one(self, seed, k):
        # Scores drawn from three values, so ties straddle most cuts.
        levels = np.random.default_rng(seed).choice([0.25, 0.5, 1.0], size=10)
        store = _store(np.outer(levels, E[0]).astype(np.float32))
        small, big = _rows(store, E[0], k), _rows(store, E[0], k + 1)
        assert big[: len(small)] == small
        assert len(small) == min(k, 10)  # k > n returns every row once

    def test_save_load_roundtrip_keeps_the_matrix(self, tmp_path):
        vecs = np.random.default_rng(1).standard_normal((7, DIM)).astype(np.float32)
        store = _store(vecs)
        loaded = VectorStore.load(store.save(tmp_path / "db"), store.embedding)
        assert loaded.matrix.dtype == np.float32
        assert np.array_equal(loaded.matrix, store.matrix)
        assert loaded.matrix.flags.writeable is False
        assert [d.doc_id for d in loaded._docs] == [d.doc_id for d in store._docs]


def _corrupt_manifest_json(d):
    (d / "manifest.json").write_text("{not json")


def _corrupt_manifest_keys(d):
    (d / "manifest.json").write_text('{"count": 4}')


def _corrupt_document_row(d):
    (d / "documents.jsonl").write_text('{"text": "no metadata key"}\n' * 4)


def _corrupt_vectors(d):
    payload = (d / "vectors.npz").read_bytes()
    (d / "vectors.npz").write_bytes(payload[: len(payload) // 2])


CORRUPTIONS = [
    _corrupt_manifest_json,
    _corrupt_manifest_keys,
    _corrupt_document_row,
    _corrupt_vectors,
]


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
        assert np.array_equal(store.matrix, small_store.matrix)
        hits = store.similarity_search("GMRES nonsymmetric", k=5)
        assert [h.doc_id for h in hits].count(DOCS[0].doc_id) == 1

    def test_get(self, small_store):
        doc = small_store.get(DOCS[0].doc_id)
        assert doc.text == DOCS[0].text
        with pytest.raises(VectorStoreError):
            small_store.get("nope")

    def test_k_zero(self, small_store):
        assert small_store.similarity_search("x", k=0) == []

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

    @pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=lambda fn: fn.__name__)
    def test_load_of_a_damaged_directory_raises_typed(self, tmp_path, small_store, corrupt):
        d = small_store.save(tmp_path / "db")
        corrupt(d)
        with pytest.raises(VectorStoreError):
            VectorStore.load(d, small_store.embedding)

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

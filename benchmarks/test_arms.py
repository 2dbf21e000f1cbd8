"""Unit and property tests for the ablation arms in ``benchmarks/arms.py``.

Run in full by the CI step after the tier-1 suite; ``tests/test_retrieval.py``,
``tests/test_vectorstore.py`` and ``tests/test_embeddings.py`` import these
classes, so tier-1 keeps collecting them under the ids they have always had.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.documents import Document
from repro.embeddings import create_embedding_model
from repro.errors import EmbeddingError, VectorStoreError
from repro.retrieval import ManualPageKeywordSearch, VectorRetriever
from repro.retrieval.base import RetrievedDocument
from repro.vectorstore import VectorStore

from benchmarks.arms import (
    BM25Retriever,
    HybridRetriever,
    IVFIndex,
    reciprocal_rank_fusion,
    top_k_indices,
)

DOCS = [
    Document(text="GMRES is a Krylov method for nonsymmetric systems", metadata={"i": 0}),
    Document(text="conjugate gradient needs symmetric positive definite matrices", metadata={"i": 1}),
    Document(text="preallocation makes assembly of sparse matrices fast", metadata={"i": 2}),
    Document(text="the Chebyshev iteration needs eigenvalue bounds", metadata={"i": 3}),
    Document(text="GMRES restart length controls memory usage", metadata={"i": 4}),
]

_WORDS = st.sampled_from(
    "gmres cg restart memory matrix vector solver preconditioner residual "
    "tolerance iteration parallel krylov assembly nullspace chebyshev".split()
)
_SENTENCE = st.lists(_WORDS, min_size=3, max_size=15).map(" ".join)
_DOCSET = st.lists(_SENTENCE, min_size=2, max_size=8, unique=True)


class TestBM25:
    def test_exact_term_ranks_first(self):
        r = BM25Retriever(DOCS)
        hits = r.retrieve("chebyshev eigenvalue", k=3)
        assert hits[0].document.metadata["i"] == 3

    def test_zero_score_excluded(self):
        r = BM25Retriever(DOCS)
        assert r.retrieve("zzzz qqqq", k=3) == []

    def test_scores_nonnegative(self):
        r = BM25Retriever(DOCS)
        assert (r.score("GMRES memory") >= 0).all()

    def test_term_frequency_saturation(self):
        docs = [
            Document(text="gmres " * 50, metadata={"i": 0}),
            Document(text="gmres restart", metadata={"i": 1}),
        ]
        r = BM25Retriever(docs, k1=1.2, b=0.75)
        scores = r.score("gmres")
        # Massive repetition must not dominate unboundedly.
        assert scores[0] < 3 * scores[1]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            BM25Retriever([])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BM25Retriever(DOCS, k1=-1)
        with pytest.raises(ValueError):
            BM25Retriever(DOCS, b=2.0)

    @given(st.text(alphabet="abcdefg ", max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_never_crashes(self, query):
        r = BM25Retriever(DOCS)
        r.retrieve(query, k=3)

    @given(_DOCSET)
    @settings(max_examples=25, deadline=None)
    def test_self_retrieval(self, texts):
        """A document is always retrievable by its own full text."""
        docs = [Document(text=t, metadata={"source": str(i)}) for i, t in enumerate(texts)]
        r = BM25Retriever(docs)
        target = docs[0]
        hits = r.retrieve(target.text, k=len(docs))
        assert any(h.doc_id == target.doc_id for h in hits)


class TestRRF:
    def _hits(self, ids):
        return [
            RetrievedDocument(
                document=Document(text=f"doc {i}", metadata={"source": str(i)}),
                score=1.0 - 0.1 * rank,
                origin="vector",
            )
            for rank, i in enumerate(ids)
        ]

    def test_agreement_ranks_first(self):
        fused = reciprocal_rank_fusion([self._hits([1, 2, 3]), self._hits([1, 3, 2])], k=3)
        assert fused[0].document.text == "doc 1"
        assert all(h.origin == "hybrid" for h in fused)

    def test_k_truncates(self):
        fused = reciprocal_rank_fusion([self._hits([1, 2, 3, 4])], k=2)
        assert len(fused) == 2

    def test_invalid_rrf_k(self):
        with pytest.raises(ValueError):
            reciprocal_rank_fusion([], rrf_k=0)

    def test_hybrid_retriever(self, bundle, chunks):
        store = VectorStore.from_documents(chunks, create_embedding_model("petsc-embed-small"))
        hybrid = HybridRetriever([VectorRetriever(store), ManualPageKeywordSearch(bundle)])
        hits = hybrid.retrieve("What does KSPSolve do?", k=5)
        assert hits
        assert any(h.document.metadata.get("title") == "KSPSolve" for h in hits)

    def test_hybrid_requires_retrievers(self):
        with pytest.raises(ValueError):
            HybridRetriever([])


class TestSimilarity:
    def test_top_k_order(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        assert top_k_indices(scores, 2).tolist() == [1, 3]

    def test_top_k_exceeds_length(self):
        assert len(top_k_indices(np.array([1.0, 2.0]), 10)) == 2

    def test_top_k_zero(self):
        assert len(top_k_indices(np.array([1.0]), 0)) == 0

    def test_top_k_tie_break_deterministic(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        assert top_k_indices(scores, 2).tolist() == [0, 1]

    def test_top_k_rejects_2d(self):
        with pytest.raises(EmbeddingError):
            top_k_indices(np.ones((2, 2)), 1)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_top_k_returns_maxima(self, values, k):
        scores = np.array(values)
        idx = top_k_indices(scores, k)
        got = sorted(scores[idx].tolist(), reverse=True)
        want = sorted(values, reverse=True)[: len(idx)]
        assert got == want


class TestIVFIndex:
    def _vectors(self, n=200, dim=16, seed=3):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((n, dim)).astype(np.float32)
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    def test_train_and_search(self):
        vecs = self._vectors()
        idx = IVFIndex(vecs, n_clusters=8, nprobe=8)
        found, _ = idx.search(vecs[17], 1)
        assert found[0] == 17  # full probe = exact

    def test_recall_vs_bruteforce(self):
        vecs = self._vectors(400)
        ivf = IVFIndex(vecs, n_clusters=16, nprobe=6)
        rng = np.random.default_rng(5)
        hits = 0
        trials = 25
        for _ in range(trials):
            q = rng.standard_normal(16).astype(np.float32)
            q /= np.linalg.norm(q)
            exact = top_k_indices(vecs @ q, 5)
            approx, _ = ivf.search(q, 5)
            hits += len(set(exact.tolist()) & set(approx.tolist()))
        recall = hits / (trials * 5)
        assert recall >= 0.5  # approximate but not useless

    def test_train_empty_raises(self):
        with pytest.raises(VectorStoreError):
            IVFIndex(np.empty((0, 4), dtype=np.float32))

    def test_bad_parameters_and_query_dim(self):
        vecs = self._vectors(20)
        with pytest.raises(VectorStoreError):
            IVFIndex(vecs, n_clusters=0)
        with pytest.raises(VectorStoreError):
            IVFIndex(vecs, nprobe=0)
        with pytest.raises(VectorStoreError):
            IVFIndex(vecs).search(np.ones(3, dtype=np.float32), 1)

"""Cross-component property-based tests.

These pin invariants that hold for *any* input, spanning module
boundaries: retrieval consistency between stores and indexes, rerank
ordering stability, grading monotonicity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.documents import Document
from repro.embeddings import HashingEmbedding
from repro.evaluation import BenchmarkQuestion, Score
from repro.rerank import FlashrankLiteReranker
from repro.retrieval.base import RetrievedDocument
from repro.vectorstore import VectorStore

_WORDS = st.sampled_from(
    "gmres cg restart memory matrix vector solver preconditioner residual "
    "tolerance iteration parallel krylov assembly nullspace chebyshev".split()
)
_SENTENCE = st.lists(_WORDS, min_size=3, max_size=15).map(" ".join)
_DOCSET = st.lists(_SENTENCE, min_size=2, max_size=8, unique=True)


class TestRetrievalProperties:
    @given(_DOCSET, _SENTENCE)
    @settings(max_examples=25, deadline=None)
    def test_vector_scores_sorted_descending(self, texts, query):
        docs = [Document(text=t, metadata={"source": str(i)}) for i, t in enumerate(texts)]
        store = VectorStore.from_documents(docs, HashingEmbedding(dim=64))
        hits = store.similarity_search_with_score(query, k=len(docs))
        scores = [s for _, s in hits]
        assert scores == sorted(scores, reverse=True)

    @given(_DOCSET, _SENTENCE, st.integers(min_value=1, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_topk_prefix_property(self, texts, query, k):
        """top-k is always a prefix of top-(k+1)."""
        docs = [Document(text=t, metadata={"source": str(i)}) for i, t in enumerate(texts)]
        store = VectorStore.from_documents(docs, HashingEmbedding(dim=64))
        small = [h.doc_id for h in store.similarity_search(query, k=k)]
        big = [h.doc_id for h in store.similarity_search(query, k=k + 1)]
        assert big[: len(small)] == small


class TestRerankProperties:
    @given(_DOCSET, _SENTENCE)
    @settings(max_examples=25, deadline=None)
    def test_rerank_is_permutation_prefix(self, texts, query):
        """Reranking returns a subset of its candidates, no inventions."""
        docs = [Document(text=t, metadata={"source": str(i)}) for i, t in enumerate(texts)]
        hits = [RetrievedDocument(document=d, score=0.5, origin="v") for d in docs]
        rr = FlashrankLiteReranker(docs)
        out = rr.rerank(query, hits, top_n=3)
        in_ids = {h.doc_id for h in hits}
        assert all(r.doc_id in in_ids for r in out)
        assert len({r.doc_id for r in out}) == len(out)

    @given(_DOCSET, _SENTENCE)
    @settings(max_examples=25, deadline=None)
    def test_rerank_scores_descending(self, texts, query):
        docs = [Document(text=t, metadata={"source": str(i)}) for i, t in enumerate(texts)]
        hits = [RetrievedDocument(document=d, score=0.5, origin="v") for d in docs]
        out = FlashrankLiteReranker(docs).rerank(query, hits, top_n=len(docs))
        scores = [r.rerank_score for r in out]
        assert scores == sorted(scores, reverse=True)


class TestGradingProperties:
    def _question(self):
        return BenchmarkQuestion(
            qid="QP", text="rectangular least squares?",
            key_facts=("ksplsqr.rectangular", "ksplsqr.no_invert"),
            extra_facts=("ksplsqr.normal_equiv",),
        )

    def test_adding_true_facts_never_lowers_score(self, grader, registry):
        """Grading is monotone in correct content (absent falsehoods)."""
        q = self._question()
        fact_ids = ["ksplsqr.rectangular", "ksplsqr.no_invert", "ksplsqr.normal_equiv"]
        prev = Score.NONSENSICAL
        answer = ""
        for fid in fact_ids:
            answer += "\n\n" + registry.statement(fid)
            score = grader.grade(q, answer).score
            assert score >= prev
            prev = score

    def test_adding_falsehood_never_raises_score(self, grader, registry):
        q = self._question()
        good = "\n\n".join(registry.statement(f) for f in q.key_facts)
        bad = good + "\n\n" + registry.falsehood("false.lsqr_square_only").statement
        assert grader.grade(q, bad).score <= grader.grade(q, good).score

    @given(st.text(max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_grader_total_on_arbitrary_text(self, grader, text):
        """The grader never crashes and always returns a rubric score."""
        q = self._question()
        score = grader.grade(q, text).score
        assert 0 <= int(score) <= 4


class TestEmbeddingStoreConsistency:
    @given(_DOCSET)
    @settings(max_examples=20, deadline=None)
    def test_store_search_matches_manual_topk(self, texts):
        docs = [Document(text=t, metadata={"source": str(i)}) for i, t in enumerate(texts)]
        emb = HashingEmbedding(dim=64)
        store = VectorStore.from_documents(docs, emb)
        query = texts[0]
        hits = store.similarity_search_with_score(query, k=len(docs))
        # Manual computation over the same embeddings.
        mat = emb.embed_documents([d.text for d in docs])
        q = emb.embed_query(query)
        manual = sorted((float(mat[i] @ q) for i in range(len(docs))), reverse=True)
        got = [s for _, s in hits]
        # Tolerance, not rounding: the store scores via one vectorized
        # float32 matrix product while this recomputes row-wise dots,
        # and the two accumulation orders/precisions can straddle any
        # fixed rounding boundary.
        assert got == pytest.approx(manual[: len(got)], abs=1e-5)

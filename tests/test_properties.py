"""Cross-component property-based tests.

These pin invariants that hold for *any* input, spanning module
boundaries: retrieval consistency between stores and indexes, rerank
ordering stability, grading monotonicity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ReplicationConfig
from repro.documents import Document
from repro.embeddings import HashingEmbedding
from repro.errors import VectorStoreError
from repro.evaluation import BenchmarkQuestion, Score
from repro.observability import MetricsRegistry, use_registry
from repro.rerank import FlashrankLiteReranker
from repro.retrieval.base import RetrievedDocument
from repro.vectorstore import ShardedVectorStore, VectorStore, shard_for_document

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


class _DarkReplica:
    """A replica whose score transport never answers."""

    def __init__(self, inner):
        self.inner = inner

    def scores(self, qvec):
        raise VectorStoreError("replica dark")


class TestTopKTies:
    """The one top-k selection against brute force when score ties
    straddle the cut.

    Scores are planted (one-hot query over hand-made rows) so ties are
    exact: a repeated text under different sources is a duplicate, two
    texts on one level are a plateau.  The tie-break is a hash, so CI
    reruns this class under ``PYTHONHASHSEED=0`` and ``1``.
    """

    _EMB = HashingEmbedding(dim=8)
    _QVEC = np.eye(8, dtype=np.float32)[0]

    @staticmethod
    def _level(text_id: int) -> float:
        return (text_id // 2) * 0.125

    def _sharded(self, docs, levels, num_shards):
        buckets = [[] for _ in range(num_shards)]
        for doc, level in zip(docs, levels):
            buckets[shard_for_document(doc, num_shards)].append((doc, level))
        shards = []
        for bucket in buckets:
            vectors = np.zeros((len(bucket), 8), dtype=np.float32)
            vectors[:, 0] = [level for _, level in bucket]
            shards.append(
                VectorStore.from_precomputed([d for d, _ in bucket], vectors, self._EMB)
            )
        return ShardedVectorStore(shards, self._EMB)

    @given(
        st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_equals_brute_force_at_every_shard_count(self, text_ids, k):
        docs = [
            Document(text=f"planted text {t}", metadata={"source": f"src{i}"})
            for i, t in enumerate(text_ids)
        ]
        levels = [self._level(t) for t in text_ids]
        ranked = sorted(zip(docs, levels), key=lambda p: (-p[1], p[0].doc_id))
        expected = [(d.doc_id, level) for d, level in ranked[:k]]
        rep = ReplicationConfig(replicas=2)
        for num_shards in (1, 2, 4, 8):
            store = self._sharded(docs, levels, num_shards)
            replicated = store.serving_view(rep)
            for view in (store, replicated):
                hits = view.similarity_search_by_vector_with_score(self._QVEC, k=k)
                assert [(d.doc_id, s) for d, s in hits] == expected, num_shards

    @given(
        st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=40),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=10),
        st.sets(st.integers(min_value=0, max_value=7), max_size=8),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_selection_equals_brute_force_over_live_rows(
        self, text_ids, num_shards, k, dark, filtered
    ):
        """Every live row's per-shard score, sorted by ``(-score,
        doc_id)`` and cut at k — fewer than k when fewer rows match."""
        docs = [
            Document(
                text=f"planted text {t}",
                metadata={"source": f"src{i}", "rare": i % 5 == 0},
            )
            for i, t in enumerate(text_ids)
        ]
        levels = [self._level(t) for t in text_ids]
        where = {"rare": True} if filtered else None
        live = [
            (doc, level)
            for doc, level in zip(docs, levels)
            if shard_for_document(doc, num_shards) not in dark
            and (where is None or doc.metadata["rare"])
        ]
        live.sort(key=lambda p: (-p[1], p[0].doc_id))
        expected = [(d.doc_id, level) for d, level in live[:k]]
        rep = ReplicationConfig(replicas=1)
        view = self._sharded(docs, levels, num_shards).serving_view(
            rep,
            store_wrapper=lambda s, shard, _: _DarkReplica(s) if shard in dark else s,
        )
        with use_registry(MetricsRegistry()):
            hits = view.similarity_search_by_vector_with_score(self._QVEC, k=k, where=where)
        assert [(d.doc_id, s) for d, s in hits] == expected

"""The losing arms of the retrieval ablations (DESIGN §5, A4 and A6).

The paper's first pass is exact vector search plus the manual-page
keyword lookup, and that is all ``src/repro`` serves.  What an ablation
still races against it lives here, beside the benches that run it
(``bench_ablations.py``, ``bench_components.py``; unit tests in
``test_arms.py``):

* :class:`IVFIndex` — coarse k-means + ``nprobe`` cluster scans over a
  store's matrix (A4: recall vs speed against the exact scan).
* :class:`BM25Retriever` — Okapi BM25 over CSR-style postings.
* :class:`HybridRetriever` / :func:`reciprocal_rank_fusion` — several
  first passes fused by rank (A6: vector + BM25 vs vector only).
* :func:`top_k_indices` — the array top-k the IVF probe, BM25 and the
  A4 exact baseline select with (the store selects with
  ``vectorstore.store.top_k_hits``).
"""

from __future__ import annotations

import numpy as np

from repro.documents import Document
from repro.errors import EmbeddingError, VectorStoreError
from repro.retrieval.base import RetrievedDocument, Retriever, dedupe_by_id
from repro.utils.textproc import tokenize


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, in descending score order.

    Uses ``argpartition`` (O(n)) followed by a sort of only the top slice,
    the standard trick for k ≪ n.  Ties break deterministically by lower
    index first.
    """
    scores = np.asarray(scores)
    if scores.ndim != 1:
        raise EmbeddingError(f"scores must be 1-D, got shape {scores.shape}")
    k = min(k, scores.shape[0])
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    part = np.argpartition(-scores, k - 1)[:k]
    # argpartition makes an arbitrary choice among elements tied at the
    # k-th score, so widen to every index tied with that boundary score
    # before the deterministic (-score, index) sort — otherwise top-k is
    # not a prefix of top-(k+1) when ties straddle the cut.
    cand = np.nonzero(scores >= scores[part].min())[0]
    order = np.lexsort((cand, -scores[cand]))
    return cand[order[:k]]


class IVFIndex:
    """Inverted-file (coarse k-means) approximate index over ``matrix``.

    Built once from the ``(n, dim)`` L2-normalised rows it is given:
    mini k-means assigns every row to a centroid, and a search scans only
    the ``nprobe`` clusters whose centroids are closest to the query.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        *,
        n_clusters: int = 16,
        nprobe: int = 4,
        seed: int = 7,
        iterations: int = 8,
    ) -> None:
        data = np.asarray(matrix, dtype=np.float32)
        if data.ndim != 2 or data.shape[0] == 0:
            raise VectorStoreError(f"cannot train an IVF index on shape {data.shape}")
        if n_clusters < 1:
            raise VectorStoreError(f"n_clusters must be >= 1, got {n_clusters}")
        if nprobe < 1:
            raise VectorStoreError(f"nprobe must be >= 1, got {nprobe}")
        self.dim = data.shape[1]
        self.nprobe = nprobe
        k = min(n_clusters, data.shape[0])
        rng = np.random.default_rng(seed)
        centroids = data[rng.choice(data.shape[0], size=k, replace=False)].copy()
        assign = np.zeros(data.shape[0], dtype=np.int64)
        for _ in range(iterations):
            # E-step: nearest centroid by inner product (vectors normalized).
            assign = np.argmax(data @ centroids.T, axis=1)
            # M-step: recompute centroids; empty clusters keep their position.
            for c in range(k):
                members = data[assign == c]
                if members.shape[0]:
                    centroid = members.mean(axis=0)
                    norm = np.linalg.norm(centroid)
                    if norm > 0:
                        centroids[c] = centroid / norm
        self._centroids = centroids
        self._cluster_ids = [np.nonzero(assign == c)[0] for c in range(k)]
        self._cluster_rows = [np.ascontiguousarray(data[ids]) for ids in self._cluster_ids]

    def search(self, query: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """``(row indices, scores)`` of the top-k rows among the probed clusters."""
        q = np.asarray(query, dtype=np.float32).reshape(-1)
        if q.shape[0] != self.dim:
            raise VectorStoreError(f"query dim {q.shape[0]} != index dim {self.dim}")
        nprobe = min(self.nprobe, self._centroids.shape[0])
        probe = top_k_indices(self._centroids @ q, nprobe)
        cand_ids = np.concatenate([self._cluster_ids[c] for c in probe])
        cand_scores = np.concatenate([self._cluster_rows[c] @ q for c in probe])
        local = top_k_indices(cand_scores, k)
        return cand_ids[local], cand_scores[local]


class BM25Retriever(Retriever):
    """Okapi BM25 with the standard k1/b parametrization.

    The postings are stored CSR-style (one concatenated array of document
    indices plus per-term slices), so scoring a query is a handful of
    vectorized scatter-adds rather than a Python loop over documents.
    """

    name = "bm25"

    def __init__(self, documents: list[Document], *, k1: float = 1.5, b: float = 0.75) -> None:
        if not documents:
            raise ValueError("BM25 needs at least one document")
        if k1 < 0 or not 0 <= b <= 1:
            raise ValueError(f"invalid BM25 parameters k1={k1}, b={b}")
        self.documents = list(documents)
        self.k1 = k1
        self.b = b

        n_docs = len(documents)
        doc_lens = np.zeros(n_docs, dtype=np.float64)
        # term -> {doc index -> tf}
        postings: dict[str, dict[int, int]] = {}
        for i, doc in enumerate(documents):
            toks = tokenize(doc.text)
            doc_lens[i] = len(toks)
            for t in toks:
                postings.setdefault(t, {}).setdefault(i, 0)
                postings[t][i] += 1

        avgdl = float(doc_lens.mean())
        # CSR-ish storage: for each term, contiguous (doc_idx, tf) slices.
        self._term_slices: dict[str, tuple[int, int]] = {}
        idx_chunks: list[np.ndarray] = []
        tf_chunks: list[np.ndarray] = []
        self._idf: dict[str, float] = {}
        offset = 0
        for term, posting in postings.items():
            docs = np.fromiter(posting.keys(), dtype=np.int64, count=len(posting))
            tfs = np.fromiter(posting.values(), dtype=np.float64, count=len(posting))
            idx_chunks.append(docs)
            tf_chunks.append(tfs)
            self._term_slices[term] = (offset, offset + docs.size)
            offset += docs.size
            df = docs.size
            self._idf[term] = float(np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5)))
        self._post_docs = np.concatenate(idx_chunks) if idx_chunks else np.empty(0, np.int64)
        self._post_tfs = np.concatenate(tf_chunks) if tf_chunks else np.empty(0, np.float64)
        # Precompute the per-document length normalization denominator part.
        self._len_norm = self.k1 * (1.0 - self.b + self.b * doc_lens / max(avgdl, 1e-12))

    def score(self, query: str) -> np.ndarray:
        """BM25 scores for every document (dense vector)."""
        scores = np.zeros(len(self.documents), dtype=np.float64)
        for term in set(tokenize(query)):
            sl = self._term_slices.get(term)
            if sl is None:
                continue
            docs = self._post_docs[sl[0] : sl[1]]
            tfs = self._post_tfs[sl[0] : sl[1]]
            contrib = self._idf[term] * tfs * (self.k1 + 1.0) / (tfs + self._len_norm[docs])
            np.add.at(scores, docs, contrib)
        return scores

    def retrieve(self, query: str, *, k: int = 8, ctx=None) -> list[RetrievedDocument]:
        scores = self.score(query)
        idx = top_k_indices(scores, k)
        return [
            RetrievedDocument(document=self.documents[i], score=float(scores[i]), origin="bm25")
            for i in idx
            if scores[i] > 0.0
        ]


def reciprocal_rank_fusion(
    result_lists: list[list[RetrievedDocument]],
    *,
    k: int = 8,
    rrf_k: float = 60.0,
) -> list[RetrievedDocument]:
    """Fuse ranked lists with RRF: score(d) = Σ 1 / (rrf_k + rank_i(d)).

    The standard rank-based fusion — robust to incomparable score scales
    across vector, BM25 and keyword retrievers.
    """
    if rrf_k <= 0:
        raise ValueError(f"rrf_k must be positive, got {rrf_k}")
    fused: dict[str, tuple[float, RetrievedDocument]] = {}
    for hits in result_lists:
        for rank, hit in enumerate(hits, start=1):
            score = 1.0 / (rrf_k + rank)
            if hit.doc_id in fused:
                prev_score, prev_hit = fused[hit.doc_id]
                fused[hit.doc_id] = (prev_score + score, prev_hit)
            else:
                fused[hit.doc_id] = (score, hit)
    ranked = sorted(fused.values(), key=lambda t: -t[0])
    return [
        RetrievedDocument(document=h.document, score=s, origin="hybrid")
        for s, h in ranked[:k]
    ]


class HybridRetriever(Retriever):
    """Runs several retrievers and fuses their rankings with RRF."""

    name = "hybrid"

    def __init__(self, retrievers: list[Retriever], *, rrf_k: float = 60.0) -> None:
        if not retrievers:
            raise ValueError("HybridRetriever needs at least one retriever")
        self.retrievers = list(retrievers)
        self.rrf_k = rrf_k

    def retrieve(self, query: str, *, k: int = 8, ctx=None) -> list[RetrievedDocument]:
        lists = [dedupe_by_id(r.retrieve(query, k=k, ctx=ctx)) for r in self.retrievers]
        return reciprocal_rank_fusion(lists, k=k, rrf_k=self.rrf_k)

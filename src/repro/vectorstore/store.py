"""The vector store: documents + embeddings + kNN index + persistence."""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from repro.documents import Document
from repro.durability.atomic import atomic_write
from repro.embeddings.base import EmbeddingModel
from repro.errors import VectorStoreError
from repro.vectorstore.filters import matches_where
from repro.vectorstore.index import BruteForceIndex


def mmr_search(
    store,
    query: str,
    *,
    k: int = 4,
    fetch_k: int = 20,
    lambda_mult: float = 0.5,
    where: dict | None = None,
) -> list[Document]:
    """MMR selection over any store exposing the VectorStore search surface."""
    if not 0.0 <= lambda_mult <= 1.0:
        raise VectorStoreError(f"lambda_mult must be in [0, 1], got {lambda_mult}")
    candidates = store.similarity_search_with_score(query, k=max(fetch_k, k), where=where)
    if not candidates:
        return []
    qvec = store.embedding.embed_query(query)
    cand_vecs = store.embedding.embed_documents([d.text for d, _ in candidates])
    rel = cand_vecs @ qvec
    selected: list[int] = []
    remaining = list(range(len(candidates)))
    while remaining and len(selected) < k:
        if not selected:
            best = max(remaining, key=lambda i: rel[i])
        else:
            sel_mat = cand_vecs[selected]
            # Max similarity of each remaining candidate to the picks.
            redundancy = (cand_vecs[remaining] @ sel_mat.T).max(axis=1)
            mmr = lambda_mult * rel[remaining] - (1.0 - lambda_mult) * redundancy
            best = remaining[int(np.argmax(mmr))]
        selected.append(best)
        remaining.remove(best)
    return [candidates[i][0] for i in selected]


class VectorStore:
    """A Chroma-shaped collection of embedded documents.

    Construction mirrors the paper's pipeline::

        store = VectorStore.from_documents(chunks, embedding_model)
        hits = store.similarity_search("What does KSPSolve do?", k=8)

    A store is a value: it is filled once, by one of the constructors
    below, and nothing writes to it afterwards — a changed corpus is a
    new store (:func:`repro.ingest.ingest_corpus`), which is what lets
    every serving view and replica share one.  Duplicate documents (same
    :attr:`Document.doc_id`) keep their first occurrence.
    """

    def __init__(
        self, embedding: EmbeddingModel, *, collection_name: str = "petsc-docs"
    ) -> None:
        self.embedding = embedding
        self.collection_name = collection_name
        self.index = BruteForceIndex(embedding.dim)
        self._docs: list[Document] = []
        self._ids: dict[str, int] = {}

    # ------------------------------------------------------------ construction
    @classmethod
    def from_documents(
        cls,
        documents: list[Document],
        embedding: EmbeddingModel,
        *,
        collection_name: str = "petsc-docs",
    ) -> "VectorStore":
        """Embed ``documents`` in one batch, then :meth:`from_precomputed`."""
        vectors = embedding.embed_documents([d.text for d in documents])
        return cls.from_precomputed(
            documents, vectors, embedding, collection_name=collection_name
        )

    @classmethod
    def from_precomputed(
        cls,
        documents: list[Document],
        vectors: np.ndarray,
        embedding: EmbeddingModel,
        *,
        collection_name: str = "petsc-docs",
    ) -> "VectorStore":
        """Build a store from documents whose vectors are already known.

        This is the delta-build primitive: the ingest lifecycle reuses a
        parent artifact's rows for unchanged chunks and embeds only the
        changed ones, then assembles the successor store here without
        touching the embedding model.  ``vectors`` must be row-aligned
        with ``documents``; duplicates (same ``doc_id``) keep the first
        occurrence, exactly like :meth:`from_documents`.
        """
        if vectors.shape[0] != len(documents):
            raise VectorStoreError(
                f"{len(documents)} documents but {vectors.shape[0]} vectors"
            )
        if len(documents) and vectors.shape[1] != embedding.dim:
            raise VectorStoreError(
                f"vector dim {vectors.shape[1]} != embedding dim {embedding.dim}"
            )
        store = cls(embedding, collection_name=collection_name)
        keep: list[int] = []
        for row, doc in enumerate(documents):
            doc_id = doc.doc_id
            if doc_id in store._ids:
                continue
            store._ids[doc_id] = len(store._docs)
            store._docs.append(doc)
            keep.append(row)
        if len(keep) == len(documents):
            store.index.add(vectors)
        elif keep:
            store.index.add(vectors[keep])
        return store

    def __len__(self) -> int:
        return len(self._docs)

    def get(self, doc_id: str) -> Document:
        row = self._ids.get(doc_id)
        if row is None:
            raise VectorStoreError(f"unknown document id {doc_id!r}")
        return self._docs[row]

    # ------------------------------------------------------------ search
    def similarity_search_with_score(
        self,
        query: str,
        *,
        k: int = 4,
        where: dict | None = None,
    ) -> list[tuple[Document, float]]:
        """Top-k documents by cosine similarity, with scores.

        Filtering is applied after the kNN scan by over-fetching, which
        is exact as long as matches are not vanishingly rare; the fetch
        width doubles until ``k`` matches are found or the index is
        exhausted.
        """
        if k <= 0:
            return []
        qvec = self.embedding.embed_query(query)
        return self.similarity_search_by_vector_with_score(qvec, k=k, where=where)

    def similarity_search_by_vector_with_score(
        self,
        qvec: np.ndarray,
        *,
        k: int = 4,
        where: dict | None = None,
    ) -> list[tuple[Document, float]]:
        """Top-k documents for an already-embedded query vector.

        This is the scatter primitive for sharded search: the composite
        store embeds the query once and probes every shard by vector, so
        embedding cost (and the embedding cache) stays per-query rather
        than per-shard.
        """
        if k <= 0:
            return []
        fetch = k if where is None else max(4 * k, 32)
        while True:
            idx, scores = self.index.search(qvec, fetch)
            hits: list[tuple[Document, float]] = []
            for i, s in zip(idx.tolist(), scores.tolist()):
                doc = self._docs[i]
                if matches_where(doc.metadata, where):
                    hits.append((doc, float(s)))
                    if len(hits) == k:
                        return hits
            if fetch >= self.index.size:
                return hits
            fetch = min(2 * fetch, self.index.size)

    def similarity_search(
        self, query: str, *, k: int = 4, where: dict | None = None
    ) -> list[Document]:
        return [doc for doc, _ in self.similarity_search_with_score(query, k=k, where=where)]

    def max_marginal_relevance_search(
        self,
        query: str,
        *,
        k: int = 4,
        fetch_k: int = 20,
        lambda_mult: float = 0.5,
        where: dict | None = None,
    ) -> list[Document]:
        """MMR search: trade off query relevance against mutual diversity."""
        return mmr_search(
            self, query, k=k, fetch_k=fetch_k, lambda_mult=lambda_mult, where=where
        )

    # ------------------------------------------------------------ persistence
    def save(self, directory: str | Path) -> Path:
        """Persist documents + vectors; format is npz + jsonl + manifest.

        Each file lands via :func:`~repro.durability.atomic.atomic_write`
        (temp + fsync + rename), so a crash mid-save never leaves a
        half-written file where a complete one used to be.
        """
        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        buf = io.BytesIO()
        np.savez_compressed(buf, vectors=self.index.matrix)
        atomic_write(d / "vectors.npz", buf.getvalue())
        lines = [
            json.dumps({"text": doc.text, "metadata": doc.metadata})
            for doc in self._docs
        ]
        atomic_write(d / "documents.jsonl", "".join(line + "\n" for line in lines))
        atomic_write(d / "manifest.json", json.dumps({
            "collection_name": self.collection_name,
            "embedding_model": self.embedding.name,
            "dim": self.embedding.dim,
            "count": len(self._docs),
        }))
        return d

    @staticmethod
    def decode_payload(
        documents_jsonl: bytes, vectors_npz: bytes
    ) -> tuple[list[Document], np.ndarray]:
        """Parse the bytes :meth:`save` wrote as ``documents.jsonl`` and
        ``vectors.npz`` into row-aligned documents and vectors."""
        docs = [
            Document(text=obj["text"], metadata=obj["metadata"])
            for obj in map(json.loads, documents_jsonl.decode("utf-8").splitlines())
        ]
        vectors = np.load(io.BytesIO(vectors_npz))["vectors"]
        if len(docs) != vectors.shape[0]:
            raise VectorStoreError(
                f"corrupt store: {len(docs)} documents but {vectors.shape[0]} vectors"
            )
        return docs, vectors

    @classmethod
    def load(cls, directory: str | Path, embedding: EmbeddingModel) -> "VectorStore":
        """Load a persisted store; the embedding model must match the manifest."""
        d = Path(directory)
        try:
            manifest = json.loads((d / "manifest.json").read_text())
        except OSError as exc:
            raise VectorStoreError(f"cannot read manifest in {d}: {exc}") from exc
        if manifest["embedding_model"] != embedding.name:
            raise VectorStoreError(
                f"store was built with {manifest['embedding_model']!r}, "
                f"got {embedding.name!r}"
            )
        if manifest["dim"] != embedding.dim:
            raise VectorStoreError(
                f"store dim {manifest['dim']} != embedding dim {embedding.dim}"
            )
        docs, vectors = cls.decode_payload(
            (d / "documents.jsonl").read_bytes(), (d / "vectors.npz").read_bytes()
        )
        # Re-insert without re-embedding: the vectors go straight into the index.
        return cls.from_precomputed(
            docs, vectors, embedding, collection_name=manifest["collection_name"]
        )

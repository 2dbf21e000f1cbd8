"""The vector store: documents + their embedding matrix + persistence."""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.documents import Document
from repro.durability.atomic import atomic_write
from repro.embeddings.base import EmbeddingModel
from repro.errors import VectorStoreError
from repro.vectorstore.filters import matches_where

if TYPE_CHECKING:
    from repro.context import RequestContext


def _rank(hit: tuple[Document, float]) -> tuple[float, str]:
    return -hit[1], hit[0].doc_id


def query_vector(qvec: np.ndarray, dim: int) -> np.ndarray:
    """``qvec`` as a flat float32 vector, checked against a store's ``dim``."""
    q = np.asarray(qvec, dtype=np.float32).reshape(-1)
    if q.shape[0] != dim:
        raise VectorStoreError(f"query dim {q.shape[0]} != store dim {dim}")
    return q


def top_k_hits(
    scores: np.ndarray, docs: list[Document], k: int, where: dict | None = None
) -> list[tuple[Document, float]]:
    """The first ``k`` rows matching ``where`` under the total order
    ``(-score, doc_id)``: the one top-k selection every search makes.

    ``scores`` is row-aligned with ``docs``.  Without a filter the k-th
    largest score is the boundary and every row at or above it is sorted,
    so a tie straddling the cut is broken by ``doc_id``, never by row.
    With one, rows are walked in descending score and ``where`` is read
    only until a score falls strictly below the k-th match.
    """
    if not where:
        cut = len(docs) - k
        if cut > 0:
            rows = np.flatnonzero(scores >= np.partition(scores, cut)[cut])
            hits = [(docs[i], s) for i, s in zip(rows.tolist(), scores[rows].tolist())]
        else:
            hits = list(zip(docs, scores.tolist()))
    else:
        hits = []
        order = np.argsort(-scores, kind="stable")
        for i, s in zip(order.tolist(), scores[order].tolist()):
            if len(hits) >= k and s < hits[k - 1][1]:
                break
            if matches_where(docs[i].metadata, where):
                hits.append((docs[i], s))
    hits.sort(key=_rank)
    return hits[:k]


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

    :attr:`matrix` is the store's own read-only C-contiguous float32
    array, one L2-normalised row per document in insertion order; a
    search is one ``matrix @ query`` product (:meth:`scores`) and one
    :func:`top_k_hits` selection, which breaks score ties by ``doc_id``.
    """

    def __init__(
        self, embedding: EmbeddingModel, *, collection_name: str = "petsc-docs"
    ) -> None:
        self.embedding = embedding
        self.collection_name = collection_name
        if embedding.dim <= 0:
            raise VectorStoreError(f"store dim must be positive, got {embedding.dim}")
        self.matrix = np.empty((0, embedding.dim), dtype=np.float32)
        self.matrix.setflags(write=False)
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
        occurrence, exactly like :meth:`from_documents`.  The store copies
        the rows it keeps, so the caller's array stays the caller's.
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
        if keep:
            rows = vectors if len(keep) == len(documents) else vectors[keep]
            store.matrix = np.array(rows, dtype=np.float32, order="C")
            store.matrix.setflags(write=False)
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

        A ``where`` filter is exact: rows are read in descending score
        until ``k`` matches are found and the next score is strictly
        lower, so fewer than ``k`` come back only when fewer match.
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
        ctx: "RequestContext | None" = None,
    ) -> list[tuple[Document, float]]:
        """Top-k documents for an already-embedded query vector.

        ``ctx`` is the store surface's request argument — where a
        composite store's scatter span and counts go; a single store
        emits neither.
        """
        if k <= 0:
            return []
        return top_k_hits(self.scores(qvec), self._docs, k, where)

    def scores(self, qvec: np.ndarray) -> np.ndarray:
        """Every row's cosine score against ``qvec``: one ``matrix @ q``.

        This is the scatter primitive for sharded search: the query is
        embedded once, every shard is scored by vector, and the
        composite selects once over the answering shards' scores.
        """
        return self.matrix @ query_vector(qvec, self.embedding.dim)

    def similarity_search(
        self, query: str, *, k: int = 4, where: dict | None = None
    ) -> list[Document]:
        return [doc for doc, _ in self.similarity_search_with_score(query, k=k, where=where)]

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
        np.savez_compressed(buf, vectors=self.matrix)
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
        ``vectors.npz`` into row-aligned documents and vectors.

        Malformed bytes of either file raise :class:`VectorStoreError`.
        """
        try:
            docs = [
                Document(text=obj["text"], metadata=obj["metadata"])
                for obj in map(json.loads, documents_jsonl.decode("utf-8").splitlines())
            ]
        except (ValueError, KeyError, TypeError) as exc:
            raise VectorStoreError(f"corrupt store: bad documents.jsonl: {exc!r}") from exc
        try:
            vectors = np.load(io.BytesIO(vectors_npz), allow_pickle=False)["vectors"]
        except Exception as exc:
            # Damaged bytes leave the zip and npy readers as BadZipFile,
            # zlib.error, ValueError, KeyError, EOFError, NotImplementedError
            # or RuntimeError (seen by fuzzing): no narrower list is complete.
            raise VectorStoreError(f"corrupt store: bad vectors.npz: {exc!r}") from exc
        if vectors.dtype != np.float32 or vectors.ndim != 2 or vectors.shape[0] != len(docs):
            raise VectorStoreError(
                f"corrupt store: {len(docs)} documents but {vectors.dtype} "
                f"vectors of shape {vectors.shape}"
            )
        return docs, vectors

    @classmethod
    def load(cls, directory: str | Path, embedding: EmbeddingModel) -> "VectorStore":
        """Load a persisted store; the embedding model must match the manifest.

        Raises :class:`VectorStoreError` for a missing, unreadable or
        malformed file as well as for a model mismatch.
        """
        d = Path(directory)
        try:
            manifest = json.loads((d / "manifest.json").read_text())
            built_with = manifest["embedding_model"]
            dim = manifest["dim"]
            collection_name = manifest["collection_name"]
            documents_jsonl = (d / "documents.jsonl").read_bytes()
            vectors_npz = (d / "vectors.npz").read_bytes()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise VectorStoreError(f"cannot read store in {d}: {exc!r}") from exc
        if built_with != embedding.name:
            raise VectorStoreError(
                f"store was built with {built_with!r}, got {embedding.name!r}"
            )
        if dim != embedding.dim:
            raise VectorStoreError(f"store dim {dim} != embedding dim {embedding.dim}")
        docs, vectors = cls.decode_payload(documents_jsonl, vectors_npz)
        # Re-insert without re-embedding: the vectors go straight into the matrix.
        return cls.from_precomputed(
            docs, vectors, embedding, collection_name=collection_name
        )

"""Dense vector retrieval over a :class:`~repro.vectorstore.VectorStore`."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.retrieval.base import RetrievedDocument, Retriever
from repro.vectorstore import VectorStore

if TYPE_CHECKING:
    from repro.context import RequestContext


class VectorRetriever(Retriever):
    """Embedding similarity search (the RAG first pass, K=8 in the paper).

    ``embed_query(text, ctx)`` turns the query into the vector the store
    is searched by — the store's own model unless the caller brings one
    (the engine brings its query-embedding cache).
    """

    name = "vector"

    def __init__(
        self,
        store: VectorStore,
        *,
        where: dict | None = None,
        embed_query: "Callable[[str, RequestContext | None], np.ndarray] | None" = None,
    ) -> None:
        self.store = store
        self.where = where
        self._embed_query = (
            embed_query
            if embed_query is not None
            else lambda text, ctx: store.embedding.embed_query(text)
        )

    def retrieve(
        self, query: str, *, k: int = 8, ctx: "RequestContext | None" = None
    ) -> list[RetrievedDocument]:
        hits = self.store.similarity_search_by_vector_with_score(
            self._embed_query(query, ctx), k=k, where=self.where, ctx=ctx
        )
        return [
            RetrievedDocument(document=doc, score=score, origin="vector")
            for doc, score in hits
        ]

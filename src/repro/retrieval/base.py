"""Retriever interface shared by vector and keyword retrieval."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.documents import Document

if TYPE_CHECKING:
    from repro.context import RequestContext


@dataclass
class RetrievedDocument:
    """A document plus where/why it was retrieved.

    ``origin`` records the stage that produced it (``"vector"``,
    ``"keyword"``); the rerank pipeline and the interaction-history
    database both log it, mirroring the paper's emphasis on giving
    developers visibility into what was passed to the LLM.
    """

    document: Document
    score: float
    origin: str

    @property
    def doc_id(self) -> str:
        return self.document.doc_id


class Retriever(ABC):
    """Returns the top-k most relevant documents for a query string."""

    #: Short identifier used for span names, metric names
    #: (``repro.retrieval.<name>``), and ``RetrievedDocument.origin``.
    name: str = "retriever"

    @abstractmethod
    def retrieve(
        self, query: str, *, k: int = 8, ctx: "RequestContext | None" = None
    ) -> list[RetrievedDocument]:
        """Top-k documents, best first.

        ``ctx`` is the request's context, handed on to whatever this
        retriever calls (the engine's caches record into it; the store
        traces and counts on it).
        """

    def __call__(
        self, query: str, *, k: int = 8, ctx: "RequestContext | None" = None
    ) -> list[RetrievedDocument]:
        return self.retrieve(query, k=k, ctx=ctx)


def dedupe_by_id(hits: list[RetrievedDocument]) -> list[RetrievedDocument]:
    """Drop later duplicates (same doc_id), preserving order."""
    seen: set[str] = set()
    out: list[RetrievedDocument] = []
    for hit in hits:
        if hit.doc_id not in seen:
            seen.add(hit.doc_id)
            out.append(hit)
    return out

"""First-pass retrieval: vector search and the manual-page keyword lookup."""

from repro.retrieval.base import RetrievedDocument, Retriever
from repro.retrieval.keyword import ManualPageKeywordSearch
from repro.retrieval.vector import VectorRetriever

__all__ = [
    "Retriever",
    "RetrievedDocument",
    "VectorRetriever",
    "ManualPageKeywordSearch",
]

"""Chroma-like vector database.

The paper feeds LangChain loader/splitter output into
``Chroma.from_documents``; :class:`VectorStore` provides the same
surface: ``from_documents``, ``similarity_search(_with_score)``,
metadata ``where`` filters, persistence, and maximal marginal relevance
search — everything but writes: a store is built once and a changed
corpus is a new one.  A store searches by exact brute-force kNN; an
IVF-style coarse-quantized index is kept beside it for the
approximate-search ablation.
"""

from repro.vectorstore.filters import matches_where
from repro.vectorstore.index import BruteForceIndex, IVFIndex, VectorIndex
from repro.vectorstore.store import VectorStore
from repro.vectorstore.sharded import (
    ShardedVectorStore,
    shard_for_document,
    shard_for_source,
)
from repro.vectorstore.catalog import CatalogRetriever, DatabaseCatalog

__all__ = [
    "VectorStore",
    "ShardedVectorStore",
    "VectorIndex",
    "BruteForceIndex",
    "IVFIndex",
    "matches_where",
    "shard_for_document",
    "shard_for_source",
    "DatabaseCatalog",
    "CatalogRetriever",
]

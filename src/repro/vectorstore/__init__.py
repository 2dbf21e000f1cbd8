"""Chroma-like vector database.

The paper feeds LangChain loader/splitter output into
``Chroma.from_documents``; :class:`VectorStore` provides the same
surface: ``from_documents``, ``similarity_search(_with_score)``,
metadata ``where`` filters and persistence — everything but writes: a
store is built once and a changed corpus is a new one.  A store is a
list of documents beside one read-only embedding matrix and searches it
by exact brute-force kNN; :class:`ShardedVectorStore` scores a query
on several and selects once over their scores.
"""

from repro.vectorstore.filters import matches_where
from repro.vectorstore.store import VectorStore
from repro.vectorstore.sharded import (
    ShardedVectorStore,
    shard_for_document,
    shard_for_source,
)

__all__ = [
    "VectorStore",
    "ShardedVectorStore",
    "matches_where",
    "shard_for_document",
    "shard_for_source",
]

"""Shared query-time caches with deterministic bookkeeping.

Three caches back the engine — query-embedding, retrieval and answer
LRUs, held together by a :class:`~repro.engine.engine.CacheGeneration`;
this module provides the primitive and the two wrapper layers.

The determinism problem: an LRU mutates on *every* access (recency
reordering), so letting batch workers touch a shared LRU concurrently
would make its ordering — and therefore its future evictions — depend on
thread scheduling.  The fix is a transaction protocol.  While a request
runs, the shared caches are frozen for writes: it reads them (hit/miss
counts stay pure functions of the workload, since the frozen contents
can't change mid-batch) and records every touch and insert into its
context's :class:`~repro.context.CacheTransaction`.  The service replays the
transactions at its commit point — after the barrier, in
request-submission order, for a batch — so the cache state any *future*
request observes is identical regardless of how many workers ran the
batch; an overtaken request commits into a generation no new one reads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable

import numpy as np

from repro.context import RequestContext, read_question
from repro.embeddings.base import EmbeddingModel
from repro.retrieval.base import RetrievedDocument, Retriever

#: Query vectors a generation keeps (:class:`CachedEmbedding`).
EMBEDDING_CACHE_SIZE = 4096


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    ``capacity == 0`` disables the cache entirely (every ``get`` misses,
    every ``put`` is a no-op), which is how config turns a cache off
    without branching at every call site.  Reads/writes are lock-guarded;
    deterministic *ordering* under concurrency is the transaction
    protocol's job, not this class's.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: OrderedDict[Hashable, object] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def peek(self, key: Hashable, default: object = None) -> object:
        """Read without recency reordering (safe during a frozen batch)."""
        with self._lock:
            return self._data.get(key, default)

    def touch(self, key: Hashable) -> None:
        """Mark ``key`` most-recently-used (the replayed half of a hit)."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)

    def put(self, key: Hashable, value: object) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def items(self) -> list[tuple[Hashable, object]]:
        """Snapshot of (key, value) pairs, LRU-first (inspection only)."""
        with self._lock:
            return list(self._data.items())

    def keep_where(self, predicate: Callable[[Hashable, object], bool]) -> "LRUCache":
        """A new cache of this capacity holding the entries the predicate
        keeps, in recency order (so it evicts them in the order this one
        would have); this cache is untouched."""
        kept = LRUCache(self.capacity)
        kept._data.update((k, v) for k, v in self.items() if predicate(k, v))
        return kept


class CachedEmbedding:
    """Query-embedding memoization in front of a fitted model.

    Documents are embedded once, at index build, by the model itself;
    only ``embed_query`` — called on every vector retrieval — is cached.
    """

    def __init__(self, inner: EmbeddingModel, cache: LRUCache) -> None:
        self.inner = inner
        self.cache = cache

    def embed_query(self, text: str, ctx: "RequestContext") -> np.ndarray:
        cached = self.cache.peek(text)
        if cached is not None:
            ctx.registry.counter("repro.engine.embedding_cache.hits").inc()
            ctx.cache_txn.touch(self.cache, text)
            return cached  # vectors are never mutated downstream
        ctx.registry.counter("repro.engine.embedding_cache.misses").inc()
        vec = self.inner.embed_query(text, tokens=read_question(text, ctx).tokens)
        vec.flags.writeable = False
        ctx.cache_txn.write(self.cache, text, vec)
        return vec


class CachingRetriever(Retriever):
    """Retrieval LRU in front of any :class:`Retriever`.

    The cache key is (retriever name, query, k); values are the hit
    lists, copied shallowly on the way out so callers can slice and
    reorder without corrupting the cached entry.
    """

    def __init__(self, inner: Retriever, cache: LRUCache) -> None:
        self.inner = inner
        self.name = inner.name
        self.cache = cache

    @property
    def store(self):
        """Proxy to the wrapped retriever's vector store (workflow feed)."""
        return self.inner.store

    def retrieve(
        self, query: str, *, k: int = 8, ctx: "RequestContext"
    ) -> list[RetrievedDocument]:
        key = (self.name, query, k)
        cached = self.cache.peek(key)
        if cached is not None:
            ctx.registry.counter("repro.engine.retrieval_cache.hits").inc()
            ctx.cache_txn.touch(self.cache, key)
            return list(cached)
        ctx.registry.counter("repro.engine.retrieval_cache.misses").inc()
        hits = self.inner.retrieve(query, k=k, ctx=ctx)
        ctx.cache_txn.write(self.cache, key, tuple(hits))
        return hits

"""The engine layer: batched query serving over a shared index artifact.

See DESIGN.md §8 for the artifact/engine/context layering and the
digest-stability contract the batch scheduler upholds.
"""

from repro.context import CacheTransaction
from repro.engine.caches import CachedEmbedding, CachingRetriever, LRUCache
from repro.engine.engine import BatchResult, QueryEngine

__all__ = [
    "BatchResult",
    "CacheTransaction",
    "CachedEmbedding",
    "CachingRetriever",
    "LRUCache",
    "QueryEngine",
]

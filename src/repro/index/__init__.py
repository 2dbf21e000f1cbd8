"""The index layer: build once, content-hash, share everywhere.

Splits corpus → chunk → embed → vector-store construction out of the
pipeline constructors into an immutable, cacheable
:class:`~repro.index.artifact.IndexArtifact` keyed by a digest of the
corpus and the index-relevant config.  See DESIGN.md §8.
"""

from repro.index.artifact import (
    IndexArtifact,
    artifact_digest,
    config_fingerprint,
    corpus_digest,
)
from repro.index.builder import (
    CATALOG,
    IndexCatalog,
    clear_index_cache,
    get_or_build_index,
    read_cached_payload,
)
from repro.index.sharding import ShardPlan, ShardSpec, composite_digest, plan_shards

__all__ = [
    "CATALOG",
    "IndexArtifact",
    "IndexCatalog",
    "ShardPlan",
    "ShardSpec",
    "artifact_digest",
    "clear_index_cache",
    "composite_digest",
    "config_fingerprint",
    "corpus_digest",
    "get_or_build_index",
    "plan_shards",
    "read_cached_payload",
]

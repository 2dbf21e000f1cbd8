"""One write path: the unified ingestion lifecycle.

Every mutation of the knowledge base flows through this package —
corpus revisions via :func:`ingest_corpus` (load → split →
content-address → diff → embed-only-changed → apply to dirty shards →
epoch swap → scoped cache invalidation) and live-store insertions via
:func:`apply_documents`.  Direct ``VectorStore.add_documents`` calls
are deprecated in favor of these entry points.

Layering: :mod:`repro.ingest.identity` and :mod:`repro.ingest.delta`
are leaves (documents-only imports) — the chunker takes its per-source
digests from the former; :mod:`repro.ingest.lifecycle` and
:mod:`repro.ingest.invalidation` sit *above* the index and engine
layers and are therefore exposed lazily — importing them eagerly here
would cycle back through ``repro.corpus.builder``, which imports
:mod:`repro.ingest.identity`.
"""

from repro.ingest.delta import (
    ChunkRef,
    CorpusDelta,
    delta_from_added_documents,
    diff_chunks,
)
from repro.ingest.identity import (
    chunk_address,
    chunk_id,
    normalized_text,
    source_digest,
)

__all__ = [
    "ChunkRef",
    "CorpusDelta",
    "IngestReport",
    "apply_documents",
    "chunk_address",
    "chunk_id",
    "delta_from_added_documents",
    "diff_chunks",
    "ingest_corpus",
    "invalidate_engine_caches",
    "normalized_text",
    "source_digest",
]

_LAZY = {
    "IngestReport": ("repro.ingest.lifecycle", "IngestReport"),
    "apply_documents": ("repro.ingest.lifecycle", "apply_documents"),
    "ingest_corpus": ("repro.ingest.lifecycle", "ingest_corpus"),
    "invalidate_engine_caches": (
        "repro.ingest.invalidation",
        "invalidate_engine_caches",
    ),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro.ingest' has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

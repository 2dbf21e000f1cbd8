"""One write path: the unified ingestion lifecycle.

Every change to the knowledge base is a corpus revision handed to
:func:`ingest_corpus` (load → split → content-address → diff →
embed-only-changed → rebuild dirty shards → epoch swap onto a new cache
generation carrying forward the unaffected entries).  Stores and
artifacts are values: nothing writes to one after it is built, so "add
these documents" is an ingest of the bundle that holds them (the
workflow's history feed is exactly that).

Layering: :mod:`repro.ingest.identity` and :mod:`repro.ingest.delta`
are leaves (documents-only imports) — the chunker takes its per-source
digests from the former; :mod:`repro.ingest.lifecycle` and
:mod:`repro.ingest.invalidation` sit *above* the index and engine
layers, so the former is exposed lazily and the latter is imported by
the engine's swap — importing them eagerly here would cycle back
through ``repro.corpus.builder``, which imports
:mod:`repro.ingest.identity`.
"""

from repro.ingest.delta import ChunkRef, CorpusDelta, diff_chunks
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
    "chunk_address",
    "chunk_id",
    "diff_chunks",
    "ingest_corpus",
    "normalized_text",
    "source_digest",
]

_LAZY = {
    "IngestReport": ("repro.ingest.lifecycle", "IngestReport"),
    "ingest_corpus": ("repro.ingest.lifecycle", "ingest_corpus"),
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

"""The immutable product of index construction.

An :class:`IndexArtifact` is everything query-time code needs from the
corpus — chunks, the fitted embedding model, the populated vector store,
the manual-page name table, the fact registry — plus a content digest
that names it.  The digest is a pure function of the corpus and the
index-relevant configuration, so two builds over the same inputs produce
the same digest whether they ran in this process, a previous process, or
were loaded from the disk cache.

Artifacts are *shared*: every pipeline mode, bot, evaluation run, and
benchmark in a process answers over one artifact instead of rebuilding
the index per constructor.  The sharing contract is immutability, and
it is structural: the stores expose no write method, so the engine
serves from views over the artifact's own shard stores and a changed
corpus — the workflow feeding vetted history back into the RAG
database included — is a new artifact (:func:`repro.ingest.ingest_corpus`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.config import RetrievalConfig, ReproConfig
from repro.corpus.builder import CorpusBundle
from repro.corpus.facts import FactRegistry
from repro.documents import Document
from repro.embeddings.base import EmbeddingModel
from repro.retrieval.keyword import ManualPageKeywordSearch
from repro.vectorstore.store import VectorStore

if TYPE_CHECKING:
    from repro.vectorstore.sharded import ShardedVectorStore

#: Format version folded into every digest; bump on layout changes so
#: stale disk caches miss instead of loading garbage.
ARTIFACT_VERSION = 1


def corpus_digest(bundle: CorpusBundle) -> str:
    """SHA-256 over every document's (source, text), in corpus order."""
    h = hashlib.sha256()
    for doc in bundle.documents:
        h.update(str(doc.metadata.get("source", "")).encode())
        h.update(b"\x1f")
        h.update(doc.text.encode())
        h.update(b"\x1e")
    return h.hexdigest()


def config_fingerprint(config: ReproConfig | RetrievalConfig) -> dict:
    """The index-relevant configuration slice.

    Only parameters that change the *contents* of the index belong here
    — chat model, resilience, and observability settings all vary freely
    over one artifact.
    """
    rc = config.retrieval if isinstance(config, ReproConfig) else config
    return {
        "version": ARTIFACT_VERSION,
        "embedding_model": rc.embedding_model,
        "chunk_size": rc.chunk_size,
        "chunk_overlap": rc.chunk_overlap,
        "include_mail_archives": rc.include_mail_archives,
    }


def artifact_digest(corpus: str, fingerprint: dict) -> str:
    """The artifact's name: SHA-256 over corpus digest + fingerprint."""
    payload = json.dumps(
        {"corpus": corpus, "config": fingerprint},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class IndexArtifact:
    """One built index: immutable, content-hashed, shareable.

    The artifact :func:`~repro.index.get_or_build_index` returns is a
    *composite* over ``shards`` — one child artifact per planned shard,
    one by default — and is named by the SHA-256 of the sorted per-shard
    digests; its ``store`` is the scatter-gather
    :class:`~repro.vectorstore.ShardedVectorStore` over the shard
    stores and its ``chunks`` concatenate the shard chunk lists in shard
    order.  A shard is an :class:`IndexArtifact` with no children whose
    ``store`` is a plain :class:`~repro.vectorstore.VectorStore`.

    Attributes
    ----------
    digest:
        Content hash over (corpus, index config); the cache key on disk
        and in memory, and a component of every answer-cache key.
    corpus_digest / fingerprint:
        The digest's two inputs, kept for inspection and manifests.
    chunks:
        The tagged retrieval chunks, in deterministic corpus order
        (rerankers fit their IDF tables on these).
    embedding:
        The fitted embedding model the store's vectors came from.
    store:
        The populated vector store; read-only, like every store.
    manual_pages:
        Manual-page name → document, for exact keyword lookup.
    registry:
        Ground-truth fact registry (simulated models and graders need it).
    parent_digest:
        Lineage: the artifact this shard's build copied vector rows
        from; ``None`` when it embedded every chunk itself.  The lineage
        never feeds :attr:`digest` — a build that reused rows is
        value-identical to one that did not and shares its name.
    source_digests:
        Source path → sha256 of the source text the chunks came from.
        The next build over this artifact re-chunks only the sources
        whose digest moved.
    shards:
        The per-shard child artifacts, in shard order (empty on a shard).
    """

    digest: str
    corpus_digest: str
    fingerprint: dict
    chunks: list[Document]
    embedding: EmbeddingModel
    store: "VectorStore | ShardedVectorStore"
    manual_pages: dict[str, Document] = field(default_factory=dict)
    registry: FactRegistry | None = None
    parent_digest: str | None = None
    source_digests: dict[str, str] = field(default_factory=dict)
    shards: "list[IndexArtifact]" = field(default_factory=list)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------ consumers
    def keyword_search(self) -> ManualPageKeywordSearch:
        """A new keyword retriever over the manual-page table.

        Its option-key index is wiring: each page's keys come from the
        process-wide memo keyed by the page text, so a retriever built for
        a new cache generation scans only the pages an edit wrote.
        """
        return ManualPageKeywordSearch(self.manual_pages)

    def summary(self) -> dict:
        """Manifest-shaped description (what ``artifact.json`` stores)."""
        return {
            "digest": self.digest,
            "corpus_digest": self.corpus_digest,
            "fingerprint": dict(self.fingerprint),
            "chunk_count": len(self.chunks),
            "manual_page_count": len(self.manual_pages),
            "embedding_model": self.embedding.name,
            "embedding_dim": self.embedding.dim,
            "parent_digest": self.parent_digest,
            "num_shards": self.num_shards,
            "shard_digests": [s.digest for s in self.shards],
        }

    def shard_summaries(self) -> list[dict]:
        """Per-shard inspection rows (CLI ``repro metrics`` shard table)."""
        return [
            {
                "shard": i,
                "digest": s.digest,
                "chunks": len(s.chunks),
                "manual_pages": len(s.manual_pages),
                "vectors": len(s.store),
            }
            for i, s in enumerate(self.shards)
        ]

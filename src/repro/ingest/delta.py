"""The typed corpus delta: what changed between two chunk lists.

A :class:`CorpusDelta` is the contract between the diff stage of the
ingestion lifecycle and everything downstream of it — the ingest
report (the build embedded exactly ``added + modified + reembedded``)
and the scoped cache invalidation (drop exactly the entries those
chunks could affect).  It is a pure value computed from two chunk lists
and the embedding models on either side; no stage mutates it.

Classification is two-level (see :mod:`repro.ingest.identity`):

* ``doc_id`` (byte-exact) decides whether a chunk's *embedding* can be
  reused — only byte-identical chunks reuse parent vectors, which is
  what keeps a delta-built artifact bit-equal to a from-scratch build.
  Under a corpus-fitted model a byte-identical chunk is still
  ``reembedded`` when the edit moved the IDF of one of its terms.
* the content address (whitespace/NFC-normalized) decides how the
  change is *reported*: a chunk whose address survives but whose bytes
  moved is ``modified`` (a cosmetic rewrite), one with a fresh address
  is ``added``, one whose address disappeared is ``removed``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

from repro.documents.document import Document
from repro.ingest.identity import chunk_id


@dataclass(frozen=True)
class ChunkRef:
    """A chunk that left the corpus: enough identity to invalidate by."""

    address: str
    doc_id: str
    source: str


@dataclass
class CorpusDelta:
    """Chunk-level difference between a parent artifact and its successor.

    Attributes
    ----------
    parent_digest / target_digest:
        Artifact digests on either side of the delta.
    added:
        Chunks whose content address is new — genuinely new knowledge.
    modified:
        Chunks whose content address survived but whose exact bytes
        changed (whitespace/markup-only edits).  Re-embedded, but
        reported separately so operators can see cosmetic churn.
    removed:
        References to chunks whose content address disappeared.
    unchanged:
        Count of chunks whose bytes did not change; their vectors are
        reused too, except for the ``reembedded`` ones.
    reembedded:
        The unchanged chunks whose vector was recomputed all the same: a
        corpus-fitted model's weight for one of their terms moved
        (always empty under a hashing model).  Reported apart from
        ``added``/``modified`` and kept out of :attr:`digest`.
    sources_changed:
        The ``source`` paths whose documents changed, sorted.
    """

    parent_digest: str = ""
    target_digest: str = ""
    added: list[Document] = field(default_factory=list)
    modified: list[Document] = field(default_factory=list)
    removed: list[ChunkRef] = field(default_factory=list)
    unchanged: int = 0
    reembedded: list[Document] = field(default_factory=list)
    sources_changed: tuple[str, ...] = ()

    # ------------------------------------------------------------ views
    @property
    def embed_count(self) -> int:
        """Chunks the delta build must actually embed."""
        return len(self.added) + len(self.modified) + len(self.reembedded)

    @property
    def total(self) -> int:
        """Chunk count of the successor corpus."""
        return len(self.added) + len(self.modified) + self.unchanged

    def embedded_chunks(self) -> list[Document]:
        return list(self.added) + list(self.modified) + list(self.reembedded)

    def stale_doc_ids(self) -> set[str]:
        """Byte-exact ids whose cached hits are stale: no longer served
        (dropped or rewritten), or served with a recomputed vector."""
        return {ref.doc_id for ref in self.removed} | {d.doc_id for d in self.reembedded}

    @property
    def digest(self) -> str:
        """The delta's own content hash (``delta_digest`` in :meth:`summary`)."""
        payload = json.dumps(
            {
                "parent": self.parent_digest,
                "target": self.target_digest,
                "added": sorted(d.doc_id for d in self.added),
                "modified": sorted(d.doc_id for d in self.modified),
                "removed": sorted(ref.doc_id for ref in self.removed),
                "unchanged": self.unchanged,
            },
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def summary(self) -> dict:
        return {
            "added": len(self.added),
            "modified": len(self.modified),
            "removed": len(self.removed),
            "unchanged": self.unchanged,
            "reembedded": len(self.reembedded),
            "embedded": self.embed_count,
            "total": self.total,
            "sources_changed": list(self.sources_changed),
            "delta_digest": self.digest,
        }


def diff_chunks(
    old_chunks: list[Document],
    new_chunks: list[Document],
    *,
    parent_digest: str = "",
    target_digest: str = "",
    moved: Callable[[str], bool] | None = None,
) -> CorpusDelta:
    """Classify every chunk of ``new_chunks`` against ``old_chunks``.

    Byte-identical chunks (same ``doc_id``) are unchanged; the rest are
    split into added / modified / removed by content address.  Sources
    touched by any non-unchanged chunk land in ``sources_changed``.
    ``moved`` is the new embedding model's
    :meth:`~repro.embeddings.base.EmbeddingModel.moved_since` the old
    one: the unchanged chunks it flags are listed as ``reembedded``.
    """
    # ``doc_id`` hashes the whole chunk text: take it once per chunk.
    old_doc_ids = [c.doc_id for c in old_chunks]
    new_doc_ids = [c.doc_id for c in new_chunks]
    old_by_doc_id = set(old_doc_ids)
    new_by_doc_id = set(new_doc_ids)
    old_addresses = {chunk_id(c) for c in old_chunks}

    delta = CorpusDelta(parent_digest=parent_digest, target_digest=target_digest)
    sources: set[str] = set()
    for chunk, doc_id in zip(new_chunks, new_doc_ids):
        if doc_id in old_by_doc_id:
            delta.unchanged += 1
            if moved is not None and moved(chunk.text):
                delta.reembedded.append(chunk)
            continue
        sources.add(str(chunk.metadata.get("source", "")))
        if chunk_id(chunk) in old_addresses:
            delta.modified.append(chunk)
        else:
            delta.added.append(chunk)
    for chunk, doc_id in zip(old_chunks, old_doc_ids):
        if doc_id in new_by_doc_id:
            continue
        # Removed outright, or rewritten in place (the new bytes are
        # already in ``modified``): either way record the old bytes so
        # caches holding them can be invalidated.
        source = str(chunk.metadata.get("source", ""))
        sources.add(source)
        delta.removed.append(
            ChunkRef(address=chunk_id(chunk), doc_id=doc_id, source=source)
        )
    delta.sources_changed = tuple(sorted(sources))
    return delta

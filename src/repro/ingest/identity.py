"""Content-addressed chunk identity.

Every retrieval chunk gets a stable *content address*: the SHA-256 of
its whitespace-normalized, NFC-normalized text plus its ``source``
metadata.  The address is the unit of change the ingestion lifecycle
reasons about — a chunk whose address survives a corpus edit did not
change in any way retrieval cares about, so its embedding (and every
cache entry that depends only on it) can be reused.

Two deliberate invariances:

* **Whitespace**: runs of any whitespace collapse to one space before
  hashing, so reflowing a paragraph or converting tabs to spaces does
  not re-embed the chunk's neighbours.  (The *exact* text still keys
  vector reuse — a chunk's ``doc_id`` — because embeddings tokenize
  raw text; the content address only classifies the edit.)
* **Unicode normalization**: text is NFC-normalized first, so an editor
  that re-encodes ``é`` from combining form to precomposed form is not
  a content change.

The address is distinct from :attr:`~repro.documents.Document.doc_id`
(which hashes the exact text plus chunk metadata): ``doc_id`` answers
"is this byte-for-byte the same chunk?", the content address answers
"is this the same piece of knowledge?".
"""

from __future__ import annotations

import hashlib
import re
import unicodedata
from functools import lru_cache

from repro.documents.document import Document

_WS_RE = re.compile(r"\s+")


def normalized_text(text: str) -> str:
    """NFC-normalize and collapse all whitespace runs to single spaces."""
    return _WS_RE.sub(" ", unicodedata.normalize("NFC", text)).strip()


@lru_cache(maxsize=8192)  # an ingest diffs the same chunks twice (shard, composite)
def chunk_address(text: str, source: str = "") -> str:
    """The content address of a chunk: sha256(normalized text + source)."""
    h = hashlib.sha256()
    h.update(normalized_text(text).encode("utf-8", errors="replace"))
    h.update(b"\x1f")
    h.update(str(source).encode("utf-8", errors="replace"))
    return h.hexdigest()


def chunk_id(chunk: Document) -> str:
    """The content address of a chunk document."""
    return chunk_address(chunk.text, str(chunk.metadata.get("source", "")))


def source_digest(text: str) -> str:
    """Per-source document digest (exact text; drives re-chunk decisions)."""
    return hashlib.sha256(text.encode("utf-8", errors="replace")).hexdigest()

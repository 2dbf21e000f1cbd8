"""The Document value type flowing through every retrieval stage."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.utils.rng import stable_hash


@dataclass(frozen=True)
class Document:
    """A chunk of text plus provenance metadata.

    A document is a value: nothing assigns its ``text`` or ``metadata``
    after construction, which is what lets :attr:`doc_id` be computed
    once per object.

    Attributes
    ----------
    text:
        The chunk content (Markdown or plain text).
    metadata:
        Provenance and typing information.  Well-known keys used across
        the library:

        ``source``      path or URL of the originating file,
        ``doc_type``    one of ``manual_page``/``manual_chapter``/``faq``/
                        ``tutorial``/``mail_thread``/``misc``,
        ``title``       human-readable title,
        ``section``     markdown section path (``"KSP / Convergence"``),
        ``facts``       comma-separated fact ids asserted by this chunk
                        (see :mod:`repro.corpus.facts`),
        ``chunk``       integer chunk index within the source.
    """

    text: str
    metadata: dict[str, Any] = field(default_factory=dict)

    @cached_property
    def doc_id(self) -> str:
        """A stable content-derived identifier, hashed once per object.

        Two documents with identical text *and* identical source/chunk
        metadata share an id; this is what the vector store dedupes on.
        """
        key = "\x1f".join(
            (
                self.text,
                str(self.metadata.get("source", "")),
                str(self.metadata.get("chunk", "")),
            )
        )
        return f"doc-{stable_hash(key, namespace='docid'):016x}"

    def fact_ids(self) -> frozenset[str]:
        """Fact ids asserted by this chunk (empty if untagged)."""
        raw = self.metadata.get("facts", "")
        if not raw:
            return frozenset()
        return frozenset(f.strip() for f in str(raw).split(",") if f.strip())

    def __len__(self) -> int:
        return len(self.text)

"""Text splitters producing retrieval-sized chunks.

:class:`RecursiveCharacterTextSplitter` reimplements the LangChain
algorithm named in the paper: try the coarsest separator first
(paragraph breaks), recurse into finer separators only for pieces that
are still too long, then merge adjacent pieces up to the chunk size with
a configurable overlap.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod

from repro.documents.document import Document
from repro.errors import DocumentError

_HEADER_RE = re.compile(r"^(#{1,6})\s+(.*)$")


class TextSplitter(ABC):
    """Base class: split documents into chunk documents with provenance."""

    @abstractmethod
    def split_text(self, text: str) -> list[str]:
        """Split raw text into chunk strings."""

    def split_documents(self, documents: list[Document]) -> list[Document]:
        """Split each document; chunks inherit metadata plus a chunk index."""
        out: list[Document] = []
        for doc in documents:
            for i, chunk in enumerate(self.split_text(doc.text)):
                md = dict(doc.metadata)
                md["chunk"] = i
                out.append(Document(text=chunk, metadata=md))
        return out


class RecursiveCharacterTextSplitter(TextSplitter):
    """Recursive separator-based splitter with overlap.

    Parameters
    ----------
    chunk_size:
        Target maximum chunk length in characters.
    chunk_overlap:
        Characters of trailing context repeated at the start of the next
        chunk.  Must be smaller than ``chunk_size``.
    separators:
        Ordered coarse-to-fine separators.  The default mirrors
        LangChain: paragraph, line, sentence-ish space, character.
    """

    DEFAULT_SEPARATORS: tuple[str, ...] = ("\n\n", "\n", " ", "")

    def __init__(
        self,
        *,
        chunk_size: int = 800,
        chunk_overlap: int = 120,
        separators: tuple[str, ...] | None = None,
    ) -> None:
        if chunk_size <= 0:
            raise DocumentError(f"chunk_size must be positive, got {chunk_size}")
        if not 0 <= chunk_overlap < chunk_size:
            raise DocumentError(
                f"chunk_overlap must be in [0, chunk_size), got {chunk_overlap} for chunk_size {chunk_size}"
            )
        self.chunk_size = chunk_size
        self.chunk_overlap = chunk_overlap
        self.separators = separators or self.DEFAULT_SEPARATORS
        if self.separators[-1] != "":
            raise DocumentError("the final separator must be '' (character-level fallback)")

    def split_text(self, text: str) -> list[str]:
        if not text.strip():
            return []
        pieces = self._split_recursive(text, 0)
        return self._merge(pieces)

    def _split_recursive(self, text: str, sep_index: int) -> list[str]:
        """Break ``text`` into pieces each no longer than ``chunk_size``."""
        if len(text) <= self.chunk_size:
            return [text] if text else []
        sep = self.separators[sep_index]
        if sep == "":
            # Character-level fallback: hard slices.
            return [
                text[i : i + self.chunk_size] for i in range(0, len(text), self.chunk_size)
            ]
        parts = text.split(sep)
        pieces: list[str] = []
        for j, part in enumerate(parts):
            # Re-attach the separator so merging can reconstruct prose.
            chunk = part + (sep if j < len(parts) - 1 else "")
            if len(chunk) <= self.chunk_size:
                if chunk:
                    pieces.append(chunk)
            else:
                pieces.extend(self._split_recursive(chunk, sep_index + 1))
        return pieces

    def _merge(self, pieces: list[str]) -> list[str]:
        """Greedily pack pieces into chunks of at most ``chunk_size``."""
        chunks: list[str] = []
        current = ""
        for piece in pieces:
            if current and len(current) + len(piece) > self.chunk_size:
                chunks.append(current.strip())
                # Seed the next chunk with overlap from the end of this one.
                if self.chunk_overlap > 0:
                    current = current[-self.chunk_overlap :] + piece
                else:
                    current = piece
            else:
                current += piece
        if current.strip():
            chunks.append(current.strip())
        return [c for c in chunks if c]


class MarkdownHeaderTextSplitter(TextSplitter):
    """Split Markdown on headers, tagging chunks with their section path.

    Each chunk's section path is exposed via ``split_documents`` metadata
    under ``section`` (e.g. ``"KSP / Convergence Tests"``).  Fenced code
    blocks are never split across chunks.
    """

    def __init__(self, *, max_depth: int = 3) -> None:
        if not 1 <= max_depth <= 6:
            raise DocumentError(f"max_depth must be in [1, 6], got {max_depth}")
        self.max_depth = max_depth

    def split_text(self, text: str) -> list[str]:
        return [body for _, body in self.split_sections(text)]

    def split_sections(self, text: str) -> list[tuple[str, str]]:
        """Return ``(section_path, body)`` pairs."""
        lines = text.splitlines()
        sections: list[tuple[str, list[str]]] = []
        stack: list[str] = []
        body: list[str] = []
        in_fence = False

        def flush() -> None:
            content = "\n".join(body).strip()
            if content:
                sections.append((" / ".join(stack), body.copy()))
            body.clear()

        for line in lines:
            if line.startswith("```"):
                in_fence = not in_fence
                body.append(line)
                continue
            m = None if in_fence else _HEADER_RE.match(line)
            if m and len(m.group(1)) <= self.max_depth:
                flush()
                depth = len(m.group(1))
                del stack[depth - 1 :]
                stack.append(m.group(2).strip())
            else:
                body.append(line)
        flush()
        return [(path, "\n".join(b).strip()) for path, b in sections]

    def split_documents(self, documents: list[Document]) -> list[Document]:
        out: list[Document] = []
        for doc in documents:
            for i, (path, chunk) in enumerate(self.split_sections(doc.text)):
                md = dict(doc.metadata)
                md["chunk"] = i
                if path:
                    md["section"] = path
                    # The section path is strong retrieval signal ("Choosing
                    # a Krylov Method") — keep it in the chunk text.
                    chunk = f"{path}\n\n{chunk}"
                out.append(Document(text=chunk, metadata=md))
        return out

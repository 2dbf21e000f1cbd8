"""Corpus assembly: render specs, write the Markdown tree, produce chunks.

The builder is the single entry point the rest of the library uses:

>>> corpus = build_default_corpus()
>>> len(corpus.documents) > 50
True

It renders every spec against the fact registry, optionally writes the
result to an on-disk tree shaped like the PETSc docs repository
(``manualpages/``, ``manual/``, ``faq.md``, ``tutorials/``,
``archives/petsc-users.jsonl``), and produces retrieval chunks tagged
with the fact ids they assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.corpus.chapters import manual_chapters
from repro.corpus.facts import FactRegistry, default_registry
from repro.corpus.faq import faq_entries
from repro.corpus.mailing_list import mail_threads
from repro.corpus.manpages_ksp import ksp_function_pages, ksp_type_pages
from repro.corpus.manpages_mat import mat_vec_pages
from repro.corpus.manpages_misc import misc_pages
from repro.corpus.manpages_pc import pc_pages
from repro.corpus.model import ManualPageSpec
from repro.corpus.tutorials import tutorial_pages
from repro.documents import Document, MarkdownHeaderTextSplitter, RecursiveCharacterTextSplitter
from repro.errors import CorpusError


@dataclass
class CorpusBundle:
    """The fully rendered knowledge base.

    Attributes
    ----------
    registry:
        Ground-truth facts and falsehoods.
    documents:
        One :class:`Document` per source page (unchunked).
    manual_page_names:
        All manual-page identifiers, for PETSc-specific keyword search.
    """

    registry: FactRegistry
    documents: list[Document] = field(default_factory=list)
    manual_page_names: dict[str, Document] = field(default_factory=dict)

    def official(self) -> list[Document]:
        """The official knowledge base: everything except mail archives.

        Mirrors the paper's distinction between the official (reviewed)
        and unofficial knowledge bases; the default RAG database is built
        from the official subset only.
        """
        return [d for d in self.documents if d.metadata.get("doc_type") != "mail_thread"]

    def manual_page(self, name: str) -> Document | None:
        return self.manual_page_names.get(name)


class CorpusBuilder:
    """Renders all corpus specs into documents and chunks."""

    def __init__(self, registry: FactRegistry | None = None) -> None:
        self.registry = registry or default_registry()

    # ------------------------------------------------------------- rendering
    def build(self) -> CorpusBundle:
        bundle = CorpusBundle(registry=self.registry)

        man_pages: list[ManualPageSpec] = []
        man_pages += ksp_type_pages()
        man_pages += ksp_function_pages()
        man_pages += pc_pages()
        man_pages += mat_vec_pages()
        man_pages += misc_pages()

        seen: set[str] = set()
        for spec in man_pages:
            if spec.name in seen:
                raise CorpusError(f"duplicate manual page {spec.name!r}")
            seen.add(spec.name)
            doc = Document(
                text=spec.render(self.registry),
                metadata={
                    "source": f"manualpages/{spec.name}.md",
                    "doc_type": "manual_page",
                    "title": spec.name,
                    "level": spec.level,
                },
            )
            bundle.documents.append(doc)
            bundle.manual_page_names[spec.name] = doc

        for chap in manual_chapters():
            bundle.documents.append(Document(
                text=chap.render(self.registry),
                metadata={
                    "source": f"manual/{chap.slug}.md",
                    "doc_type": "manual_chapter",
                    "title": chap.title,
                },
            ))

        faq_md = ["# PETSc Frequently Asked Questions", ""]
        for entry in faq_entries():
            faq_md.append(entry.render(self.registry))
        bundle.documents.append(Document(
            text="\n".join(faq_md),
            metadata={"source": "faq.md", "doc_type": "faq", "title": "PETSc FAQ"},
        ))

        for tut in tutorial_pages():
            bundle.documents.append(Document(
                text=tut.render(self.registry),
                metadata={
                    "source": f"tutorials/{tut.slug}.md",
                    "doc_type": "tutorial",
                    "title": tut.title,
                },
            ))

        for thread in mail_threads():
            bundle.documents.append(Document(
                text=thread.render(self.registry),
                metadata={
                    "source": f"archives/petsc-users/{thread.slug}.md",
                    "doc_type": "mail_thread",
                    "title": thread.subject,
                },
            ))

        return bundle

    # ------------------------------------------------------------- disk tree
    def write_tree(self, root: str | Path, bundle: CorpusBundle | None = None) -> Path:
        """Write the corpus as a Markdown tree under ``root``."""
        bundle = bundle or self.build()
        rootp = Path(root)
        for doc in bundle.documents:
            path = rootp / str(doc.metadata["source"])
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(doc.text, encoding="utf-8")
        return rootp


_TREE_DOC_TYPES = (
    ("manualpages/", "manual_page"),
    ("manual/", "manual_chapter"),
    ("tutorials/", "tutorial"),
    ("archives/", "mail_thread"),
)


def _doc_type_for_path(rel: str) -> str:
    if rel == "faq.md":
        return "faq"
    for prefix, doc_type in _TREE_DOC_TYPES:
        if rel.startswith(prefix):
            return doc_type
    return "manual_chapter"


def overlay_tree(bundle: CorpusBundle, root: str | Path) -> CorpusBundle:
    """A revised bundle: on-disk edits overlaid onto ``bundle``.

    The inverse direction of :meth:`CorpusBuilder.write_tree` for the
    ingestion lifecycle: every ``*.md`` file under ``root`` whose
    relative path matches a document's ``source`` replaces that
    document's text *in place* (same corpus position, same metadata), so
    an unedited tree reproduces the bundle's corpus digest byte for byte
    and ``repro ingest`` detects it as a no-op.  Files with no matching
    source are appended as new documents, sorted by path, with their
    ``doc_type`` inferred from the tree layout.
    """
    rootp = Path(root)
    if not rootp.is_dir():
        raise CorpusError(f"corpus tree {rootp} is not a directory")
    on_disk = {
        str(p.relative_to(rootp)): p.read_text(encoding="utf-8")
        for p in sorted(rootp.rglob("*.md"))
    }
    revised = CorpusBundle(registry=bundle.registry)
    for doc in bundle.documents:
        source = str(doc.metadata.get("source", ""))
        text = on_disk.pop(source, None)
        new_doc = doc if text is None or text == doc.text else Document(
            text=text, metadata=dict(doc.metadata)
        )
        revised.documents.append(new_doc)
        if new_doc.metadata.get("doc_type") == "manual_page":
            revised.manual_page_names[str(new_doc.metadata["title"])] = new_doc
    for rel in sorted(on_disk):
        revised.documents.append(Document(
            text=on_disk[rel],
            metadata={
                "source": rel,
                "doc_type": _doc_type_for_path(rel),
                "title": Path(rel).stem,
            },
        ))
    return revised


def tag_chunks_with_facts(chunks: list[Document], registry: FactRegistry) -> list[Document]:
    """Annotate each chunk with the fact/falsehood ids it asserts.

    Tagging is derived from the text itself (not from the specs), so it
    stays correct regardless of how the splitter cut the source pages.
    """
    tagged: list[Document] = []
    for chunk in chunks:
        facts, falsehoods = registry.detect(chunk.text)
        fact_ids = sorted(f.fact_id for f in facts)
        false_ids = sorted(f.false_id for f in falsehoods)
        md = dict(chunk.metadata)
        if fact_ids:
            md["facts"] = ",".join(fact_ids)
        if false_ids:
            md["falsehoods"] = ",".join(false_ids)
        tagged.append(Document(text=chunk.text, metadata=md))
    return tagged


def _chunk_source(
    doc: Document,
    header_splitter: MarkdownHeaderTextSplitter,
    char_splitter: RecursiveCharacterTextSplitter,
    chunk_size: int,
) -> tuple[list[Document], list[Document]]:
    """One source document's chunks, partitioned into (whole, split).

    Chunking is self-contained per source — no splitter state crosses
    document boundaries — which is what lets :func:`chunk_corpus` reuse
    a parent's chunks for the sources whose text did not change and
    still match a from-scratch pass byte-for-byte.
    """
    if doc.metadata.get("doc_type") == "manual_page" and len(doc.text) <= 4 * chunk_size:
        return [doc], []
    split_chunks: list[Document] = []
    for sec in header_splitter.split_documents([doc]):
        pieces = char_splitter.split_text(sec.text)
        section = str(sec.metadata.get("section", ""))
        for i, piece in enumerate(pieces):
            md = dict(sec.metadata)
            md["chunk"] = f"{md.get('chunk', 0)}.{i}"
            # Continuation chunks keep their section path as a heading —
            # "Choosing a Krylov Method" is retrieval signal every piece
            # of the section deserves.
            if i > 0 and section and not piece.startswith(section):
                piece = f"{section}\n\n{piece}"
            split_chunks.append(Document(text=piece, metadata=md))
    return [], split_chunks


def _chunking_docs(bundle: CorpusBundle, include_mail: bool) -> list[Document]:
    return list(bundle.documents) if include_mail else bundle.official()


def chunk_corpus(
    bundle: CorpusBundle,
    *,
    include_mail: bool = False,
    chunk_size: int = 800,
    chunk_overlap: int = 120,
    parent_chunks: Sequence[Document] = (),
    parent_source_digests: Mapping[str, str] | None = None,
    source_digests: dict[str, str] | None = None,
) -> list[Document]:
    """Split the corpus into tagged retrieval chunks.

    Manual pages are small and semantically atomic — they stay whole
    (splitting one puts its title chunk and its fact-bearing Notes chunk
    in competition, and the title always wins the similarity contest
    while telling the LLM nothing).  Long documents — users-manual
    chapters, the FAQ, tutorials, mail threads — are first split on
    Markdown headers (chunks carry a ``section`` path) and oversized
    sections then go through the recursive character splitter, the same
    two-stage scheme the paper's LangChain pipeline uses.

    Output order is all whole pages in corpus order, then all split
    chunks in corpus order — the order every artifact digest is pinned
    to.

    ``parent_source_digests`` maps each source path to the sha256 of the
    text it had when ``parent_chunks`` were produced (see
    :func:`corpus_source_digests`).  A source whose digest is unchanged
    reuses its parent chunks verbatim — tags included — so only the
    edited sources pay for the splitter and the tagger; the result is
    byte-identical to a pass with no parent, which is the same pass with
    nothing to reuse.  A ``source_digests`` dict passed in receives each
    source's digest (:func:`corpus_source_digests`), hashed once.
    """
    from repro.ingest.identity import source_digest as _source_digest

    header_splitter = MarkdownHeaderTextSplitter(max_depth=2)
    char_splitter = RecursiveCharacterTextSplitter(
        chunk_size=chunk_size, chunk_overlap=chunk_overlap
    )
    # Parent chunks grouped by source, preserving the whole/split
    # partition (whole pages are exactly the chunks with no "chunk"
    # metadata — split chunks always carry a chunk index).
    parent_whole: dict[str, list[Document]] = {}
    parent_split: dict[str, list[Document]] = {}
    for chunk in parent_chunks:
        source = str(chunk.metadata.get("source", ""))
        bucket = parent_split if "chunk" in chunk.metadata else parent_whole
        bucket.setdefault(source, []).append(chunk)

    parent_digests = parent_source_digests or {}
    whole: list[Document] = []
    split_chunks: list[Document] = []
    for doc in _chunking_docs(bundle, include_mail):
        source = str(doc.metadata.get("source", ""))
        digest = _source_digest(doc.text)
        if source_digests is not None:
            source_digests[source] = digest
        if parent_digests.get(source) == digest:
            whole.extend(parent_whole.get(source, ()))
            split_chunks.extend(parent_split.get(source, ()))
            continue
        w, s = _chunk_source(doc, header_splitter, char_splitter, chunk_size)
        whole.extend(tag_chunks_with_facts(w, bundle.registry))
        split_chunks.extend(tag_chunks_with_facts(s, bundle.registry))
    return whole + split_chunks


def corpus_source_digests(
    bundle: CorpusBundle, *, include_mail: bool = False
) -> dict[str, str]:
    """Per-source text digests for the documents chunking would consume."""
    from repro.ingest.identity import source_digest as _source_digest

    return {
        str(doc.metadata.get("source", "")): _source_digest(doc.text)
        for doc in _chunking_docs(bundle, include_mail)
    }


def build_default_corpus() -> CorpusBundle:
    """Build the default synthetic PETSc knowledge base."""
    return CorpusBuilder().build()

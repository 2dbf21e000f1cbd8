"""Unit and property tests for the text splitters."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.documents import (
    Document,
    MarkdownHeaderTextSplitter,
    RecursiveCharacterTextSplitter,
)
from repro.errors import DocumentError


class TestRecursiveCharacterTextSplitter:
    def test_short_text_single_chunk(self):
        sp = RecursiveCharacterTextSplitter(chunk_size=100, chunk_overlap=10)
        assert sp.split_text("short") == ["short"]

    def test_empty_text(self):
        sp = RecursiveCharacterTextSplitter()
        assert sp.split_text("   \n ") == []

    def test_respects_chunk_size(self):
        text = "\n\n".join(f"paragraph number {i} with some words" for i in range(40))
        sp = RecursiveCharacterTextSplitter(chunk_size=120, chunk_overlap=20)
        for chunk in sp.split_text(text):
            assert len(chunk) <= 120 + 20  # overlap seeds may extend slightly

    def test_content_preserved(self):
        text = "\n\n".join(f"para{i}" for i in range(30))
        sp = RecursiveCharacterTextSplitter(chunk_size=50, chunk_overlap=0)
        joined = " ".join(sp.split_text(text))
        for i in range(30):
            assert f"para{i}" in joined

    def test_overlap_repeats_content(self):
        text = "\n".join(f"line {i:03d}" for i in range(100))
        sp = RecursiveCharacterTextSplitter(chunk_size=100, chunk_overlap=30)
        chunks = sp.split_text(text)
        assert len(chunks) >= 2
        # The tail of chunk i must appear at the head of chunk i+1.
        assert chunks[0][-10:] in chunks[1][:60]

    def test_invalid_params(self):
        with pytest.raises(DocumentError):
            RecursiveCharacterTextSplitter(chunk_size=0)
        with pytest.raises(DocumentError):
            RecursiveCharacterTextSplitter(chunk_size=10, chunk_overlap=10)
        with pytest.raises(DocumentError):
            RecursiveCharacterTextSplitter(separators=("\n\n", "\n"))

    def test_split_documents_metadata(self):
        sp = RecursiveCharacterTextSplitter(chunk_size=50, chunk_overlap=0)
        docs = [Document(text="\n\n".join(f"para {i} text here" for i in range(10)),
                         metadata={"source": "s.md"})]
        out = sp.split_documents(docs)
        assert all(d.metadata["source"] == "s.md" for d in out)
        assert [d.metadata["chunk"] for d in out] == list(range(len(out)))

    @given(st.text(alphabet="abc \n", min_size=0, max_size=2000))
    @settings(max_examples=50, deadline=None)
    def test_never_empty_chunks(self, text):
        sp = RecursiveCharacterTextSplitter(chunk_size=64, chunk_overlap=8)
        for chunk in sp.split_text(text):
            assert chunk.strip()

    @given(
        st.integers(min_value=20, max_value=400),
        st.integers(min_value=0, max_value=19),
    )
    @settings(max_examples=30, deadline=None)
    def test_character_fallback_bounds(self, size, overlap):
        sp = RecursiveCharacterTextSplitter(chunk_size=size, chunk_overlap=overlap)
        # A single unbroken token longer than chunk_size forces the
        # character-level fallback.
        text = "x" * (size * 3 + 7)
        chunks = sp.split_text(text)
        assert all(len(c) <= size + overlap for c in chunks)


class TestMarkdownHeaderTextSplitter:
    MD = (
        "# Title\n\nintro text\n\n## Section One\n\nbody one\n\n"
        "## Section Two\n\nbody two\n\n### Deep\n\ndeep body\n"
    )

    def test_sections_found(self):
        sp = MarkdownHeaderTextSplitter(max_depth=2)
        sections = sp.split_sections(self.MD)
        paths = [p for p, _ in sections]
        assert "Title" in paths
        assert "Title / Section One" in paths

    def test_deeper_headers_stay_in_body(self):
        sp = MarkdownHeaderTextSplitter(max_depth=2)
        sections = dict(sp.split_sections(self.MD))
        assert "### Deep" in sections["Title / Section Two"]

    def test_code_fence_headers_ignored(self):
        md = "# T\n\n```\n# not a header\n```\n"
        sp = MarkdownHeaderTextSplitter()
        sections = sp.split_sections(md)
        assert len(sections) == 1
        assert "# not a header" in sections[0][1]

    def test_section_metadata_and_heading_in_text(self):
        sp = MarkdownHeaderTextSplitter(max_depth=2)
        docs = sp.split_documents([Document(text=self.MD, metadata={"source": "m"})])
        tagged = [d for d in docs if d.metadata.get("section") == "Title / Section One"]
        assert len(tagged) == 1
        assert tagged[0].text.startswith("Title / Section One")

    def test_invalid_depth(self):
        with pytest.raises(DocumentError):
            MarkdownHeaderTextSplitter(max_depth=0)


class TestChunkIdentityStability:
    """Satellite of ISSUE 10: chunk identity is stable under
    whitespace-only edits — the property the delta ingest lane leans on
    to classify a reflowed paragraph as *modified* (same content
    address) instead of removed + added."""

    def test_split_is_deterministic(self):
        from repro.ingest import chunk_id

        text = "\n\n".join(f"Paragraph {i} about KSP solvers." for i in range(30))
        doc = Document(text=text, metadata={"source": "s.md"})
        sp = RecursiveCharacterTextSplitter(chunk_size=120, chunk_overlap=20)
        first = sp.split_documents([doc])
        second = sp.split_documents([doc])
        assert [c.doc_id for c in first] == [c.doc_id for c in second]
        assert [chunk_id(c) for c in first] == [chunk_id(c) for c in second]

    @given(st.text(alphabet="abcd .\n", min_size=1, max_size=300), st.data())
    @settings(max_examples=60, deadline=None)
    def test_whitespace_normalized_equal_text_implies_equal_ids(self, text, data):
        import re

        from repro.ingest import chunk_address, normalized_text

        # Rewrite every whitespace run as a different whitespace run:
        # the canonical whitespace-only edit.
        parts = re.split(r"(\s+)", text)
        perturbed = "".join(
            data.draw(st.text(alphabet=" \t\n", min_size=1, max_size=3))
            if part and part.isspace()
            else part
            for part in parts
        )
        assert normalized_text(text) == normalized_text(perturbed)
        assert chunk_address(text, "s.md") == chunk_address(perturbed, "s.md")

    @given(st.sampled_from(["café", "café", "Ω", "Ω"]))
    @settings(max_examples=10, deadline=None)
    def test_unicode_normalization_forms_share_an_address(self, word):
        import unicodedata

        from repro.ingest import chunk_address

        nfc = unicodedata.normalize("NFC", word)
        nfd = unicodedata.normalize("NFD", word)
        assert chunk_address(nfc, "s.md") == chunk_address(nfd, "s.md")

    def test_reflowed_chunk_is_modified_not_new(self):
        from repro.ingest import diff_chunks

        old = [Document(text="use  KSPSolve\tnow", metadata={"source": "s.md"})]
        new = [Document(text="use KSPSolve now", metadata={"source": "s.md"})]
        delta = diff_chunks(old, new)
        assert [d.text for d in delta.modified] == ["use KSPSolve now"]
        assert not delta.added

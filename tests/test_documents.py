"""Unit tests for the Document type and loaders."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.documents import (
    DirectoryLoader,
    Document,
    JsonLinesLoader,
    MarkdownLoader,
    TextLoader,
)
from repro.errors import DocumentError


class TestDocument:
    def test_doc_id_stable(self):
        a = Document(text="hello", metadata={"source": "x.md", "chunk": 0})
        b = Document(text="hello", metadata={"source": "x.md", "chunk": 0})
        assert a.doc_id == b.doc_id

    def test_doc_id_differs_by_chunk(self):
        a = Document(text="hello", metadata={"source": "x.md", "chunk": 0})
        b = Document(text="hello", metadata={"source": "x.md", "chunk": 1})
        assert a.doc_id != b.doc_id

    def test_fact_ids_parsing(self):
        d = Document(text="t", metadata={"facts": "a.b, c.d ,"})
        assert d.fact_ids() == frozenset({"a.b", "c.d"})

    def test_fact_ids_empty(self):
        assert Document(text="t").fact_ids() == frozenset()

    def test_len(self):
        assert len(Document(text="abcd")) == 4

    def test_doc_id_memo_is_not_a_field(self):
        # The memo lives beside the fields, never among them: equality,
        # repr and asdict read the same before and after the first access.
        d = Document(text="hello", metadata={"source": "x.md", "chunk": 0})
        fresh = Document(text="hello", metadata={"source": "x.md", "chunk": 0})
        before = (repr(d), dataclasses.asdict(d))
        assert d.doc_id == fresh.doc_id
        assert [f.name for f in dataclasses.fields(d)] == ["text", "metadata"]
        assert (repr(d), dataclasses.asdict(d)) == before
        assert d == Document(text="hello", metadata={"source": "x.md", "chunk": 0})
        assert d != Document(text="hello", metadata={"source": "y.md", "chunk": 0})

    def test_copies_get_their_own_doc_id(self):
        d = Document(text="hello", metadata={"source": "x.md", "chunk": 0})
        original = d.doc_id
        moved = dataclasses.replace(d, metadata={**d.metadata, "source": "y.md"})
        assert moved.doc_id == Document(text="hello", metadata=moved.metadata).doc_id
        assert moved.doc_id != original
        retexted = dataclasses.replace(d, text="other")
        assert retexted.doc_id == Document(text="other", metadata=d.metadata).doc_id
        assert retexted.doc_id != original
        assert d.doc_id == original

    def test_deepcopy_and_pickle_keep_a_true_doc_id(self):
        d = Document(text="hello", metadata={"source": "x.md", "chunk": 0})
        for accessed_first in (False, True):
            if accessed_first:
                d.doc_id
            for clone in (copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
                assert clone == d
                recomputed = Document(text=clone.text, metadata=dict(clone.metadata))
                assert clone.doc_id == recomputed.doc_id == d.doc_id

    def test_document_is_frozen(self):
        d = Document(text="hello", metadata={"source": "x.md"})
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.text = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.metadata = {}


class TestTextLoader:
    def test_loads(self, tmp_path):
        p = tmp_path / "f.txt"
        p.write_text("content here")
        docs = TextLoader(p).load()
        assert len(docs) == 1
        assert docs[0].text == "content here"
        assert docs[0].metadata["source"] == str(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DocumentError):
            TextLoader(tmp_path / "nope.txt").load()


class TestMarkdownLoader:
    def test_title_from_h1(self, tmp_path):
        p = tmp_path / "page.md"
        p.write_text("# The Title\n\nBody text.\n")
        (doc,) = MarkdownLoader(p).load()
        assert doc.metadata["title"] == "The Title"

    def test_frontmatter(self, tmp_path):
        p = tmp_path / "page.md"
        p.write_text("---\ntitle: Front\nlevel: beginner\n---\n# H\n\nBody.\n")
        (doc,) = MarkdownLoader(p).load()
        assert doc.metadata["title"] == "Front"
        assert doc.metadata["level"] == "beginner"
        assert "---" not in doc.text

    def test_html_comments_stripped(self, tmp_path):
        p = tmp_path / "page.md"
        p.write_text("# T\n\n<!-- secret -->visible\n")
        (doc,) = MarkdownLoader(p).load()
        assert "secret" not in doc.text
        assert "visible" in doc.text


class TestJsonLinesLoader:
    def test_loads_lines(self, tmp_path):
        p = tmp_path / "a.jsonl"
        p.write_text('{"text": "one", "sender": "x@y.z"}\n\n{"text": "two"}\n')
        docs = JsonLinesLoader(p).load()
        assert [d.text for d in docs] == ["one", "two"]
        assert docs[0].metadata["sender"] == "x@y.z"
        assert docs[0].metadata["source"].endswith("#L1")

    def test_missing_text_key(self, tmp_path):
        p = tmp_path / "a.jsonl"
        p.write_text('{"body": "one"}\n')
        with pytest.raises(DocumentError):
            JsonLinesLoader(p).load()

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "a.jsonl"
        p.write_text("not json\n")
        with pytest.raises(DocumentError):
            JsonLinesLoader(p).load()


class TestDirectoryLoader:
    def test_recursive_walk(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.md").write_text("# A\n\ntext\n")
        (tmp_path / "sub" / "b.txt").write_text("b")
        (tmp_path / "skip.bin").write_bytes(b"\x00")
        docs = DirectoryLoader(tmp_path).load()
        assert len(docs) == 2

    def test_glob_filter(self, tmp_path):
        (tmp_path / "a.md").write_text("# A\n")
        (tmp_path / "b.txt").write_text("b")
        docs = DirectoryLoader(tmp_path, glob="*.md").load()
        assert len(docs) == 1

    def test_non_recursive(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "b.txt").write_text("b")
        docs = DirectoryLoader(tmp_path, recursive=False).load()
        assert docs == []

    def test_not_a_directory(self, tmp_path):
        with pytest.raises(DocumentError):
            DirectoryLoader(tmp_path / "nope").load()

    def test_deterministic_order(self, tmp_path):
        for name in ("c.txt", "a.txt", "b.txt"):
            (tmp_path / name).write_text(name)
        docs = DirectoryLoader(tmp_path).load()
        assert [d.text for d in docs] == ["a.txt", "b.txt", "c.txt"]


class TestLoaderEdgeCases:
    """Degenerate inputs the ingestion lifecycle must survive: empty
    files, frontmatter-only pages, and unicode normalization forms."""

    def test_empty_text_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("")
        (doc,) = TextLoader(p).load()
        assert doc.text == ""
        assert doc.doc_id  # identity is defined even for empty text

    def test_empty_markdown_file(self, tmp_path):
        p = tmp_path / "empty.md"
        p.write_text("")
        (doc,) = MarkdownLoader(p).load()
        assert doc.text == "\n"
        assert "title" not in doc.metadata

    def test_frontmatter_only_markdown(self, tmp_path):
        p = tmp_path / "meta.md"
        p.write_text("---\ntitle: Bare\n---\n")
        (doc,) = MarkdownLoader(p).load()
        assert doc.metadata["title"] == "Bare"
        assert doc.text == "\n"

    def test_markdown_preserves_unicode_form(self, tmp_path):
        # Loaders are byte-faithful: NFC and NFD spellings of the same
        # word stay distinct documents; only the ingest *identity* layer
        # (chunk_address) treats them as the same content.
        from repro.ingest import chunk_address

        nfc, nfd = "café", "café"
        p1, p2 = tmp_path / "nfc.md", tmp_path / "nfd.md"
        p1.write_text(f"# T\n\n{nfc}\n", encoding="utf-8")
        p2.write_text(f"# T\n\n{nfd}\n", encoding="utf-8")
        (d1,) = MarkdownLoader(p1).load()
        (d2,) = MarkdownLoader(p2).load()
        assert d1.text != d2.text
        assert d1.doc_id != d2.doc_id
        assert chunk_address(d1.text, "s.md") == chunk_address(d2.text, "s.md")

    def test_jsonl_blank_lines_only(self, tmp_path):
        p = tmp_path / "blank.jsonl"
        p.write_text("\n   \n\n")
        assert JsonLinesLoader(p).load() == []

    def test_jsonl_unicode_round_trip(self, tmp_path):
        p = tmp_path / "u.jsonl"
        p.write_text('{"text": "gro\\u00dfe Matrix"}\n', encoding="utf-8")
        (doc,) = JsonLinesLoader(p).load()
        assert doc.text == "große Matrix"

    def test_directory_loader_empty_directory(self, tmp_path):
        assert DirectoryLoader(tmp_path).load() == []

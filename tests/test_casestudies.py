"""Tests for the paper's case studies (Figs. 7–8)."""

from __future__ import annotations

import pytest

from repro.errors import EvaluationError
from repro.evaluation.casestudies import (
    CASE_STUDY_1_QID,
    CASE_STUDY_2_QID,
    run_case_study,
)


class TestCaseStudies:
    def test_case_study_1_rerank_finds_ksplsqr(self, service, grader):
        res = run_case_study(CASE_STUDY_1_QID, service, grader)
        assert res.marker == "KSPLSQR"
        assert res.marker_in_rerank_context()
        # The shape constraint: reranking never scores below plain RAG.
        assert int(res.rerank_grade.score) >= int(res.rag_grade.score)
        assert "KSPLSQR" in res.rerank.answer

    def test_case_study_2_rerank_finds_info(self, service, grader):
        res = run_case_study(CASE_STUDY_2_QID, service, grader)
        assert res.marker == "-info"
        assert res.marker_in_rerank_context()
        assert int(res.rerank_grade.score) >= 3
        assert "-info" in res.rerank.answer

    def test_render_contains_both_answers(self, service, grader):
        res = run_case_study(CASE_STUDY_1_QID, service, grader)
        text = res.render()
        assert "LLM with RAG" in text
        assert "reranking-enhanced RAG" in text
        assert "contexts in common" in text

    def test_sources_listed(self, service, grader):
        res = run_case_study(CASE_STUDY_1_QID, service, grader)
        assert len(res.rag.contexts) == 4
        assert len(res.rerank.contexts) == 4

    def test_unknown_qid(self, service, grader):
        with pytest.raises(EvaluationError):
            run_case_study("Q99", service, grader)

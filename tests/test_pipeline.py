"""Tests for the RAG pipelines and the augmented workflow."""

from __future__ import annotations

import pytest

from repro.config import RetrievalConfig, ReproConfig
from repro.errors import ConfigurationError
from repro.api import open_pipeline, open_workflow
from repro.prompts import parse_rag_prompt


class TestConfigValidation:
    def test_defaults_valid(self):
        ReproConfig().validate()

    def test_bad_k(self):
        with pytest.raises(ConfigurationError):
            RetrievalConfig(first_pass_k=0).validate()

    def test_l_greater_than_k(self):
        with pytest.raises(ConfigurationError):
            RetrievalConfig(first_pass_k=4, final_l=8).validate()

    def test_unknown_reranker(self):
        with pytest.raises(ConfigurationError):
            RetrievalConfig(reranker="bogus").validate()

    def test_bad_chunking(self):
        with pytest.raises(ConfigurationError):
            RetrievalConfig(chunk_size=100, chunk_overlap=100).validate()


class TestModes:
    def test_mode_names(self, baseline_pipeline, rag_pipeline, rerank_pipeline):
        assert baseline_pipeline.mode == "baseline"
        assert rag_pipeline.mode == "rag"
        assert rerank_pipeline.mode == "rag+rerank"

    def test_unknown_mode(self, bundle, fast_config):
        with pytest.raises(ConfigurationError):
            open_pipeline(fast_config, bundle=bundle, mode="turbo")

    def test_baseline_has_no_contexts(self, baseline_pipeline):
        res = baseline_pipeline.answer("What is the default KSP type?")
        assert res.contexts == []
        assert res.rag_seconds == 0.0
        assert parse_rag_prompt(res.prompt).context is None

    def test_rag_contexts_bounded_by_l(self, rag_pipeline):
        res = rag_pipeline.answer("What is the default KSP type?")
        assert 0 < len(res.contexts) <= rag_pipeline.final_l
        assert len(res.candidates) >= len(res.contexts)

    def test_rerank_origin_tagged(self, rerank_pipeline):
        res = rerank_pipeline.answer("What is the default KSP type?")
        assert all(c.origin.startswith("rerank[") for c in res.contexts)

    def test_keyword_hits_included(self, rag_pipeline):
        res = rag_pipeline.answer("What does KSPSolve do?")
        sources = [c.document.metadata.get("source") for c in res.candidates]
        assert "manualpages/KSPSolve.md" in sources

    def test_timing_recorded(self, rerank_pipeline):
        res = rerank_pipeline.answer("How do I set tolerances?")
        assert res.rag_seconds > 0
        assert res.llm_seconds > 0
        # The root pipeline span also covers work between the stage
        # spans — never less than their sum.
        assert res.trace.root.duration >= res.rag_seconds + res.llm_seconds

    def test_prompt_contains_contexts(self, rag_pipeline):
        res = rag_pipeline.answer("How do I monitor the residual?")
        parsed = parse_rag_prompt(res.prompt)
        assert parsed.context is not None
        for c in res.contexts:
            assert c.document.text[:40] in parsed.context


class TestInvalidConstruction:
    def test_keyword_without_retriever(self, bundle, keyword_search, fast_config):
        from repro.llm import create_chat_model
        from repro.pipeline.rag import RAGPipeline

        chat = create_chat_model("gpt-4o-sim", registry=bundle.registry, iterations_per_token=0)
        # The deprecated keyword_search= shim is gone; the constructor
        # rejects the kwarg outright instead of warning and mapping it.
        with pytest.raises(TypeError):
            RAGPipeline(chat, keyword_search=keyword_search)
        with pytest.raises(ConfigurationError):
            RAGPipeline(chat, priority_retrievers=[keyword_search])

    def test_bad_l(self, bundle, fast_config):
        from repro.llm import create_chat_model
        from repro.pipeline.rag import RAGPipeline
        from repro.retrieval import VectorRetriever

        chat = create_chat_model("gpt-4o-sim", registry=bundle.registry, iterations_per_token=0)
        with pytest.raises(ConfigurationError):
            RAGPipeline(chat, retriever=None, first_pass_k=8, final_l=0)


class TestWorkflow:
    @pytest.fixture(scope="class")
    def workflow(self, bundle, fast_config):
        return open_workflow(fast_config, bundle=bundle, mode="rag+rerank")

    def test_ask_returns_html(self, workflow):
        ans = workflow.ask("How do I print the residual norm at each iteration?")
        assert "<p>" in ans.html or "<ul>" in ans.html

    def test_history_recorded(self, workflow):
        before = len(workflow.store)
        workflow.ask("What is the default preconditioner?")
        assert len(workflow.store) == before + 1
        rec = workflow.store.all()[-1]
        assert rec.mode == "rag+rerank"
        assert rec.chat_model == "gpt-4o-sim"
        assert rec.embedding_model == "petsc-embed-large"
        assert rec.context_sources

    def test_code_blocks_checked(self, workflow):
        ans = workflow.ask("How do I monitor the residual with -ksp_monitor?")
        # The simulated model emits a console example for option answers.
        assert ans.code_checks
        assert ans.all_code_ok

    def test_tags_stored(self, workflow):
        ans = workflow.ask("What is KSPGMRES?", tags=["unit-test"])
        rec = workflow.store.get(ans.interaction_id)
        assert "unit-test" in rec.tags

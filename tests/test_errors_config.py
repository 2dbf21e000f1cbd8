"""Tests for the error hierarchy and remaining config/module seams."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import repro.errors as errors
from repro.errors import ReproError
from repro.llm import ChatMessage, create_chat_model
from repro.prompts import RAG_PROMPT


class TestErrorHierarchy:
    def test_all_errors_derive_from_base(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not ReproError:
                if obj.__module__ == "repro.errors":
                    assert issubclass(obj, ReproError), name

    def test_every_error_class_is_reachable(self):
        """A class in ``errors.py`` is raised somewhere in ``src/repro``, or
        is a base of one that is — nothing in the taxonomy is only declared."""
        src_root = Path(errors.__file__).parent
        source = "\n".join(
            path.read_text(encoding="utf-8")
            for path in sorted(src_root.rglob("*.py"))
            if path.name != "errors.py"
        )
        classes = [
            obj
            for obj in vars(errors).values()
            if isinstance(obj, type) and obj.__module__ == "repro.errors"
        ]
        raised = {
            cls for cls in classes if re.search(rf"\braise {cls.__name__}\b", source)
        }
        unreachable = [
            cls.__name__
            for cls in classes
            if not any(issubclass(sub, cls) for sub in raised)
        ]
        assert not unreachable, f"declared but never raised: {unreachable}"

    def test_catching_base_catches_subsystem_errors(self):
        from repro.corpus.facts import FactRegistry

        with pytest.raises(ReproError):
            FactRegistry().fact("nope")


class TestSimulatedEdgePaths:
    @pytest.fixture(scope="class")
    def model(self, bundle, keyword_search):
        return create_chat_model(
            "gpt-4o-sim",
            registry=bundle.registry,
            known_identifiers=keyword_search.known_identifiers(),
            iterations_per_token=0,
        )

    def _complete(self, model, content):
        return model.complete([ChatMessage(role="user", content=content)]).text

    def test_vague_question_without_knowledge(self, model):
        text = self._complete(model, "### Question\n\nsome entirely unrelated topic\n")
        assert text  # vague hedge, never empty

    def test_revision_guidance_changes_answer(self, model, registry):
        from repro.prompts import REVISE_PROMPT

        ctx = registry.statement("gmres.memory_grows")
        base = self._complete(
            model, RAG_PROMPT.format(context=ctx, question="Why does GMRES memory grow?")
        )
        revised = self._complete(
            model,
            REVISE_PROMPT.format(
                guidance="mention the restart tradeoff and stagnation",
                question="Why does GMRES memory grow?",
            ),
        )
        assert revised != base

    def test_multi_turn_uses_last_user_message(self, model):
        msgs = [
            ChatMessage(role="user", content="### Question\n\nfirst question about nothing\n"),
            ChatMessage(role="assistant", content="previous answer"),
            ChatMessage(role="user", content="### Question\n\nWhat does KSPBurb do?\n"),
        ]
        out = model.complete(msgs).text
        assert "KSPBurb" in out

    def test_grounded_blend_adds_parametric_detail(self, model, registry):
        """A grounded answer may fold in confidently-known parametric
        facts beyond the context (the 'braver, not dumber' rule)."""
        ctx = registry.statement("conv.defaults")
        out = self._complete(
            model,
            RAG_PROMPT.format(
                context=ctx,
                question="What are the default tolerances and how do I change them?",
            ),
        )
        assert registry.fact("conv.defaults") in registry.facts_in(out)


class TestWorkflowConfigSurface:
    def test_retrieval_config_frozen_semantics(self):
        from repro.config import RetrievalConfig

        rc = RetrievalConfig(first_pass_k=10, final_l=5)
        rc.validate()
        assert rc.first_pass_k == 10

    def test_include_mail_archives_plumbs_through(self, bundle):
        from repro.config import RetrievalConfig, ReproConfig
        from repro.api import open_pipeline

        cfg = ReproConfig(
            retrieval=RetrievalConfig(include_mail_archives=True),
            iterations_per_token=0,
        )
        pipeline = open_pipeline(cfg, bundle=bundle, mode="rag")
        sources = set()
        for q in ("GMRES runs out of memory on a large problem",):
            for c in pipeline.answer(q).candidates:
                sources.add(c.document.metadata.get("doc_type"))
        assert "mail_thread" in sources

"""Behavioral tests for the simulated chat model.

These pin down the behavioral contract the evaluation relies on:
grounded answers assert the context facts; ungrounded questions about
unknown APIs produce fabrications; grounded ones produce refusals;
answers are deterministic.
"""

from __future__ import annotations

import pytest

from repro.llm import ChatMessage, create_chat_model
from repro.prompts import RAG_PROMPT, RAG_SYSTEM_PROMPT


@pytest.fixture(scope="module")
def model(bundle, keyword_search):
    return create_chat_model(
        "gpt-4o-sim",
        registry=bundle.registry,
        known_identifiers=keyword_search.known_identifiers(),
        iterations_per_token=0,
    )


def ask(model, question, context=None):
    if context is None:
        content = f"### Question\n\n{question}\n"
    else:
        content = RAG_PROMPT.format(context=context, question=question)
    msgs = [
        ChatMessage(role="system", content=RAG_SYSTEM_PROMPT),
        ChatMessage(role="user", content=content),
    ]
    return model.complete(msgs)


class TestGrounded:
    def test_context_fact_asserted(self, model, registry):
        stmt = registry.statement("ksplsqr.rectangular")
        res = ask(model, "Can KSP solve rectangular least squares systems?", context=stmt)
        assert registry.fact("ksplsqr.rectangular") in registry.facts_in(res.text)

    def test_no_falsehood_when_grounded(self, model, registry):
        stmt = registry.statement("gmres.memory_grows")
        res = ask(model, "Why does GMRES memory grow with iterations?", context=stmt)
        assert not registry.detect(res.text)[1]

    def test_refusal_for_unknown_api_with_context(self, model, registry):
        stmt = registry.statement("ksp.naming")
        res = ask(model, "What does KSPBurb do?", context=stmt)
        assert "no PETSc function" in res.text
        assert not registry.detect(res.text)[1]

    def test_usage_accounting(self, model):
        res = ask(model, "What is KSP?", context="KSP is the solver interface.")
        assert res.usage.prompt_tokens > 0
        assert res.usage.completion_tokens > 0
        assert res.model == "gpt-4o-sim"


class TestUngrounded:
    def test_fabricates_unknown_api(self, model, registry):
        res = ask(model, "What does KSPBurb do?")
        # The canonical KSPBurb hallucination from the paper.
        assert registry.detect(res.text)[1]

    def test_deterministic(self, model):
        a = ask(model, "How do I set solver tolerances?")
        b = ask(model, "How do I set solver tolerances?")
        assert a.text == b.text

    def test_known_fact_recalled(self, model, registry):
        # gpt-4o-sim parametrically knows conv.settolerances (pinned by
        # the stable hash; see test_llm.TestParametricKnowledge).
        assert model.knowledge.knows("conv.settolerances")
        res = ask(model, "How do I change the relative tolerance and maximum iterations of KSP?")
        assert registry.fact("conv.settolerances") in registry.facts_in(res.text)


class TestAnchoring:
    def test_tangential_context_degrades(self, model, registry):
        """With only irrelevant context, the model hedges instead of
        answering from its parametric knowledge at full strength."""
        tangential = registry.statement("pcgamg.amg")
        res = ask(model, "How do I change the relative tolerance for a KSP solve?",
                  context=tangential)
        unassisted = ask(model, "How do I change the relative tolerance for a KSP solve?")
        # The grounded-but-useless answer must differ from the unassisted one.
        assert res.text != unassisted.text


class TestRendering:
    def test_bullets_for_many_facts(self, model, registry):
        ctx = "\n\n".join(
            registry.statement(f)
            for f in ("conv.settolerances", "conv.defaults", "conv.monitor")
        )
        res = ask(model, "How do I control KSP tolerances and monitor the residual norm?", context=ctx)
        assert "- " in res.text  # itemized list for >= 3 facts

    def test_option_code_block(self, model, registry):
        ctx = registry.statement("conv.monitor")
        res = ask(model, "How can I print the residual norm at each iteration with -ksp_monitor?", context=ctx)
        assert "```" in res.text

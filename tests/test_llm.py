"""Tests for the LLM layer: base types, tokens, latency, parametric memory."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.llm import (
    CHAT_MODEL_NAMES,
    ChatMessage,
    LatencyEngine,
    ParametricKnowledge,
    count_tokens,
    create_chat_model,
)
from repro.llm.base import ChatModel, CompletionResult


class TestChatMessage:
    def test_roles_validated(self):
        ChatMessage(role="user", content="x")
        with pytest.raises(ModelError):
            ChatMessage(role="robot", content="x")


class TestCountTokens:
    def test_empty(self):
        assert count_tokens("") == 0

    def test_scales_with_length(self):
        assert count_tokens("word " * 100) > count_tokens("word " * 10)

    def test_long_identifiers_cost_more(self):
        assert count_tokens("KSPGetConvergedReason") > 1

    @given(st.text(max_size=500))
    def test_nonnegative(self, text):
        assert count_tokens(text) >= 0


class _Dummy(ChatModel):
    name = "dummy"
    context_window = 50

    def complete(self, messages, *, ctx=None):
        self._check_messages(messages)
        return CompletionResult(text="ok", model=self.name)


class TestChatModelValidation:
    def test_empty_messages(self):
        with pytest.raises(ModelError):
            _Dummy().complete([])

    def test_assistant_last_rejected(self):
        with pytest.raises(ModelError):
            _Dummy().complete([ChatMessage(role="assistant", content="x")])

    def test_context_overflow(self):
        with pytest.raises(ModelError):
            _Dummy().complete([ChatMessage(role="user", content="word " * 200)])


class TestLatencyEngine:
    def test_zero_cost_is_fast(self):
        eng = LatencyEngine(iterations_per_token=0)
        t0 = time.perf_counter()
        eng.burn(10_000)
        assert time.perf_counter() - t0 < 0.05

    def test_burn_scales(self):
        eng = LatencyEngine(iterations_per_token=4000)
        t0 = time.perf_counter()
        eng.burn(50)
        short = time.perf_counter() - t0
        t0 = time.perf_counter()
        eng.burn(500)
        long = time.perf_counter() - t0
        assert long > short

    def test_negative_rejected(self):
        with pytest.raises(ModelError):
            LatencyEngine(iterations_per_token=-1)
        with pytest.raises(ModelError):
            LatencyEngine().burn(-1)


class TestParametricKnowledge:
    def test_deterministic(self, registry):
        a = ParametricKnowledge(registry, model_name="m", knowledge_rate=0.5)
        b = ParametricKnowledge(registry, model_name="m", knowledge_rate=0.5)
        assert {f.fact_id for f in a.known_facts()} == {f.fact_id for f in b.known_facts()}

    def test_rate_zero_and_one(self, registry):
        none = ParametricKnowledge(registry, model_name="m", knowledge_rate=0.0)
        full = ParametricKnowledge(registry, model_name="m", knowledge_rate=1.0)
        assert not none.known_facts()
        assert len(full.known_facts()) == len(registry.facts)

    def test_rate_monotone(self, registry):
        lo = ParametricKnowledge(registry, model_name="m", knowledge_rate=0.2)
        hi = ParametricKnowledge(registry, model_name="m", knowledge_rate=0.8)
        lo_set = {f.fact_id for f in lo.known_facts()}
        hi_set = {f.fact_id for f in hi.known_facts()}
        assert lo_set <= hi_set  # same hash, higher threshold ⇒ superset

    def test_unknown_fact_is_false(self, registry):
        k = ParametricKnowledge(registry, model_name="m", knowledge_rate=1.0)
        assert not k.knows("not.a.fact")

    def test_invalid_rate(self, registry):
        with pytest.raises(ModelError):
            ParametricKnowledge(registry, model_name="m", knowledge_rate=1.5)

    def test_coin_deterministic_and_biased(self, registry):
        k = ParametricKnowledge(registry, model_name="m", knowledge_rate=0.5)
        assert k.coin("ctx", p=0.5) == k.coin("ctx", p=0.5)
        assert k.coin("anything", p=1.0)
        assert not k.coin("anything", p=0.0)

    def test_models_differ(self, registry):
        a = ParametricKnowledge(registry, model_name="a", knowledge_rate=0.4)
        b = ParametricKnowledge(registry, model_name="b", knowledge_rate=0.4)
        assert {f.fact_id for f in a.known_facts()} != {f.fact_id for f in b.known_facts()}


class TestModelRegistry:
    def test_known_models(self):
        assert "gpt-4o-sim" in CHAT_MODEL_NAMES
        assert len(CHAT_MODEL_NAMES) >= 4

    def test_unknown_model(self):
        with pytest.raises(ModelError):
            create_chat_model("gpt-99")

    def test_stronger_models_know_more(self, registry):
        strong = create_chat_model("gpt-4o-sim", registry=registry)
        weak = create_chat_model("llama-3-8b-sim", registry=registry)
        assert len(strong.knowledge.known_facts()) > len(weak.knowledge.known_facts())

    def test_iterations_override(self, registry):
        m = create_chat_model("gpt-4o-sim", registry=registry, iterations_per_token=0)
        assert m.latency.iterations_per_token == 0

"""Tests for prompt templates and the prompt library."""

from __future__ import annotations

import pytest

from repro.documents import Document
from repro.errors import PromptError
from repro.prompts import (
    BASELINE_PROMPT,
    RAG_PROMPT,
    PromptTemplate,
    format_context,
    parse_rag_prompt,
)
from repro.retrieval.base import RetrievedDocument


class TestPromptTemplate:
    def test_variables_discovered(self):
        t = PromptTemplate("Hello {name}, you are {role}.")
        assert t.input_variables == {"name", "role"}

    def test_format(self):
        t = PromptTemplate("{a}-{b}")
        assert t.format(a="1", b="2") == "1-2"

    def test_missing_variable(self):
        with pytest.raises(PromptError):
            PromptTemplate("{a}").format()

    def test_unexpected_variable(self):
        with pytest.raises(PromptError):
            PromptTemplate("{a}").format(a="1", b="2")

    def test_repeated_variable(self):
        t = PromptTemplate("{x} and {x}")
        assert t.format(x="y") == "y and y"


class TestFormatContext:
    def test_numbered_with_sources(self):
        hits = [
            RetrievedDocument(
                document=Document(text="text one", metadata={"source": "a.md"}),
                score=1.0, origin="vector",
            ),
            RetrievedDocument(
                document=Document(text="text two", metadata={"source": "b.md"}),
                score=0.9, origin="vector",
            ),
        ]
        ctx = format_context(hits)
        assert "[1] source: a.md" in ctx
        assert "[2] source: b.md" in ctx
        assert "text two" in ctx


class TestParseRagPrompt:
    def test_roundtrip_rag(self):
        rendered = RAG_PROMPT.format(context="CTX HERE", question="Q HERE")
        parsed = parse_rag_prompt(rendered)
        assert parsed.context is not None
        assert parsed.context == "CTX HERE"
        assert parsed.question == "Q HERE"

    def test_roundtrip_baseline(self):
        rendered = BASELINE_PROMPT.format(question="just the question")
        parsed = parse_rag_prompt(rendered)
        assert parsed.context is None
        assert parsed.question == "just the question"

    def test_bare_text_is_question(self):
        parsed = parse_rag_prompt("no markers at all")
        assert parsed.question == "no markers at all"
        assert parsed.context is None

    def test_guidance_parsed(self):
        from repro.prompts import REVISE_PROMPT

        rendered = REVISE_PROMPT.format(guidance="be brief", question="q")
        parsed = parse_rag_prompt(rendered)
        assert parsed.guidance == "be brief"
        assert parsed.question == "q"

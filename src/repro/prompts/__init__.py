"""Prompt templating and the PETSc prompt library."""

from repro.prompts.templates import PromptTemplate
from repro.prompts.library import (
    BASELINE_PROMPT,
    RAG_PROMPT,
    RAG_SYSTEM_PROMPT,
    REVISE_PROMPT,
    format_context,
    parse_rag_prompt,
)

__all__ = [
    "PromptTemplate",
    "RAG_SYSTEM_PROMPT",
    "RAG_PROMPT",
    "BASELINE_PROMPT",
    "REVISE_PROMPT",
    "format_context",
    "parse_rag_prompt",
]

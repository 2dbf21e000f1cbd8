"""The PETSc prompt library (paper: "processing scripts, prompt libraries").

The RAG prompt uses explicit ``### Context`` / ``### Question`` section
markers.  :func:`parse_rag_prompt` is the inverse — the simulated chat
model uses it to recover the context block, and integration tests use it
to assert on exactly what the pipeline sent to the model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.prompts.templates import PromptTemplate
from repro.retrieval.base import RetrievedDocument

RAG_SYSTEM_PROMPT = (
    "You are a PETSc assistant. Answer questions about the PETSc numerical "
    "library precisely, citing the provided documentation context when it is "
    "relevant. If the context does not support an answer, say so rather than "
    "guessing."
)

RAG_PROMPT = PromptTemplate(
    "Answer the user's question about PETSc using the documentation context "
    "below.\n\n### Context\n\n{context}\n\n### Question\n\n{question}\n"
)

BASELINE_PROMPT = PromptTemplate("### Question\n\n{question}\n")

REVISE_PROMPT = PromptTemplate(
    "A PETSc developer reviewed your previous answer and asks for a revision."
    "\n\n### Guidance\n\n{guidance}\n\n### Question\n\n{question}\n"
)

_CONTEXT_HEADER = "### Context"
_QUESTION_HEADER = "### Question"
_GUIDANCE_HEADER = "### Guidance"


def format_context(hits: list[RetrievedDocument]) -> str:
    """Render retrieved documents as a numbered, source-attributed block."""
    blocks: list[str] = []
    for i, hit in enumerate(hits, start=1):
        source = hit.document.metadata.get("source", "unknown")
        blocks.append(f"[{i}] source: {source}\n{hit.document.text}")
    return "\n\n".join(blocks)


@dataclass
class ParsedPrompt:
    """Sections recovered from a rendered prompt."""

    question: str
    context: str | None = None
    guidance: str | None = None


def parse_rag_prompt(content: str) -> ParsedPrompt:
    """Split a rendered prompt back into its sections.

    Text with no section markers is treated as a bare question.
    """
    context = None
    guidance = None
    rest = content
    if _CONTEXT_HEADER in rest:
        _, _, tail = rest.partition(_CONTEXT_HEADER)
        ctx, sep, after = tail.partition(_QUESTION_HEADER)
        context = ctx.strip()
        rest = after if sep else ""
    elif _GUIDANCE_HEADER in rest:
        _, _, tail = rest.partition(_GUIDANCE_HEADER)
        g, sep, after = tail.partition(_QUESTION_HEADER)
        guidance = g.strip()
        rest = after if sep else ""
    elif _QUESTION_HEADER in rest:
        _, _, rest = rest.partition(_QUESTION_HEADER)
    return ParsedPrompt(question=rest.strip(), context=context, guidance=guidance)

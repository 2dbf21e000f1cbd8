#!/usr/bin/env python
"""Quickstart: ask the PETSc assistant questions through the full workflow.

Builds the synthetic PETSc knowledge base, the reranking-enhanced RAG
pipeline, and the postprocessing stage, then asks a few questions —
including the paper's famous ``KSPBurb`` probe.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import ReproConfig, open_workflow

QUESTIONS = [
    "What does KSPBurb do?",
    "Can I use KSP to solve a system where the matrix is not square, only "
    "rectangular? Must it be invertible too or does that depend on how "
    "you're using KSP?",
    "How can I print the residual norm at every iteration?",
]


def main() -> None:
    print("building corpus + RAG database + reranker + simulated LLM ...")
    workflow = open_workflow(ReproConfig())  # rag+rerank by default

    for question in QUESTIONS:
        print("\n" + "=" * 78)
        print(f"Q: {question}")
        answer = workflow.ask(question)
        print("-" * 78)
        print(answer.answer)
        print("-" * 78)
        sources = [c.document.metadata.get("source") for c in answer.result.contexts]
        print(f"contexts: {sources}")
        print(f"RAG stage: {1000 * answer.result.rag_seconds:.1f} ms | "
              f"LLM: {1000 * answer.result.llm_seconds:.1f} ms")
        if answer.code_checks:
            ok = "all pass" if answer.all_code_ok else "FAILURES"
            print(f"code blocks checked: {len(answer.code_checks)} ({ok})")

    print("\n" + "=" * 78)
    print(f"interactions recorded in the shared history: {len(workflow.store)}")
    rec = workflow.store.all()[0]
    print(f"first record: model={rec.chat_model}, mode={rec.mode}, "
          f"embedding={rec.embedding_model}")


if __name__ == "__main__":
    main()

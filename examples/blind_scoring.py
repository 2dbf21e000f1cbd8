#!/usr/bin/env python
"""The interaction-history database and blind-scoring workflow (III-F).

Runs a handful of questions through two pipeline configurations, stores
every interaction, has two blinded reviewers score them (the reviewers
see only question/answer pairs in shuffled order — no model names), then
shows how high-scoring answers flow back into RAG as new documents and
how the agentic-memory prototype consolidates recurring topics.

Run:  python examples/blind_scoring.py
"""

from __future__ import annotations

from repro import ReproConfig, build_default_corpus
from repro.agentmem import AgentMemory
from repro.history import BlindScoringSession, InteractionStore
from repro.api import open_service

QUESTIONS = [
    "What is the default Krylov method and restart?",
    "How do I change the relative tolerance of a KSP solve?",
    "Why does GMRES keep allocating memory as it iterates?",
]


def main() -> None:
    bundle = build_default_corpus()
    cfg = ReproConfig(iterations_per_token=0)
    store = InteractionStore()

    print("collecting answers from two configurations ...")
    service = open_service(cfg, bundle=bundle)
    for mode in ("baseline", "rag+rerank"):
        for q in QUESTIONS:
            store.record_pipeline_result(
                service.answer(q, mode=mode), embedding_model="petsc-embed-large"
            )

    # A developer-written answer lives in the same database and gets
    # scored the same way (the paper: "We can also score answers from
    # PETSc developers stored in the same database").
    store.record_human_answer(
        QUESTIONS[0],
        "The default is restarted GMRES; KSPGMRESSetRestart or "
        "-ksp_gmres_restart changes the restart length (default 30).",
        developer="barry",
    )

    print(f"{len(store)} interactions stored\n")
    print("blind scoring by two reviewers (provenance hidden, shuffled order):")
    for scorer in ("reviewer-a", "reviewer-b"):
        session = BlindScoringSession(store, scorer=scorer)
        for item in session.pending_items():
            # A toy reviewer heuristic: longer, option-bearing answers
            # read as more complete.  Real reviewers apply Table I.
            score = 4 if ("-ksp" in item.answer and len(item.answer) > 150) else 2
            session.submit(item.item_id, score, comment=f"scored by {scorer}")
        print(f"  {scorer}: done")

    print("\nmean blind scores per interaction:")
    for rec in store.all():
        who = "human " if rec.answered_by_human else rec.mode or "?"
        print(f"  [{who:>11}] {rec.question[:48]:<50} -> {rec.mean_score():.1f}")

    print("\nhigh-scoring interactions become RAG documents (dotted arrow in Fig. 3):")
    docs = store.as_documents(min_mean_score=3.0)
    for d in docs:
        print(f"  {d.metadata['source']}: {d.metadata['title'][:60]}")

    print("\nagentic memory consolidation over the session:")
    memory = AgentMemory(consolidation_threshold=2)
    for i, rec in enumerate(store.all()):
        memory.remember(rec.question, rec.answer, timestamp=float(i))
    memory.consolidate()
    for note in memory.recall("a question about gmres memory"):
        print(f"  note[{note.support} episodes]: {note.summary[:80]}")


if __name__ == "__main__":
    main()

"""E5 — the KSPBurb probe (Sections II and V-B).

Paper: ChatGPT confidently fabricated a description of the fictitious
``KSPBurb`` solver (scored 0); with the PETSc RAG system the model
correctly answers that no such function exists.
"""

from __future__ import annotations

from repro.config import ReproConfig
from repro.evaluation import krylov_benchmark
from repro.api import open_pipeline

QUESTION = "What does KSPBurb do?"


def test_kspburb_hallucination_and_fix(benchmark, bundle, grader):
    cfg = ReproConfig(iterations_per_token=0)
    baseline = open_pipeline(cfg, bundle=bundle, mode="baseline")
    rerank = open_pipeline(cfg, bundle=bundle, mode="rag+rerank")
    probe = next(q for q in krylov_benchmark() if q.kind == "nonexistent")

    def both():
        return baseline.answer(QUESTION), rerank.answer(QUESTION)

    base_res, rag_res = benchmark.pedantic(both, rounds=1, iterations=1)
    base_grade = grader.grade(probe, base_res.answer)
    rag_grade = grader.grade(probe, rag_res.answer)

    print()
    print(f"Question: {QUESTION}")
    print(f"\n--- baseline (score {int(base_grade.score)}) ---\n{base_res.answer}")
    print(f"\n--- RAG+rerank (score {int(rag_grade.score)}) ---\n{rag_res.answer}")

    assert int(base_grade.score) == 0          # confident fabrication
    assert base_grade.fabrications
    assert int(rag_grade.score) == 4           # grounded refusal
    assert rag_grade.refusal

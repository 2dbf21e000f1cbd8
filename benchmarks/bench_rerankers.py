"""E9 — reranker comparison (Section V-B).

Paper: "Both rerankers yield a similar level of accuracy for our
database.  We selected Flashrank in this study because of its speed."

Accuracy: mean rubric score over a benchmark subset with each reranker.
Speed: per-call rerank latency of each reranker on identical inputs.
"""

from __future__ import annotations

import time

from repro.config import RetrievalConfig, ReproConfig
from repro.evaluation import krylov_benchmark, run_experiment
from repro.api import open_service
from repro.rerank import FlashrankLiteReranker, NvidiaSimReranker
from repro.retrieval import VectorRetriever
from repro.vectorstore import VectorStore
from repro.embeddings import create_embedding_model

SUBSET_SIZE = 16


def test_reranker_accuracy_similar(benchmark, bundle, grader):
    questions = krylov_benchmark()[:SUBSET_SIZE]

    def accuracy():
        means = {}
        for reranker in ("flashrank-lite", "nvidia-sim"):
            cfg = ReproConfig(
                retrieval=RetrievalConfig(reranker=reranker),
                iterations_per_token=0,
            )
            service = open_service(cfg, bundle=bundle)
            means[reranker] = run_experiment(
                service, grader, mode="rag+rerank", questions=questions
            ).mean_score()
        return means

    means = benchmark.pedantic(accuracy, rounds=1, iterations=1)
    print()
    for name, mean in means.items():
        print(f"{name:<16} mean score {mean:.2f}")
    # Paper: similar accuracy.
    assert abs(means["flashrank-lite"] - means["nvidia-sim"]) <= 0.5


def test_flashrank_is_faster(benchmark, bundle, chunks):
    emb = create_embedding_model("petsc-embed-small")
    store = VectorStore.from_documents(chunks, emb)
    retriever = VectorRetriever(store)
    flash = FlashrankLiteReranker(chunks)
    nvidia = NvidiaSimReranker(chunks)
    questions = [q.text for q in krylov_benchmark()]
    candidate_sets = [retriever.retrieve(q, k=8) for q in questions]

    def time_reranker(reranker):
        t0 = time.perf_counter()
        for q, cands in zip(questions, candidate_sets):
            reranker.rerank(q, cands, top_n=4)
        return time.perf_counter() - t0

    # Warm both scorers' document-feature caches first: the comparison is
    # about steady-state scoring cost, not one-time tokenization.
    time_reranker(flash)
    time_reranker(nvidia)
    t_flash, t_nvidia = benchmark.pedantic(
        lambda: (time_reranker(flash), time_reranker(nvidia)), rounds=1, iterations=1
    )
    print(f"\nflashrank-lite: {1000 * t_flash:.1f} ms for 37 queries")
    print(f"nvidia-sim:     {1000 * t_nvidia:.1f} ms for 37 queries")
    # Paper: the CPU reranker is the faster of the two.
    assert t_flash < t_nvidia


def test_rerank_call_latency(benchmark, bundle, chunks):
    """Micro-benchmark: one rerank call (K=8 → L=4) with the paper's pick."""
    emb = create_embedding_model("petsc-embed-small")
    store = VectorStore.from_documents(chunks, emb)
    retriever = VectorRetriever(store)
    flash = FlashrankLiteReranker(chunks)
    q = "Can I use KSP to solve a rectangular least squares system?"
    cands = retriever.retrieve(q, k=8)
    benchmark(lambda: flash.rerank(q, cands, top_n=4))

"""Ablations of the design choices DESIGN.md calls out.

A1  K/L sweep around the paper's (K=8, L=4)
A2  keyword-search augmentation on/off
A3  chunk size / overlap of the recursive splitter
A4  exact brute-force scan vs IVF approximate index (recall vs speed)
A5  indexing the raw mail archives (the paper deliberately did not)
A6  hybrid first pass (vector + BM25 fused with RRF) vs vector only

The IVF, BM25 and RRF arms are not served by ``src/repro``; they live in
``benchmarks/arms.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.config import RetrievalConfig, ReproConfig
from repro.corpus.builder import chunk_corpus
from repro.embeddings import create_embedding_model
from repro.evaluation import krylov_benchmark, run_experiment
from repro.api import open_service
from repro.retrieval import VectorRetriever
from repro.vectorstore import VectorStore

from benchmarks.arms import BM25Retriever, HybridRetriever, IVFIndex, top_k_indices

SUBSET = 16


def _mean(bundle, grader, cfg, *, mode="rag+rerank", n=SUBSET):
    service = open_service(cfg, bundle=bundle)
    return run_experiment(
        service, grader, mode=mode, questions=krylov_benchmark()[:n]
    ).mean_score()


def test_ablation_kl_sweep(benchmark, bundle, grader):
    """A1: more candidates and more contexts help up to a point."""

    def sweep():
        out = {}
        for k, l in ((4, 2), (8, 4), (12, 6)):
            cfg = ReproConfig(
                retrieval=RetrievalConfig(first_pass_k=k, final_l=l),
                iterations_per_token=0,
            )
            out[(k, l)] = _mean(bundle, grader, cfg)
        return out

    scores = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for (k, l), mean in scores.items():
        print(f"K={k:>2} L={l}:  mean score {mean:.2f}")
    # The paper's operating point must not be worse than the tiny config.
    assert scores[(8, 4)] >= scores[(4, 2)]


def test_ablation_keyword_search(benchmark, bundle, grader):
    """A2: PETSc-specific keyword lookup (Section III-C) must not hurt."""

    def compare():
        on = _mean(bundle, grader, ReproConfig(
            retrieval=RetrievalConfig(use_keyword_search=True), iterations_per_token=0))
        off = _mean(bundle, grader, ReproConfig(
            retrieval=RetrievalConfig(use_keyword_search=False), iterations_per_token=0))
        return on, off

    on, off = benchmark.pedantic(compare, rounds=1, iterations=1)
    print(f"\nkeyword search on:  {on:.2f}\nkeyword search off: {off:.2f}")
    assert on >= off - 0.2


def test_ablation_chunking(benchmark, bundle, grader):
    """A3: chunk geometry moves retrieval quality."""

    def sweep():
        out = {}
        for size, overlap in ((400, 60), (800, 120), (1600, 240)):
            cfg = ReproConfig(
                retrieval=RetrievalConfig(chunk_size=size, chunk_overlap=overlap),
                iterations_per_token=0,
            )
            out[size] = _mean(bundle, grader, cfg)
        return out

    scores = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for size, mean in scores.items():
        print(f"chunk_size={size:>5}: mean score {mean:.2f}")
    assert max(scores.values()) - min(scores.values()) < 2.0  # sane range


def test_ablation_ivf_vs_bruteforce(benchmark, chunks):
    """A4: the IVF index trades recall for per-query speed."""
    emb = create_embedding_model("petsc-embed-small")
    vectors = emb.embed_documents([c.text for c in chunks])

    ivf = IVFIndex(vectors, n_clusters=24, nprobe=4)

    queries = [emb.embed_query(q.text) for q in krylov_benchmark()]

    def race():
        t0 = time.perf_counter()
        exact = [top_k_indices(vectors @ q, 8) for q in queries]  # exact array top-k
        t_bf = time.perf_counter() - t0
        t0 = time.perf_counter()
        approx = [ivf.search(q, 8)[0] for q in queries]
        t_ivf = time.perf_counter() - t0
        return exact, approx, t_bf, t_ivf

    exact, approx, t_bf, t_ivf = benchmark.pedantic(race, rounds=1, iterations=1)

    recall = np.mean([
        len(set(e.tolist()) & set(a.tolist())) / 8 for e, a in zip(exact, approx)
    ])
    print(f"\nbrute force: {1e6 * t_bf / len(queries):.0f} us/query (recall 1.00)")
    print(f"IVF nprobe=4: {1e6 * t_ivf / len(queries):.0f} us/query (recall {recall:.2f})")
    assert recall > 0.4


def test_ablation_hybrid_first_pass(benchmark, bundle, chunks, grader):
    """A6: fusing BM25 into the first pass — recall of gold-fact chunks.

    Measured as recall@8 of the benchmark questions' key-fact chunks,
    the quantity that upper-bounds what reranking can recover.
    """
    emb = create_embedding_model("petsc-embed-large", corpus_texts=[c.text for c in chunks])
    store = VectorStore.from_documents(chunks, emb)
    vector = VectorRetriever(store)
    hybrid = HybridRetriever([vector, BM25Retriever(chunks)])

    questions = [q for q in krylov_benchmark() if q.key_facts]

    def recall_at_8(retriever):
        hit = total = 0
        for q in questions:
            got = set()
            for h in retriever.retrieve(q.text, k=8):
                got |= h.document.fact_ids()
            for fid in q.key_facts:
                total += 1
                hit += fid in got
        return hit / total

    r_vec, r_hyb = benchmark.pedantic(
        lambda: (recall_at_8(vector), recall_at_8(hybrid)), rounds=1, iterations=1
    )
    print(f"\nvector-only recall@8 of key facts:  {r_vec:.2f}")
    print(f"vector+BM25 RRF recall@8:           {r_hyb:.2f}")
    assert r_hyb >= r_vec - 0.1


def test_ablation_mail_archives(benchmark, bundle, grader):
    """A5: indexing the unvetted mail archives injects misconceptions.

    The paper deliberately excluded the petsc-users archives from its RAG
    databases.  This ablation shows why: the archive threads contain user
    misconceptions, and once indexed they can be retrieved and repeated.
    """

    def compare():
        clean = _mean(bundle, grader, ReproConfig(iterations_per_token=0), n=37)
        cfg = ReproConfig(
            retrieval=RetrievalConfig(include_mail_archives=True),
            iterations_per_token=0,
        )
        noisy = _mean(bundle, grader, cfg, n=37)
        return clean, noisy

    clean, noisy = benchmark.pedantic(compare, rounds=1, iterations=1)
    print(f"\nofficial docs only:   mean score {clean:.2f}")
    print(f"with mail archives:   mean score {noisy:.2f}")
    # Indexing raw archives must not *improve* things; typically it hurts.
    assert noisy <= clean + 0.1

#!/usr/bin/env python
"""Reproduce the paper's evaluation (Section V) in one run.

Prints the Fig. 6a/6b/6c comparison panels, the rerank-RAG score
distribution, and the Table II latency summary.

Run:  python examples/run_evaluation.py          (full latency simulation)
      python examples/run_evaluation.py --fast   (latency burn disabled)
"""

from __future__ import annotations

import sys

from repro import ReproConfig, build_default_corpus, compare_modes, run_experiment
from repro.evaluation import (
    BlindGrader,
    render_comparison,
    render_latency_table,
    render_score_histogram,
)
from repro.api import open_service
from repro.retrieval import ManualPageKeywordSearch


def main() -> None:
    fast = "--fast" in sys.argv
    cfg = ReproConfig(iterations_per_token=0 if fast else None)

    bundle = build_default_corpus()
    keyword = ManualPageKeywordSearch(bundle)
    grader = BlindGrader(
        registry=bundle.registry, known_identifiers=keyword.known_identifiers()
    )

    service = open_service(cfg, bundle=bundle)
    runs = {}
    for mode in ("baseline", "rag", "rag+rerank"):
        print(f"running {mode} over the 37-question Krylov benchmark ...")
        runs[mode] = run_experiment(service, grader, mode=mode)

    print()
    print(render_comparison(
        compare_modes(runs["baseline"], runs["rag"]),
        title="Fig. 6a — baseline vs RAG",
    ))
    print()
    print(render_comparison(
        compare_modes(runs["baseline"], runs["rag+rerank"]),
        title="Fig. 6b — baseline vs reranking-enhanced RAG",
    ))
    print()
    print(render_comparison(
        compare_modes(runs["rag"], runs["rag+rerank"]),
        title="Fig. 6c — RAG vs reranking-enhanced RAG",
    ))
    print()
    print(render_score_histogram(runs["rag+rerank"], title="reranking-enhanced RAG"))
    print()
    print("Table II — run time for RAG and the LLM (seconds)")
    print(render_latency_table(
        runs["rag"].rag_stats(),
        runs["rag+rerank"].rag_stats(),
        runs["rag"].llm_stats(),
        runs["rag+rerank"].llm_stats(),
    ))


if __name__ == "__main__":
    main()

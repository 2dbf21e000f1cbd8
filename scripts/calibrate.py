#!/usr/bin/env python
"""Calibration harness: print the paper-shape summary for a configuration.

Usage: python scripts/calibrate.py [--embedding NAME] [--model NAME] [--detail]
"""

from __future__ import annotations

import argparse

from repro.config import RetrievalConfig, ReproConfig
from repro.corpus import build_default_corpus
from repro.evaluation import BlindGrader, compare_modes, run_experiment
from repro.api import open_service
from repro.retrieval import ManualPageKeywordSearch


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--embedding", default="petsc-embed-large")
    ap.add_argument("--model", default="gpt-4o-sim")
    ap.add_argument("--detail", action="store_true")
    args = ap.parse_args()

    bundle = build_default_corpus()
    cfg = ReproConfig(
        chat_model=args.model,
        retrieval=RetrievalConfig(embedding_model=args.embedding),
        iterations_per_token=0,
    )
    kw = ManualPageKeywordSearch(bundle)
    grader = BlindGrader(registry=bundle.registry, known_identifiers=kw.known_identifiers())

    service = open_service(cfg, bundle=bundle)
    runs = {}
    for mode in ("baseline", "rag", "rag+rerank"):
        runs[mode] = run_experiment(service, grader, mode=mode)
        print(f"{mode:<11} hist: {runs[mode].score_histogram()}  mean {runs[mode].mean_score():.2f}")

    for a, b, label, paper in (
        ("baseline", "rag", "Fig6a", "improved 20, worsened 3"),
        ("baseline", "rag+rerank", "Fig6b", "improved 25, worsened 0"),
        ("rag", "rag+rerank", "Fig6c", "improved 11 (two by +3)"),
    ):
        c = compare_modes(runs[a], runs[b])
        print(
            f"{label}: improved {len(c.improved)} worsened {len(c.worsened)} "
            f"{c.worsened} max+{c.max_improvement()}   [paper: {paper}]"
        )

    if args.detail:
        for mode in ("rag", "rag+rerank"):
            print(f"--- {mode} scores < 3:")
            for o in runs[mode].outcomes:
                if int(o.grade.score) >= 3:
                    continue
                q = o.question
                cand = set().union(*[c.document.fact_ids() for c in o.result.candidates]) if o.result.candidates else set()
                ctx = set().union(*[c.document.fact_ids() for c in o.result.contexts]) if o.result.contexts else set()
                key = set(q.key_facts)
                print(
                    f"{q.qid} s={int(o.grade.score)} {o.grade.justification[:55]} | "
                    f"key miss cand={sorted(key - cand)} ctx={sorted(key - ctx)}"
                )


if __name__ == "__main__":
    main()

"""Simulated GPU transformer reranker (the paper's NVIDIA option).

Uses the same interaction features as the lightweight reranker *plus*
the full proximity sweep, and processes pairs in fixed-size batches the
way a GPU encoder would.  The extra feature costs real compute, so the
latency benchmark reproduces the paper's finding: similar accuracy,
slower on CPU-only hosts.
"""

from __future__ import annotations

from repro.documents import Document
from repro.rerank.base import Reranker
from repro.rerank.scoring import InteractionScorer, build_idf
from repro.utils.textproc import QuestionReading


class NvidiaSimReranker(Reranker):
    name = "nvidia-sim"

    def __init__(self, corpus: list[Document] | None = None, *, batch_size: int = 8) -> None:
        if batch_size < 1:
            batch_size = 1
        self.batch_size = batch_size
        idf = build_idf(corpus) if corpus else None
        self._scorer = InteractionScorer(
            idf=idf,
            w_coverage=1.2,
            w_identifier=0.5,
            w_bigram=0.45,
            w_proximity=0.2,
            w_focus=0.12,
        )

    def score_pairs(self, query: str | QuestionReading, texts: list[str]) -> list[float]:
        scores: list[float] = []
        for start in range(0, len(texts), self.batch_size):
            batch = texts[start : start + self.batch_size]
            scores.extend(self._scorer.score_batch(query, batch).tolist())
        return scores

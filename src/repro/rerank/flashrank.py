"""Flashrank-style lightweight CPU reranker."""

from __future__ import annotations

from repro.documents import Document
from repro.rerank.base import Reranker
from repro.rerank.scoring import InteractionScorer, build_idf
from repro.utils.textproc import QuestionReading


class FlashrankLiteReranker(Reranker):
    """Fast lexical cross-scorer (no proximity matrix).

    Mirrors the paper's Flashrank pick: "lightweight models running on
    the CPU" that reach accuracy similar to the GPU reranker at a
    fraction of the cost.
    """

    name = "flashrank-lite"

    def __init__(self, corpus: list[Document] | None = None) -> None:
        idf = build_idf(corpus) if corpus else None
        self._scorer = InteractionScorer(
            idf=idf,
            w_coverage=1.2,
            w_identifier=0.5,
            w_bigram=0.5,
            w_proximity=0.0,
            w_focus=0.12,
        )

    def score_pairs(self, query: str | QuestionReading, texts: list[str]) -> list[float]:
        return self._scorer.score_batch(query, texts).tolist()

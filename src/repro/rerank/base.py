"""Reranker interface."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.context import RequestContext, read_question
from repro.errors import RerankError
from repro.retrieval.base import RetrievedDocument
from repro.utils.textproc import QuestionReading


@dataclass
class RerankResult:
    """A candidate with both its first-pass and rerank scores."""

    document: "RetrievedDocument"
    rerank_score: float

    @property
    def doc_id(self) -> str:
        return self.document.doc_id


class Reranker(ABC):
    """Re-scores retrieval candidates and keeps the best ``top_n``."""

    #: Identifier used in logs and the interaction-history database.
    name: str = "reranker"

    @abstractmethod
    def score_pairs(self, query: str | QuestionReading, texts: list[str]) -> list[float]:
        """Relevance score for each (query, text) pair.

        :meth:`rerank` hands a reading of the query in place of its text:
        the request's own when ``ctx`` carries one of it.
        """

    def rerank(
        self,
        query: str,
        candidates: list[RetrievedDocument],
        *,
        top_n: int = 4,
        min_score: float | None = None,
        ctx: "RequestContext | None" = None,
    ) -> list[RerankResult]:
        """Return the ``top_n`` candidates by rerank score, best first.

        ``min_score`` optionally drops candidates entirely (the paper
        notes reranking may remove "less relevant material completely").
        """
        if top_n <= 0:
            raise RerankError(f"top_n must be positive, got {top_n}")
        if not candidates:
            return []
        scores = self.score_pairs(
            read_question(query, ctx), [c.document.text for c in candidates]
        )
        if len(scores) != len(candidates):
            raise RerankError(
                f"{self.name} returned {len(scores)} scores for {len(candidates)} candidates"
            )
        ranked = sorted(
            (RerankResult(document=c, rerank_score=float(s)) for c, s in zip(candidates, scores)),
            key=lambda r: -r.rerank_score,
        )
        if min_score is not None:
            ranked = [r for r in ranked if r.rerank_score >= min_score]
        return ranked[:top_n]

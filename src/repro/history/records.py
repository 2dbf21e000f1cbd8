"""Record types for the interaction-history database."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import HistoryError


@dataclass
class ScoreRecord:
    """One blind score assigned by a reviewer.

    ``correct_spans`` / ``incorrect_spans`` let scorers "indicate correct
    and incorrect portions of the responses" (paper III-F) as substrings
    of the answer text.
    """

    scorer: str
    score: int
    correct_spans: list[str] = field(default_factory=list)
    incorrect_spans: list[str] = field(default_factory=list)
    comment: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.score <= 4:
            raise HistoryError(f"score must be in 0..4, got {self.score}")
        if not self.scorer:
            raise HistoryError("scorer name must be non-empty")


@dataclass
class Interaction:
    """One question/answer exchange with an LLM (or a human developer)."""

    interaction_id: str
    question: str
    answer: str
    timestamp: float
    chat_model: str = ""
    embedding_model: str = ""
    mode: str = ""
    prompt: str = ""
    context_sources: list[str] = field(default_factory=list)
    rag_seconds: float = 0.0
    llm_seconds: float = 0.0
    #: LLM tries the answer consumed (1 = first try; >1 = retried).
    attempts: int = 1
    #: Degradation-ladder events active when the answer was produced
    #: (e.g. ``"rerank:truncate"``); lets blind scoring correlate answer
    #: quality with degradation.
    degraded: list[str] = field(default_factory=list)
    #: Serialized span tree (``Trace.to_dict``) for the producing pipeline
    #: invocation, or ``None`` when tracing was off or the record predates
    #: the observability layer.
    trace: dict | None = None
    answered_by_human: bool = False
    scores: list[ScoreRecord] = field(default_factory=list)
    tags: list[str] = field(default_factory=list)

    def mean_score(self) -> float | None:
        if not self.scores:
            return None
        return sum(s.score for s in self.scores) / len(self.scores)

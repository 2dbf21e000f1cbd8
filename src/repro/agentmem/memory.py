"""Agentic memory: episodic store + consolidated long-term notes.

A lightweight implementation of the pattern in the paper's reference
[13] ("Memory matters: the need to improve long-term memory in
LLM-agents"): raw interaction *episodes* accumulate in a bounded
short-term buffer; consolidation distills recurring topics into
long-term :class:`MemoryNote` objects that can be recalled by relevance
to a new question and injected into prompts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import HistoryError
from repro.utils.textproc import stemmed_tokens


@dataclass
class Episode:
    """One remembered interaction."""

    question: str
    answer: str
    timestamp: float
    tags: tuple[str, ...] = ()


@dataclass
class MemoryNote:
    """A consolidated long-term memory: topic terms + supporting episodes."""

    topic_terms: tuple[str, ...]
    summary: str
    support: int
    last_seen: float


@dataclass
class AgentMemory:
    """Bounded episodic buffer with topic consolidation and recall."""

    short_term_capacity: int = 32
    consolidation_threshold: int = 3
    episodes: list[Episode] = field(default_factory=list)
    notes: list[MemoryNote] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.short_term_capacity < 1:
            raise HistoryError("short_term_capacity must be >= 1")
        if self.consolidation_threshold < 2:
            raise HistoryError("consolidation_threshold must be >= 2")

    # ------------------------------------------------------------ writing
    def remember(self, question: str, answer: str, *, timestamp: float, tags: tuple[str, ...] = ()) -> Episode:
        ep = Episode(question=question, answer=answer, timestamp=timestamp, tags=tags)
        self.episodes.append(ep)
        if len(self.episodes) > self.short_term_capacity:
            self.consolidate()
            # Evict oldest episodes beyond capacity regardless of
            # consolidation outcome (the buffer is hard-bounded).
            del self.episodes[: len(self.episodes) - self.short_term_capacity]
        return ep

    def consolidate(self) -> int:
        """Distill recurring topics among episodes into notes.

        Groups episodes by their dominant stemmed terms; any term shared
        by at least ``consolidation_threshold`` episodes becomes (or
        refreshes) a note summarizing the most recent answer for it.
        Returns the number of notes created or refreshed.
        """
        by_term: dict[str, list[Episode]] = {}
        for ep in self.episodes:
            for term in set(stemmed_tokens(ep.question)):
                if len(term) >= 4:
                    by_term.setdefault(term, []).append(ep)
        updated = 0
        for term, eps in by_term.items():
            if len(eps) < self.consolidation_threshold:
                continue
            latest = max(eps, key=lambda e: e.timestamp)
            summary = f"Recurring topic '{term}': latest answer — {latest.answer[:240]}"
            existing = next(
                (n for n in self.notes if term in n.topic_terms), None
            )
            if existing is None:
                self.notes.append(MemoryNote(
                    topic_terms=(term,), summary=summary,
                    support=len(eps), last_seen=latest.timestamp,
                ))
            else:
                existing.support = max(existing.support, len(eps))
                existing.last_seen = max(existing.last_seen, latest.timestamp)
                existing.summary = summary
            updated += 1
        return updated

    # ------------------------------------------------------------ recall
    def recall(self, question: str, *, k: int = 3) -> list[MemoryNote]:
        """Notes most relevant to ``question`` (term overlap, recency tiebreak)."""
        q_terms = set(stemmed_tokens(question))
        scored = [
            (len(q_terms & set(n.topic_terms)), n.last_seen, i)
            for i, n in enumerate(self.notes)
        ]
        scored.sort(reverse=True)
        return [self.notes[i] for hits, _, i in scored[:k] if hits > 0]

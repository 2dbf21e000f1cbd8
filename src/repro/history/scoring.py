"""Blind-scoring workflow over the interaction database.

Reviewers see (question, answer) pairs *without* provenance — no model
name, no mode, no prompt — in a deterministic shuffled order, and assign
Table I rubric scores.  This mirrors the paper's "blind-score" process
and guards the comparison between pipelines (and between LLMs and human
developers) against reviewer bias.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HistoryError
from repro.history.records import ScoreRecord
from repro.history.store import InteractionStore
from repro.utils.rng import rng_for


@dataclass
class BlindItem:
    """What a scorer is allowed to see."""

    item_id: str
    question: str
    answer: str


class BlindScoringSession:
    """One reviewer's pass over unscored interactions."""

    def __init__(self, store: InteractionStore, *, scorer: str) -> None:
        if not scorer:
            raise HistoryError("scorer name must be non-empty")
        self.store = store
        self.scorer = scorer

    def pending_items(self) -> list[BlindItem]:
        """Interactions this scorer has not scored yet, in blinded order.

        The order is a deterministic permutation seeded by the scorer
        name, so two scorers see different orders (reducing sequence
        effects) but each scorer's session is reproducible.
        """
        items = [
            BlindItem(item_id=rec.interaction_id, question=rec.question, answer=rec.answer)
            for rec in self.store.all()
            if not any(s.scorer == self.scorer for s in rec.scores)
        ]
        rng = rng_for("blind-order", self.scorer)
        order = rng.permutation(len(items))
        return [items[i] for i in order]

    def submit(
        self,
        item_id: str,
        score: int,
        *,
        correct_spans: list[str] | None = None,
        incorrect_spans: list[str] | None = None,
        comment: str = "",
    ) -> None:
        """Record a score through :meth:`InteractionStore.add_score`, so an
        attached history journal keeps it; spans must occur in the answer."""
        self.store.add_score(item_id, ScoreRecord(
            scorer=self.scorer,
            score=score,
            correct_spans=correct_spans or [],
            incorrect_spans=incorrect_spans or [],
            comment=comment,
        ))

"""The searchable interaction database.

The paper currently uses "a bespoke Python dictionary" — this store is
that dictionary grown into a real component: keyed records, full-text
search, model/mode filters, a write-ahead journal, and hooks for
feeding past interactions back into RAG (``as_documents``).
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict
from pathlib import Path

from repro.documents import Document
from repro.durability.journal import Journal, RecoveryReport, recover_journal
from repro.errors import HistoryError
from repro.history.records import Interaction, ScoreRecord
from repro.observability.metrics import get_registry
from repro.pipeline.rag import PipelineResult
from repro.utils.textproc import tokenize


def _interaction_to_dict(rec: Interaction) -> dict:
    return {
        "interaction_id": rec.interaction_id,
        "question": rec.question,
        "answer": rec.answer,
        "timestamp": rec.timestamp,
        "chat_model": rec.chat_model,
        "embedding_model": rec.embedding_model,
        "mode": rec.mode,
        "prompt": rec.prompt,
        "context_sources": rec.context_sources,
        "rag_seconds": rec.rag_seconds,
        "llm_seconds": rec.llm_seconds,
        "attempts": rec.attempts,
        "degraded": rec.degraded,
        "trace": rec.trace,
        "answered_by_human": rec.answered_by_human,
        "tags": rec.tags,
        "scores": [asdict(s) for s in rec.scores],
    }


def _interaction_from_dict(obj: dict) -> Interaction:
    obj = dict(obj)
    scores = [ScoreRecord(**s) for s in obj.pop("scores", [])]
    rec = Interaction(**obj)
    rec.scores = scores
    return rec


class InteractionStore:
    """In-memory interaction database over a write-ahead journal.

    With a :class:`~repro.durability.journal.Journal` attached (through
    :func:`~repro.durability.reopen_journal`, which first replays what
    the journal already holds), every :meth:`add` and :meth:`add_score`
    is durable the moment it returns; :meth:`recover` rebuilds a store
    from the journal's intact prefix after a torn write.
    """

    def __init__(self) -> None:
        self._records: dict[str, Interaction] = {}
        self._counter = itertools.count(1)
        self.journal: Journal | None = None

    # ------------------------------------------------------------------ insert
    def new_id(self) -> str:
        return f"int-{next(self._counter):06d}"

    def add(self, interaction: Interaction) -> Interaction:
        if interaction.interaction_id in self._records:
            raise HistoryError(f"duplicate interaction id {interaction.interaction_id!r}")
        if self.journal is not None:
            # Journal first: if the append tears, the record was never
            # added, so memory and disk cannot disagree after recovery.
            self.journal.append(_interaction_to_dict(interaction))
        self._records[interaction.interaction_id] = interaction
        return interaction

    # ------------------------------------------------------------------ journal
    def replay(self, records: list[dict]) -> None:
        """The history journal's one fold: interaction and score frames
        in journal order, then the id counter resumes past the highest
        ``int-NNNNNN`` held."""
        for obj in records:
            if "score" in obj:  # a score frame
                self.add_score(obj["interaction_id"], ScoreRecord(**obj["score"]))
            else:
                self.add(_interaction_from_dict(obj))
        tails = (i.rsplit("-", 1)[-1] for i in self._records)
        seqs = [int(tail) for tail in tails if tail.isdecimal()]
        self._counter = itertools.count(max(seqs, default=0) + 1)

    @classmethod
    def recover(
        cls, path: str | Path, *, truncate: bool = True
    ) -> "tuple[InteractionStore, RecoveryReport]":
        """Rebuild a store from its journal, dropping any torn tail.

        Returns the recovered store and the
        :class:`~repro.durability.journal.RecoveryReport` saying exactly
        how many records survived and how many bytes were dropped.
        """
        report = recover_journal(path, truncate=truncate)
        store = cls()
        store.replay(report.records)
        return store, report

    def record_pipeline_result(
        self,
        result: PipelineResult,
        *,
        embedding_model: str = "",
        timestamp: float | None = None,
        tags: list[str] | None = None,
        include_trace: bool = True,
    ) -> Interaction:
        """Store one pipeline invocation."""
        interaction = Interaction(
            interaction_id=self.new_id(),
            question=result.question,
            answer=result.answer,
            timestamp=time.time() if timestamp is None else timestamp,
            chat_model=result.model,
            embedding_model=embedding_model,
            mode=str(result.mode),
            prompt=result.prompt,
            context_sources=[
                str(c.document.metadata.get("source", "")) for c in result.contexts
            ],
            rag_seconds=result.rag_seconds,
            llm_seconds=result.llm_seconds,
            attempts=result.attempts,
            degraded=[str(e) for e in result.degraded],
            trace=result.trace.to_dict() if include_trace and result.trace else None,
            tags=tags or [],
        )
        get_registry().counter("repro.history.recorded").inc()
        return self.add(interaction)

    def record_human_answer(
        self,
        question: str,
        answer: str,
        *,
        developer: str,
        timestamp: float | None = None,
    ) -> Interaction:
        """Store a developer-written answer (scored like LLM answers)."""
        interaction = Interaction(
            interaction_id=self.new_id(),
            question=question,
            answer=answer,
            timestamp=time.time() if timestamp is None else timestamp,
            answered_by_human=True,
            tags=[f"developer:{developer}"],
        )
        return self.add(interaction)

    # ------------------------------------------------------------------ access
    def __len__(self) -> int:
        return len(self._records)

    def get(self, interaction_id: str) -> Interaction:
        try:
            return self._records[interaction_id]
        except KeyError:
            raise HistoryError(f"unknown interaction id {interaction_id!r}") from None

    def all(self) -> list[Interaction]:
        return sorted(self._records.values(), key=lambda r: r.timestamp)

    def search(
        self,
        text: str = "",
        *,
        chat_model: str | None = None,
        mode: str | None = None,
        min_mean_score: float | None = None,
        human_only: bool = False,
        degraded_only: bool = False,
    ) -> list[Interaction]:
        """Filter interactions; ``text`` matches question or answer tokens.

        ``degraded_only`` keeps answers produced under degradation or
        retries — the slice blind scoring compares against clean runs.
        """
        needle = set(tokenize(text)) if text else set()
        out: list[Interaction] = []
        for rec in self.all():
            if chat_model is not None and rec.chat_model != chat_model:
                continue
            if mode is not None and rec.mode != mode:
                continue
            if human_only and not rec.answered_by_human:
                continue
            if degraded_only and not (rec.degraded or rec.attempts > 1):
                continue
            if min_mean_score is not None:
                mean = rec.mean_score()
                if mean is None or mean < min_mean_score:
                    continue
            if needle:
                haystack = set(tokenize(rec.question)) | set(tokenize(rec.answer))
                if not needle <= haystack:
                    continue
            out.append(rec)
        return out

    # ------------------------------------------------------------------ scoring
    def add_score(self, interaction_id: str, record: ScoreRecord) -> None:
        """Score one interaction: one score per scorer, and every marked
        span must occur in the answer.  Checks first, then the journal
        frame ``{"interaction_id", "score"}``, then memory — as in
        :meth:`add`, memory is never ahead of disk."""
        rec = self.get(interaction_id)
        if any(s.scorer == record.scorer for s in rec.scores):
            raise HistoryError(
                f"scorer {record.scorer!r} already scored interaction {interaction_id}"
            )
        for span in record.correct_spans + record.incorrect_spans:
            if span not in rec.answer:
                raise HistoryError(
                    f"span {span[:40]!r} does not occur in the answer of {interaction_id}"
                )
        if self.journal is not None:
            self.journal.append(
                {"interaction_id": interaction_id, "score": asdict(record)}
            )
        rec.scores.append(record)

    # ------------------------------------------------------------------ RAG feedback
    def as_documents(self, *, min_mean_score: float = 3.0) -> list[Document]:
        """High-scoring past interactions as RAG documents.

        This is the paper's dotted arrow from "Shared histories" back into
        box 1: vetted Q/A pairs become retrievable knowledge.
        """
        docs: list[Document] = []
        for rec in self.all():
            mean = rec.mean_score()
            if mean is None or mean < min_mean_score:
                continue
            docs.append(Document(
                text=f"Q: {rec.question}\n\nA: {rec.answer}",
                metadata={
                    "source": f"history/{rec.interaction_id}",
                    "doc_type": "history",
                    "title": rec.question[:80],
                    "mean_score": mean,
                },
            ))
        return docs

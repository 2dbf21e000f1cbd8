"""The scheduler's result types: one response per question, one batch.

:meth:`ReproService.answer_many <repro.service.ReproService.answer_many>`
returns a :class:`BatchResult` holding one :class:`AnswerResponse` per
question, in input order; the digests every gate compares are computed
here (DESIGN.md §12).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.admission import ADMIT, QUEUE, AdmissionDecision
from repro.observability.trace import Trace
from repro.pipeline.rag import PipelineResult
from repro.pipeline.types import PipelineMode


def question_digest(question: str) -> str:
    """SHA-256 of the question text: the first part of a request's
    identity key ``(question digest, mode)`` within its cache generation.

    A lone surrogate is encoded as itself (``surrogatepass``), not as
    ``?``, so two questions that differ only there are two keys."""
    return hashlib.sha256(question.encode("utf-8", errors="surrogatepass")).hexdigest()


@dataclass
class AnswerResponse:
    """One question's outcome, in input order.

    The shape (and therefore every digest derived from it) is frozen by
    the golden suite.
    """

    index: int
    question: str
    result: PipelineResult | None
    cached: bool = False
    error: str = ""
    #: The admission layer rejected this request before any work ran.
    shed: bool = False
    #: Suggested client backoff in seconds (shed items only).
    retry_after: float = 0.0
    #: Span tree for items without a pipeline result (shed items get a
    #: one-span admission trace so the rejection is observable).
    trace: Trace | None = None

    @property
    def answered(self) -> bool:
        """True when a pipeline result (fresh, cached or shared) came back."""
        return self.result is not None

    @property
    def coverage(self) -> float:
        """Shard coverage of the answer (1.0 = every shard answered).

        Unanswered items report 0.0 — nothing was retrieved at all.
        Not part of the frozen digest payload: partial answers already
        surface there through the ``shard:partial`` degradation mark.
        """
        return self.result.coverage if self.result is not None else 0.0

    def trace_or_result_trace(self) -> Trace | None:
        """The item-level trace wins: it is per-item even when the
        pipeline result (and its trace) is shared with a dedupe primary."""
        if self.trace is not None:
            return self.trace
        return self.result.trace if self.result is not None else None


@dataclass
class BatchResult:
    """Everything one batch through the service produced."""

    mode: PipelineMode
    workers: int
    seed: int
    items: list[AnswerResponse] = field(default_factory=list)
    #: The admission ladder's decision vector; None when admission is off.
    decisions: list[AdmissionDecision] | None = None
    batch_seconds: float = 0.0
    #: Wall seconds the coordinator spent in the vectorized burn flush.
    burn_seconds: float = 0.0
    #: Completion tokens whose latency work was deferred to the flush.
    deferred_tokens: int = 0
    cache_sizes: dict = field(default_factory=dict)

    @property
    def results(self) -> list[PipelineResult | None]:
        """Pipeline results in input order (``None`` for shed/failed items)."""
        return [it.result for it in self.items]

    @property
    def answered_count(self) -> int:
        """Items that carry a result."""
        return sum(1 for it in self.items if it.answered)

    @property
    def partial_count(self) -> int:
        """Answers served from fewer shards than the index holds."""
        return sum(1 for it in self.items if it.answered and it.coverage < 1.0)

    @property
    def min_coverage(self) -> float:
        """The worst shard coverage any answered item saw (1.0 when none)."""
        covered = [it.coverage for it in self.items if it.answered]
        return min(covered) if covered else 1.0

    @property
    def cached_count(self) -> int:
        """Items served from the answer cache or shared from a dedupe primary."""
        return sum(1 for it in self.items if it.cached)

    @property
    def shed_count(self) -> int:
        """Items admission rejected before any work ran."""
        return sum(1 for it in self.items if it.shed)

    @property
    def queued_count(self) -> int:
        """Items admission parked on the simulated queue before serving."""
        if self.decisions is None:
            return 0
        return sum(1 for d in self.decisions if d.outcome == QUEUE)

    @property
    def admitted_count(self) -> int:
        """Requests that reached the engine (straight admits + queued)."""
        if self.decisions is None:
            return len(self.items)
        return sum(1 for d in self.decisions if d.outcome in (ADMIT, QUEUE))

    @property
    def questions_per_second(self) -> float:
        """Batch throughput over the coordinator's wall clock."""
        return len(self.items) / self.batch_seconds if self.batch_seconds > 0 else 0.0

    # ------------------------------------------------------------ digests
    def answers_digest(self) -> str:
        """SHA-256 over the canonical outcomes — identical across worker
        counts and across two same-seed runs from equal cache state."""
        payload = json.dumps(
            [
                [
                    it.question,
                    it.result.answer if it.result is not None else "",
                    it.result.attempts if it.result is not None else 0,
                    [str(e) for e in it.result.degraded] if it.result is not None else [],
                    it.cached,
                    it.error,
                    it.shed,
                    round(it.retry_after, 6),
                ]
                for it in self.items
            ],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def span_digest(self) -> str:
        """SHA-256 over per-request span-structure digests, input order."""
        digests = []
        for it in self.items:
            trace = it.trace_or_result_trace()
            digests.append(trace.structure_digest() if trace is not None else "")
        return hashlib.sha256(json.dumps(digests).encode()).hexdigest()

    # ------------------------------------------------------------ rendering
    def render(self, *, show_answers: bool = False) -> str:
        """The ``repro batch`` report: one status line per item, totals,
        admission counts and the two digests."""
        lines: list[str] = []
        for it in self.items:
            if it.shed:
                status = f"SHED    retry_after={it.retry_after:.3f}s"
            elif it.result is None:
                status = f"FAILED  {it.error}"
            else:
                flags = []
                if it.cached:
                    flags.append("cached")
                if it.result.attempts > 1:
                    flags.append(f"attempts={it.result.attempts}")
                flags.extend(str(e) for e in it.result.degraded)
                if it.result.coverage < 1.0:
                    flags.append(f"coverage={it.result.coverage:.2f}")
                status = f"{it.result.mode}" + (f"  [{', '.join(flags)}]" if flags else "")
            lines.append(f"  {it.index + 1:>3}. {status}  {it.question[:56]}")
            if show_answers and it.result is not None:
                for answer_line in it.result.answer.splitlines():
                    lines.append(f"       | {answer_line}")
        lines.append(
            f"answered {self.answered_count}/{len(self.items)} "
            f"({self.cached_count} cached) in {self.batch_seconds:.2f}s "
            f"— {self.questions_per_second:.2f} q/s, workers={self.workers}"
        )
        lines.append(
            f"deferred llm tokens: {self.deferred_tokens} "
            f"(vectorized flush {1000 * self.burn_seconds:.1f} ms)"
        )
        if self.partial_count:
            lines.append(
                f"partial coverage: {self.partial_count} answer(s) from "
                f"surviving shards only (min coverage {self.min_coverage:.2f})"
            )
        if self.decisions is not None:
            admitted = sum(1 for d in self.decisions if d.outcome == ADMIT)
            lines.append(
                f"admission: {admitted} admitted, {self.queued_count} queued, "
                f"{self.shed_count} shed (of {len(self.decisions)})"
            )
        lines.append(f"answers digest: {self.answers_digest()}")
        lines.append(f"span digest:    {self.span_digest()}")
        return "\n".join(lines)

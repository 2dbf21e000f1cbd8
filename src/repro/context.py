"""Request-scoped execution context.

:class:`RequestContext` is the one carrier of per-request state: one
object, created at the entry point, handed down every hop as a plain
argument — pipeline → retrieval (query-embedding cache, shard scatter,
replica walk) → rerank → llm.  Each request gets its *own* tracer (so
span trees cannot interleave), a concrete registry handle resolved once
on the coordinator (so worker threads report into the caller's scope),
the transaction its cache effects are recorded into, and — during
batched serving — the shared
:class:`~repro.llm.latency.TokenBurnCollector` that defers generation
work to the batch coordinator — and the one reading of the question
(tokens, stems, identifiers) its stages would otherwise each derive.  It
is data: it says where spans and counts go, never what is computed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable

from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import Tracer
from repro.utils.textproc import QuestionReading

if TYPE_CHECKING:
    from repro.engine.caches import LRUCache
    from repro.llm.latency import TokenBurnCollector
    from repro.resilience.policy import Deadline

#: Fallback id source for contexts created without an explicit request id
#: (interactive/sequential callers).  Engine batches always pass explicit,
#: deterministic ids, so nothing digest-relevant depends on this counter.
_ids = itertools.count(1)


class CacheTransaction:
    """Per-request record of deferred cache effects.

    The request appends; the service replays via :meth:`commit` — for a
    batch, in request-submission order after the barrier.
    """

    def __init__(self) -> None:
        self.touches: "list[tuple[LRUCache, Hashable]]" = []
        self.writes: "list[tuple[LRUCache, Hashable, object]]" = []

    def touch(self, cache: "LRUCache", key: Hashable) -> None:
        self.touches.append((cache, key))

    def write(self, cache: "LRUCache", key: Hashable, value: object) -> None:
        self.writes.append((cache, key, value))

    def commit(self) -> None:
        for cache, key in self.touches:
            cache.touch(key)
        for cache, key, value in self.writes:
            cache.put(key, value)


@dataclass
class RequestContext:
    """Everything one request needs, owned by that request alone.

    Attributes
    ----------
    request_id:
        Stable identifier for logs.
    registry:
        Metrics sink of every hop of this request.
    tracer:
        The span-tree builder for this request.  Never shared between
        concurrent requests — a tracer holds a mutable span stack.
    deadline:
        Optional wall-clock budget for the whole request.
    burn_collector:
        When set (batched serving), the simulated LLM defers its
        per-token latency burn here instead of spending it inline.
    cache_txn:
        The engine's cache wrappers record here their touches and writes
        to their generation's LRUs; the service replays them at its
        commit point (a direct ``pipeline.answer`` records into one
        nobody commits).
    shard_coverage:
        Lowest fraction of shards that answered a scatter of this
        request; the store lowers it, the pipeline reads and resets it.
    question:
        The request's one reading of its question, set by the pipeline;
        stages take it through :func:`read_question`.
    """

    request_id: str
    registry: MetricsRegistry
    tracer: Tracer = field(default_factory=Tracer)
    deadline: "Deadline | None" = None
    burn_collector: "TokenBurnCollector | None" = None
    cache_txn: CacheTransaction = field(default_factory=CacheTransaction)
    shard_coverage: float = 1.0
    question: QuestionReading | None = None

    @classmethod
    def create(
        cls,
        *,
        registry: MetricsRegistry,
        request_id: str | None = None,
        tracer: Tracer | None = None,
        deadline: "Deadline | None" = None,
        burn_collector: "TokenBurnCollector | None" = None,
    ) -> "RequestContext":
        rid = request_id if request_id is not None else f"req-{next(_ids):06d}"
        return cls(
            request_id=rid,
            registry=registry,
            tracer=tracer if tracer is not None else Tracer(),
            deadline=deadline,
            burn_collector=burn_collector,
        )


def read_question(text: str, ctx: RequestContext | None) -> QuestionReading:
    """The reading ``ctx`` carries when it is of ``text``, else a fresh one
    (no context, or a stage handed another text: the model's question
    with revision guidance folded in)."""
    reading = ctx.question if ctx is not None else None
    if reading is not None and reading.text == text:
        return reading
    return QuestionReading(text)

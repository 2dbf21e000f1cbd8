"""RAG pipelines: baseline, plain RAG, and reranking-enhanced RAG.

Every invocation is traced: ``answer`` produces a span tree
(``pipeline`` → ``locate`` with one child per retriever, ``refine``,
``llm`` with per-attempt children) carried on ``PipelineResult.trace``.
Timings are derived from that tree, degradation rungs and retries are
span events, and every hop reports into the process metrics registry
through the shared :func:`repro.observability.stage` API.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.config import ReproConfig
from repro.context import RequestContext
from repro.errors import ConfigurationError, PartialResultError, ReproError
from repro.llm import ChatMessage, ChatModel, CompletionResult, create_chat_model
from repro.observability import MetricsRegistry, Trace, Tracer, get_registry, stage
from repro.pipeline.types import DegradationEvent, PipelineMode
from repro.prompts import BASELINE_PROMPT, RAG_PROMPT, RAG_SYSTEM_PROMPT, format_context
from repro.rerank import FlashrankLiteReranker, NvidiaSimReranker, Reranker
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import FaultInjector
from repro.resilience.policy import Deadline, RetryPolicy
from repro.retrieval import RetrievedDocument, VectorRetriever
from repro.retrieval.base import Retriever, dedupe_by_id
from repro.utils.textproc import QuestionReading

if TYPE_CHECKING:
    from repro.index import IndexArtifact

#: Deterministic bucket layouts for count-valued histograms.
_ATTEMPT_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)
_CONTEXT_BUCKETS = (0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 12.0)


@dataclass(frozen=True)
class PipelineResult:
    """Everything one pipeline invocation produced, for display and history.

    Frozen, because results are shared: every answer-cache hit on a key
    returns the one result the cache holds, and batch duplicates share
    their primary's, lists included (read them, never mutate them).
    Derive a variant with :func:`dataclasses.replace`.
    """

    question: str
    answer: str
    mode: PipelineMode
    model: str
    contexts: list[RetrievedDocument] = field(default_factory=list)
    candidates: list[RetrievedDocument] = field(default_factory=list)
    prompt: str = ""
    completion: CompletionResult | None = None
    #: LLM tries this answer consumed (1 = first try succeeded).
    attempts: int = 1
    #: Degradation-ladder rungs taken (serialize to their wire strings).
    degraded: list[DegradationEvent] = field(default_factory=list)
    #: Fraction of index shards that answered the retrieval scatter
    #: (1.0 for a fully healthy scatter; < 1.0 when every replica of
    #: some shard was down and the merge degraded to the survivors —
    #: mirrored by ``shard:partial`` in ``degraded``).
    coverage: float = 1.0
    #: The span tree of this invocation; timings below derive from it.
    trace: Trace | None = None

    # The public timing names are kept as the compatibility surface; both
    # are *derived* from the span tree rather than stored.
    @property
    def rag_seconds(self) -> float:
        """Derived: total duration of the locate + refine spans."""
        if self.trace is None:
            return 0.0
        return self.trace.stage_seconds("locate") + self.trace.stage_seconds("refine")

    @property
    def llm_seconds(self) -> float:
        """Derived: total duration of the llm span."""
        return 0.0 if self.trace is None else self.trace.stage_seconds("llm")


class RAGPipeline:
    """Boxes 1–3 of the paper's workflow, traced per stage.

    ``mode`` is derived from the configuration: ``baseline`` (no
    retrieval), ``rag`` (first-pass retrieval only, truncated to L), or
    ``rag+rerank`` (K candidates reranked down to L).

    ``priority_retrievers`` compose generically into box 1: each is
    queried with ``k=priority_k`` and its hits are prepended to the main
    retriever's (an exact manual-page match is the highest-confidence
    material available).
    """

    def __init__(
        self,
        chat_model: ChatModel,
        *,
        retriever: Retriever | None = None,
        priority_retrievers: Sequence[Retriever] | None = None,
        reranker: Reranker | None = None,
        first_pass_k: int = 8,
        final_l: int = 4,
        priority_k: int = 2,
        retry_policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        deadline_seconds: float | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        priority = list(priority_retrievers) if priority_retrievers is not None else []
        if retriever is None and (priority or reranker is not None):
            raise ConfigurationError("priority retrievers / reranking require a retriever")
        if not 0 < final_l <= first_pass_k:
            raise ConfigurationError(
                f"final_l must be in (0, first_pass_k], got L={final_l}, K={first_pass_k}"
            )
        if priority_k <= 0:
            raise ConfigurationError(f"priority_k must be positive, got {priority_k}")
        self.chat_model = chat_model
        self.retriever = retriever
        self.priority_retrievers = priority
        self.reranker = reranker
        self.first_pass_k = first_pass_k
        self.final_l = final_l
        self.priority_k = priority_k
        self.retry_policy = retry_policy
        self.breaker = breaker
        self.deadline_seconds = deadline_seconds
        self.tracer = tracer if tracer is not None else Tracer()
        self._metrics = metrics

    @property
    def mode(self) -> PipelineMode:
        if self.retriever is None:
            return PipelineMode.BASELINE
        return PipelineMode.RAG_RERANK if self.reranker is not None else PipelineMode.RAG

    # ------------------------------------------------------------------ stages
    def _locate(self, question: str, ctx: RequestContext) -> list[RetrievedDocument]:
        """Box 1: every retriever runs in its own child span."""
        assert self.retriever is not None
        registry = ctx.registry
        hits: list[RetrievedDocument] = []
        # Priority hits are prepended: they outrank similarity scores.
        for r in self.priority_retrievers:
            with stage(
                r.name, metric=f"repro.retrieval.{r.name}",
                tracer=ctx.tracer, registry=registry, k=self.priority_k,
            ) as span:
                found = r.retrieve(question, k=self.priority_k, ctx=ctx)
                if span is not None:
                    span.attributes["hits"] = len(found)
            hits.extend(found)
        with stage(
            self.retriever.name, metric=f"repro.retrieval.{self.retriever.name}",
            tracer=ctx.tracer, registry=registry, k=self.first_pass_k,
        ) as span:
            found = self.retriever.retrieve(question, k=self.first_pass_k, ctx=ctx)
            if span is not None:
                span.attributes["hits"] = len(found)
        hits.extend(found)
        cap = self.first_pass_k + self.priority_k * len(self.priority_retrievers)
        return dedupe_by_id(hits)[:cap]

    def _refine(
        self,
        question: str,
        candidates: list[RetrievedDocument],
        ctx: RequestContext,
    ) -> list[RetrievedDocument]:
        """Box 2: rerank K candidates down to L (or truncate when disabled)."""
        if self.reranker is None:
            return candidates[: self.final_l]
        results = self.reranker.rerank(question, candidates, top_n=self.final_l, ctx=ctx)
        return [
            RetrievedDocument(
                document=r.document.document,
                score=r.rerank_score,
                origin=f"rerank[{self.reranker.name}]",
            )
            for r in results
        ]

    # ------------------------------------------------------------------ resilience
    def _complete_resilient(
        self, messages: list[ChatMessage], *, key: str, ctx: RequestContext
    ) -> tuple[CompletionResult, int]:
        """The LLM call under breaker + retry policy; returns (result, attempts).

        Each try opens an ``attempt`` child span under the current
        (``llm``) span; breaker state transitions observed across a call
        become span events.
        """
        counter = itertools.count(1)

        def base_call() -> CompletionResult:
            return self.chat_model.complete(messages, ctx=ctx)

        def guarded_call() -> CompletionResult:
            if self.breaker is None:
                return base_call()
            before = self.breaker.state
            try:
                return self.breaker.call(base_call)
            finally:
                after = self.breaker.state
                if after is not before:
                    ctx.tracer.event(
                        f"breaker:{after.value}", breaker=self.breaker.name
                    )

        def attempt_call() -> CompletionResult:
            with ctx.tracer.span("attempt", index=next(counter)):
                return guarded_call()

        if self.retry_policy is None:
            return attempt_call(), 1
        outcome = self.retry_policy.execute(
            attempt_call, key=("llm", self.chat_model.name, key), deadline=ctx.deadline
        )
        if outcome.attempts > 1:
            ctx.tracer.event("llm:retried", attempts=outcome.attempts)
        assert isinstance(outcome.value, CompletionResult)
        return outcome.value, outcome.attempts

    # ------------------------------------------------------------------ entry
    def answer(self, question: str, *, ctx: RequestContext | None = None) -> PipelineResult:
        """Run the full pipeline with the degradation ladder, traced.

        Ladder (each rung trades quality for availability): reranker
        failure -> truncate candidates to L; retrieval failure -> fall
        back to the baseline (no-context) prompt; transient LLM failure
        -> retry under the policy.  Only when every rung is exhausted
        does the error propagate.  Every rung taken is recorded both in
        ``degraded`` and as an event on the root span.

        Without an explicit ``ctx``, a sequential one is created over
        the pipeline's own tracer/metrics — the single-caller behavior.
        Concurrent callers (the engine's worker pool) must pass their
        own context so span trees and deadlines never interleave.
        """
        if ctx is None:
            ctx = RequestContext.create(
                tracer=self.tracer,
                registry=self._metrics if self._metrics is not None else get_registry(),
                deadline=(
                    Deadline(self.deadline_seconds)
                    if self.deadline_seconds is not None
                    else None
                ),
            )
        ctx.question = QuestionReading(question)
        registry = ctx.registry
        tracer = ctx.tracer
        registry.counter("repro.pipeline.requests").inc()
        degraded: list[DegradationEvent] = []
        candidates: list[RetrievedDocument] = []
        contexts: list[RetrievedDocument] = []
        located = False
        coverage = 1.0
        try:
            with tracer.trace(
                "pipeline", mode=str(self.mode), model=self.chat_model.name
            ) as trace:

                def degrade(event: DegradationEvent) -> None:
                    degraded.append(event)
                    trace.root.add_event(str(event), at=tracer.clock())
                    registry.counter("repro.pipeline.degradations").inc()
                    registry.counter(
                        f"repro.pipeline.degradation.{event.metric_suffix}"
                    ).inc()

                if self.retriever is not None:
                    try:
                        with stage(
                            "locate", metric="repro.pipeline.locate",
                            tracer=tracer, registry=registry,
                        ):
                            candidates = self._locate(question, ctx)
                        located = True
                    except PartialResultError:
                        # The caller demanded full shard coverage; no
                        # ladder rung can supply the missing shards, so
                        # the typed error propagates instead of silently
                        # degrading to the baseline prompt.
                        raise
                    except ReproError:
                        degrade(DegradationEvent.RETRIEVAL_BASELINE_FALLBACK)
                    coverage, ctx.shard_coverage = ctx.shard_coverage, 1.0
                    if located and coverage < 1.0:
                        degrade(DegradationEvent.SHARD_PARTIAL)
                    if located:
                        try:
                            with stage(
                                "refine", metric="repro.pipeline.refine",
                                tracer=tracer, registry=registry,
                                reranker=self.reranker.name if self.reranker else "truncate",
                            ):
                                contexts = self._refine(question, candidates, ctx)
                        except ReproError:
                            degrade(DegradationEvent.RERANK_TRUNCATE)
                            contexts = candidates[: self.final_l]
                if located:
                    prompt = RAG_PROMPT.format(
                        context=format_context(contexts), question=question
                    )
                else:
                    prompt = BASELINE_PROMPT.format(question=question)

                messages = [
                    ChatMessage(role="system", content=RAG_SYSTEM_PROMPT),
                    ChatMessage(role="user", content=prompt),
                ]
                with stage(
                    "llm", metric="repro.pipeline.llm",
                    tracer=tracer, registry=registry, model=self.chat_model.name,
                ):
                    completion, attempts = self._complete_resilient(
                        messages, key=question, ctx=ctx
                    )
                if completion.finish_reason == "length":
                    degrade(DegradationEvent.LLM_TRUNCATED)
        except BaseException:
            registry.counter("repro.pipeline.failures").inc()
            raise

        registry.counter("repro.llm.completions").inc()
        registry.counter("repro.llm.prompt_tokens").inc(completion.usage.prompt_tokens)
        registry.counter("repro.llm.completion_tokens").inc(
            completion.usage.completion_tokens
        )
        registry.histogram(
            "repro.pipeline.attempts", _ATTEMPT_BUCKETS, deterministic=True
        ).observe(attempts)
        registry.histogram(
            "repro.pipeline.contexts", _CONTEXT_BUCKETS, deterministic=True
        ).observe(len(contexts))

        return PipelineResult(
            question=question,
            answer=completion.text,
            mode=self.mode,
            model=self.chat_model.name,
            contexts=contexts,
            candidates=candidates,
            prompt=prompt,
            completion=completion,
            attempts=attempts,
            degraded=degraded,
            coverage=coverage,
            trace=trace,
        )


def pipeline_from_artifact(
    artifact: "IndexArtifact",
    config: ReproConfig | None = None,
    *,
    mode: str | PipelineMode = PipelineMode.RAG_RERANK,
    fault_injector: FaultInjector | None = None,
    retriever: Retriever | None = None,
    retriever_wrapper: "Callable[[Retriever], Retriever] | None" = None,
) -> RAGPipeline:
    """Assemble a pipeline over a prebuilt :class:`~repro.index.IndexArtifact`.

    The expensive work (chunking, embedding, vector-store construction)
    already happened when the artifact was built; this function only
    wires retrievers, reranker, resilience, and the chat model around it.

    ``retriever`` substitutes the first-pass retriever, by default a
    :class:`VectorRetriever` over the artifact's store — the engine
    passes one that embeds queries through its cache and, replicated,
    searches the replica-set view of the same shard stores.
    ``retriever_wrapper`` is applied to the main retriever *after* fault
    wrapping, which puts engine caches outside the fault site (a cache
    hit legitimately skips an injected fault only in cache-enabled,
    non-chaos builds; chaos engines disable the caches entirely).
    """
    config = config or ReproConfig()
    config.validate()
    mode = PipelineMode.coerce(mode)
    rc = config.retrieval
    resilience = {
        "retry_policy": RetryPolicy(),
        "breaker": CircuitBreaker(name="llm"),
        "deadline_seconds": config.deadline_seconds,
    }

    keyword = artifact.keyword_search()
    chat: ChatModel = create_chat_model(
        config.chat_model,
        registry=artifact.registry,
        known_identifiers=keyword.known_identifiers(),
        iterations_per_token=config.iterations_per_token,
    )
    if fault_injector is not None:
        chat = fault_injector.wrap_model(chat)
    if mode is PipelineMode.BASELINE:
        return RAGPipeline(chat, **resilience)

    if retriever is None:
        retriever = VectorRetriever(artifact.store)
    if fault_injector is not None:
        retriever = fault_injector.wrap_retriever(retriever)
    if retriever_wrapper is not None:
        retriever = retriever_wrapper(retriever)
    priority = [keyword] if rc.use_keyword_search else None

    reranker: Reranker | None = None
    if mode is PipelineMode.RAG_RERANK:
        if rc.reranker == "flashrank-lite":
            reranker = FlashrankLiteReranker(artifact.chunks)
        else:
            reranker = NvidiaSimReranker(artifact.chunks)
        if fault_injector is not None:
            reranker = fault_injector.wrap_reranker(reranker)
    return RAGPipeline(
        chat,
        retriever=retriever,
        priority_retrievers=priority,
        reranker=reranker,
        first_pass_k=rc.first_pass_k,
        final_l=rc.final_l,
        **resilience,
    )


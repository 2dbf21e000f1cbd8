"""The service front door: every consumer's one way in, and the scheduler.

:class:`ReproService` serves a request with two straight-line
functions.  :meth:`~ReproService.answer_many` is the deterministic
batch scheduler, one body of four phases — open, classify, execute,
commit/close; :meth:`~ReproService.answer` is the same steps for one
request, differing exactly where a synchronous caller differs: its own
counter, admission sheds and pipeline errors raise, the context is the
caller's (or created lazily), and the LLM burn happens inline rather
than at the batch close.  Both read the engine's cache generation once,
when they open, and commit their cache effects into it through
:meth:`~ReproService._commit`.  CLI commands, the chatbot, the email
bot, the workflow, evaluation and the chaos sweeps all route here;
:meth:`~ReproService._call` holds the only ``pipeline.answer()`` call
site in the library.

Every service is backed by a :class:`~repro.engine.QueryEngine`: the
shared artifact, the per-mode pipelines (baseline included), the
answer/retrieval/embedding caches and the engine metrics.  The engine
answers nothing itself; the service is the only thing that does, and it
owns the one admission controller both entry points draw on.
Everything digest-relevant below — metric names and increment order,
span shapes, event payloads, error strings, commit order — is frozen by
the golden fixtures of ``tests/test_service.py`` (DESIGN.md §12).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import TYPE_CHECKING, Iterable

from repro.admission import ADMIT, QUEUE, SHED, AdmissionController, AdmissionDecision
from repro.context import CacheTransaction, RequestContext
from repro.errors import ConfigurationError, ReproError
from repro.llm.latency import TokenBurnCollector
from repro.observability.trace import Span, SpanEvent, Trace
from repro.pipeline.rag import PipelineResult
from repro.pipeline.types import PipelineMode
from repro.resilience.policy import Deadline
from repro.service.lifecycle import AnswerResponse, BatchResult, question_digest

if TYPE_CHECKING:
    from repro.engine import QueryEngine
    from repro.engine.engine import CacheGeneration
    from repro.observability import MetricsRegistry
    from repro.pipeline.rag import RAGPipeline


def _one_span_trace(
    name: str, attributes: dict, event: str, event_attributes: dict
) -> Trace:
    """A closed root span carrying one event, for a request that ran no
    stage (an answer-cache hit, a shed): built directly, with the span
    tree a tracer would have recorded and ``start <= event <= end``."""
    start = time.perf_counter()
    root = Span(
        name=name,
        start=start,
        attributes=attributes,
        events=[SpanEvent(event, start, event_attributes)],
    )
    root.end = time.perf_counter()
    return Trace(root)


def _hit_view(result: PipelineResult) -> PipelineResult:
    """What an answer-cache hit on ``result`` returns: its answer under a
    fresh closed root span (no stage children), built once at commit."""
    return replace(
        result,
        contexts=list(result.contexts),
        candidates=list(result.candidates),
        degraded=list(result.degraded),
        trace=_one_span_trace(
            "pipeline",
            {"mode": str(result.mode), "model": result.model, "cached": True},
            "cache:answer-hit",
            {},
        ),
    )


def _deadline(pipeline: "RAGPipeline") -> Deadline | None:
    """A fresh wall-clock budget for one request, if the pipeline sets one."""
    seconds = pipeline.deadline_seconds
    return Deadline(seconds) if seconds is not None else None


def _shed_response(
    index: int, question: str, decision: AdmissionDecision
) -> AnswerResponse:
    """A rejected request's record: no work ran, but the rejection is
    traced so shed requests show up in span digests like any other."""
    trace = _one_span_trace(
        "admission",
        {"outcome": SHED},
        "admission:shed",
        {"client": decision.client, "retry_after": round(decision.retry_after, 6)},
    )
    return AnswerResponse(
        index=index,
        question=question,
        result=None,
        error=(
            f"OverloadedError: shed by admission "
            f"(retry after {decision.retry_after:.3f}s)"
        ),
        shed=True,
        retry_after=decision.retry_after,
        trace=trace,
    )


def _queued_trace(base: Trace, decision: AdmissionDecision) -> Trace:
    """A copy of ``base`` carrying the item's queue wait.  A copy, because
    dedupe duplicates share the result trace with their primary, which
    must not inherit this item's queueing; ``at=end`` keeps the closed
    root span well-formed."""
    queued = Trace.from_dict(base.to_dict())
    queued.root.add_event(
        "admission:queued",
        at=queued.root.end,
        queue_wait=round(decision.queue_wait, 6),
    )
    return queued


class ReproService:
    """One front door, one scheduler, over one engine."""

    def __init__(self, engine: "QueryEngine") -> None:
        self.engine = engine
        #: Overload protection for both entry points; ``None`` means wide open.
        self.admission: AdmissionController | None = (
            AdmissionController(engine.config.admission)
            if engine.config.admission.enabled
            else None
        )

    # ------------------------------------------------------------ plumbing
    @property
    def default_mode(self) -> PipelineMode:
        """The engine's default mode, read live so the two never disagree."""
        return self.engine.default_mode

    def resolve_mode(self, mode: str | PipelineMode | None = None) -> PipelineMode:
        """``mode`` coerced, or the engine's default when ``None``."""
        return PipelineMode.coerce(mode) if mode is not None else self.default_mode

    def pipeline_for(self, mode: str | PipelineMode | None = None) -> "RAGPipeline":
        """The engine's pipeline serving ``mode`` (built once, cached)."""
        return self.engine.pipeline(self.resolve_mode(mode))

    def model_name(self, mode: str | PipelineMode | None = None) -> str:
        """Name of the chat model behind ``mode``'s pipeline."""
        return self.pipeline_for(mode).chat_model.name

    def cache_answers_enabled(self) -> bool:
        """Whether requests may be served from / stored to the answer LRU."""
        # Fault injection is per-call state; serving a cached answer
        # would silently skip scheduled faults, so chaos builds bypass.
        return (
            self.engine.config.engine.answer_cache_size > 0
            and self.engine.fault_injector is None
        )

    def invalidate_query_caches(self) -> None:
        """Drop every entry of the live generation's three LRUs (the
        blunt tool, for cold-ask measurements; a corpus change carries
        forward per entry through :func:`~repro.ingest.ingest_corpus`)."""
        gen = self.engine.generation
        gen.answers.clear()
        gen.retrieval.clear()
        gen.embeddings.clear()

    # ------------------------------------------------------------ shared steps
    def _lookup(
        self, gen: "CacheGeneration", key: tuple, registry: "MetricsRegistry"
    ) -> PipelineResult | None:
        """Peek ``gen``'s answer cache under ``key`` (``question digest,
        mode``) and count the hit or miss.  A hit is the cached result
        itself, shared by every caller (it is immutable).  A peek never
        reorders the LRU: the caller touches, inline or at commit."""
        hit = gen.answers.peek(key)
        if hit is None:
            registry.counter("repro.engine.answer_cache.misses").inc()
            return None
        registry.counter("repro.engine.answer_cache.hits").inc()
        return hit

    def _call(
        self, pipeline: "RAGPipeline", question: str, ctx: RequestContext
    ) -> PipelineResult:
        """The one pipeline call.  The cache wrappers below the pipeline
        record into the request's transaction (``ctx.cache_txn``); the
        caller commits it, also when this raises."""
        return pipeline.answer(question, ctx=ctx)

    def _commit(
        self,
        gen: "CacheGeneration",
        entries: "Iterable[tuple[tuple, CacheTransaction | None, PipelineResult | None]]",
    ) -> None:
        """Publish requests' cache effects into ``gen``, in the order given.

        An entry is ``(answer key, transaction, result)``: no
        transaction means an answer-cache hit (its key is touched), else
        the request's recorded touches and writes are replayed and its
        result, if any, stored in the shape every later hit returns: the
        same answer under a one-span ``cache:answer-hit`` trace, with
        its own lists.  All land in ``gen``'s LRUs, which after a swap
        no new request reads (DESIGN §14.3).
        """
        use_cache = self.cache_answers_enabled()
        for key, txn, result in entries:
            if txn is None:
                gen.answers.touch(key)
                continue
            txn.commit()
            if result is not None and use_cache:
                gen.answers.put(key, _hit_view(result))

    # ------------------------------------------------------------ entry points
    def answer(
        self,
        question: str,
        *,
        mode: str | PipelineMode | None = None,
        ctx: RequestContext | None = None,
    ) -> PipelineResult:
        """Answer one question, synchronously.

        The steps of :meth:`answer_many` for one request: admission sheds
        raise ``OverloadedError`` and pipeline failures propagate (nothing
        here catches them, though what the request computed before
        failing is still committed); the LLM burn happens inline, under
        the caller's ``ctx`` when given.
        """
        engine = self.engine
        mode = self.resolve_mode(mode)
        # The run's registry, resolved once, here on the coordinator: the
        # caller's context, else the engine's handle, else the ambient scope.
        registry = ctx.registry if ctx is not None else engine._metrics()
        registry.counter("repro.engine.requests").inc()
        if self.admission is not None:
            # Raises (retry_safe) before any work: a shed request
            # consumes no cache lookup and no pipeline.
            self.admission.admit_one(registry=registry)
        gen = engine.generation  # read once: lookup, pipeline and commit all use it
        key = (question_digest(question), str(mode))
        if self.cache_answers_enabled():
            hit = self._lookup(gen, key, registry)
            if hit is not None:
                gen.answers.touch(key)
                return hit
        pipeline = engine.pipeline(mode, gen)
        if ctx is None:
            ctx = RequestContext.create(registry=registry, deadline=_deadline(pipeline))
        result = None
        try:
            result = self._call(pipeline, question, ctx)
            return result
        finally:
            self._commit(gen, [(key, ctx.cache_txn, result)])

    def answer_many(
        self,
        questions: list[str],
        *,
        mode: str | PipelineMode | None = None,
        workers: int | None = None,
        seed: int = 0,
        arrivals: list[float] | None = None,
        client_ids: list[str] | None = None,
    ) -> BatchResult:
        """Answer a batch deterministically over a bounded worker pool.

        Four phases: **open** (admission, counters, the shared burn
        collector, the mode's pipeline), **classify** each request in
        input order (shed, answer-cache hit, duplicate of an in-flight
        question, or job), **execute** the unique misses on the pool,
        each under its own :class:`~repro.context.RequestContext`, then
        **commit/close** in input order (cache effects, the deferred
        token burn through one vectorized kernel, admission feedback).

        Per-question pipeline failures are recorded on their
        :class:`~repro.service.AnswerResponse` — a batch never aborts
        mid-flight.  Digests are byte-identical regardless of worker
        count (DESIGN.md §12).
        """
        engine = self.engine
        mode = self.resolve_mode(mode)
        if workers is None:
            workers = engine.config.engine.batch_workers
        if workers <= 0:
            raise ConfigurationError(f"workers must be positive, got {workers}")
        n = len(questions)
        if arrivals is not None and len(arrivals) != n:
            raise ConfigurationError(
                f"arrivals has {len(arrivals)} entries for {n} questions"
            )
        if client_ids is not None and len(client_ids) != n:
            raise ConfigurationError(
                f"client_ids has {len(client_ids)} entries for {n} questions"
            )

        # ---- open.  The batch reads the generation once; every lookup,
        # pipeline and commit below is that generation's.
        started = time.perf_counter()
        registry = engine._metrics()
        gen = engine.generation
        admission = self.admission
        decisions: list[AdmissionDecision] | None = None
        if admission is not None:
            decisions = admission.admit_batch(
                [0.0] * n if arrivals is None else [float(t) for t in arrivals],
                ["default"] * n if client_ids is None else list(client_ids),
                registry=registry,
            )
            workers = max(1, min(workers, admission.concurrency_limit))
            registry.gauge("repro.admission.concurrency_limit").set(
                float(admission.concurrency_limit)
            )
        use_cache = self.cache_answers_enabled()
        registry.counter("repro.engine.batches").inc()
        registry.counter("repro.engine.batch_requests").inc(n)
        collector = TokenBurnCollector()
        pipeline = engine.pipeline(mode, gen)

        # ---- classify, in input order.  Shed first: a rejected request
        # consumes nothing — no dedupe slot, no LRU touch.  The answer
        # cache is peeked (and counts its hit or miss) before the dedupe
        # check, so a repeat of an in-flight miss counts a miss and then
        # a dedupe; the caches are frozen for the whole batch, so both
        # counts are pure functions of the workload.
        mode_name = str(mode)
        items: list[AnswerResponse | None] = [None] * n
        #: (answer key, job index — ``None`` for a hit), in input order.
        commits: list[tuple[tuple, int | None]] = []
        primary_of: dict[tuple, int] = {}
        duplicates: list[tuple[int, int]] = []
        jobs: list[int] = []
        for i, question in enumerate(questions):
            if decisions is not None and decisions[i].outcome == SHED:
                items[i] = _shed_response(i, question, decisions[i])
                continue
            key = (question_digest(question), mode_name)
            hit = self._lookup(gen, key, registry) if use_cache else None
            if hit is not None:
                commits.append((key, None))
                items[i] = AnswerResponse(
                    index=i, question=question, result=hit, cached=True
                )
            elif key in primary_of:
                registry.counter("repro.engine.batch_deduped").inc()
                duplicates.append((i, primary_of[key]))
            else:
                primary_of[key] = i
                jobs.append(i)
                commits.append((key, i))

        # ---- execute.  Each job's request id is a function of (batch
        # seed, input index), never of the worker that ran it; cache
        # effects go to a transaction, the LLM burn to the shared
        # collector, and a pipeline failure is recorded, not raised.
        def run_one(index: int) -> tuple[PipelineResult | None, str, CacheTransaction]:
            ctx = RequestContext.create(
                request_id=f"batch{seed}-{index:05d}",
                registry=registry,
                deadline=_deadline(pipeline),
                burn_collector=collector,
            )
            try:
                return self._call(pipeline, questions[index], ctx), "", ctx.cache_txn
            except ReproError as exc:
                return None, f"{type(exc).__name__}: {exc}", ctx.cache_txn

        if workers == 1:
            outcomes = {i: run_one(i) for i in jobs}
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = {i: pool.submit(run_one, i) for i in jobs}
                outcomes = {i: future.result() for i, future in futures.items()}

        # ---- commit, in input order, so the cache state future requests
        # observe is independent of worker count.
        self._commit(
            gen,
            (
                (key, None, None) if job is None else (key, outcomes[job][2], outcomes[job][0])
                for key, job in commits
            ),
        )
        for i, (result, error, _txn) in outcomes.items():
            items[i] = AnswerResponse(
                index=i, question=questions[i], result=result, error=error
            )
        for i, first in duplicates:
            primary = items[first]
            items[i] = AnswerResponse(
                index=i,
                question=questions[i],
                result=primary.result,
                cached=True,
                error=primary.error,
            )
        assert all(it is not None for it in items), "scheduler dropped a request"

        # ---- close.  One vectorized flush spends every deferred token.
        deferred_tokens, _ = collector.pending()
        burn_seconds = collector.flush()
        registry.counter("repro.engine.deferred_tokens").inc(deferred_tokens)
        registry.counter("repro.engine.batch_answers").inc(
            sum(1 for it in items if it.answered)
        )
        batch_seconds = time.perf_counter() - started
        if decisions is not None:
            # AIMD feedback last and in input order, so the limit two
            # batches from now is as reproducible as this batch's answers.
            for d in decisions:
                it = items[d.index]
                queued = d.outcome == QUEUE and it.result is not None
                base = it.result.trace if queued else None
                if base is not None and base.root.end is not None:
                    it.trace = _queued_trace(base, d)
                if d.outcome in (ADMIT, QUEUE):
                    admission.observe_outcome(it.answered, it.error, registry=registry)
            registry.gauge("repro.admission.concurrency_limit").set(
                float(admission.concurrency_limit)
            )
        return BatchResult(
            mode=mode,
            workers=workers,
            seed=seed,
            items=items,
            decisions=decisions,
            batch_seconds=batch_seconds,
            burn_seconds=burn_seconds,
            deferred_tokens=deferred_tokens,
            cache_sizes=gen.cache_sizes(),
        )

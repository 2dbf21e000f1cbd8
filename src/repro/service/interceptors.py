"""The interceptor chain: every cross-cutting serving concern, one each.

The canonical chain is ``admission → dedupe → answer-cache → tracing →
execute → record``.  The scheduler (:meth:`ReproService._run`) drives
six hooks:

``setup(state)``
    Chain order, once per run, before any request is classified.
``on_request(req, state) -> AnswerResponse | None``
    Chain order, per request.  Returning a response *disposes* the
    request — later interceptors never see it (admission sheds, cache
    hits).
``claim(req, state) -> bool``
    Chain order, per request, after every ``on_request`` declined.
    Returning True parks the request with the claiming interceptor
    (dedupe duplicates).  Ordering contract: dedupe only *marks* a
    repeat in ``on_request`` and claims it here, after the answer
    cache has counted its miss — preserving the pre-chain counter
    totals while keeping dedupe ahead of the cache in the chain.
``on_job(req, state)``
    Chain order, for requests that became jobs (dedupe registers the
    primary index for its key).
``execute(state)``
    Only the execute interceptor implements this: run every job.
``finish(state)``
    *Reverse* chain order, once per run: record assembles and commits,
    tracing flushes the deferred burn and final counters, admission
    annotates queued traces and feeds the AIMD controller last.

Everything digest-relevant below — metric names, span shapes, event
payloads, error strings, commit order — is copied byte-for-byte from
the pre-lifecycle ``QueryEngine.answer`` / ``answer_many`` and frozen
by ``tests/test_service.py``'s golden fixtures.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.admission import ADMIT, QUEUE, SHED, AdmissionDecision
from repro.context import RequestContext
from repro.engine.caches import CacheTransaction
from repro.errors import ReproError, ServiceConfigurationError
from repro.llm.latency import TokenBurnCollector
from repro.observability import Tracer
from repro.observability.trace import Trace
from repro.pipeline.rag import PipelineResult
from repro.resilience.policy import Deadline
from repro.service.lifecycle import (
    BATCH,
    SINGLE,
    AnswerRequest,
    AnswerResponse,
    LifecycleState,
)
from repro.utils.rng import derive_seed


class Interceptor:
    """Base interceptor: every hook is a no-op.  Subclasses set
    ``name`` (the chain-validation identity) and override only the
    hooks their concern needs."""

    name = ""

    def setup(self, state: LifecycleState) -> None:
        pass

    def on_request(
        self, req: AnswerRequest, state: LifecycleState
    ) -> AnswerResponse | None:
        return None

    def claim(self, req: AnswerRequest, state: LifecycleState) -> bool:
        return False

    def on_job(self, req: AnswerRequest, state: LifecycleState) -> None:
        pass

    def execute(self, state: LifecycleState) -> None:
        pass

    def finish(self, state: LifecycleState) -> None:
        pass


class AdmissionInterceptor(Interceptor):
    """Overload protection: admit/queue/shed before any work runs.

    Reads ``state.arrivals``/``client_ids``; writes ``state.decisions``
    and clamps ``state.workers`` to the AIMD limit.  In ``finish`` (the
    last hook to run) it annotates queued items' traces and feeds
    per-item outcomes back to the AIMD controller in input order.
    Single requests go through ``admit_one``, which raises a
    retry-safe ``OverloadedError`` instead of recording a shed item.
    """

    name = "admission"

    def setup(self, state: LifecycleState) -> None:
        admission = state.service.admission
        if admission is None or state.kind is not BATCH:
            return
        state.decisions = admission.admit_batch(
            state.arrivals, state.client_ids, registry=state.registry
        )
        state.workers = max(1, min(state.workers, admission.concurrency_limit))
        state.registry.gauge("repro.admission.concurrency_limit").set(
            float(admission.concurrency_limit)
        )

    def on_request(
        self, req: AnswerRequest, state: LifecycleState
    ) -> AnswerResponse | None:
        admission = state.service.admission
        if admission is None:
            return None
        if state.kind is SINGLE:
            # Sheds raise OverloadedError (retry_safe) before any work.
            admission.admit_one(registry=state.registry)
            return None
        decision = state.decisions[req.index] if state.decisions else None
        if decision is not None and decision.outcome == SHED:
            # Shed before the caches: a rejected request consumes
            # nothing — no token, no dedupe slot, no LRU touch.
            return self._shed_response(req, decision)
        return None

    @staticmethod
    def _shed_response(
        req: AnswerRequest, decision: AdmissionDecision
    ) -> AnswerResponse:
        """A rejected request's record: no work ran, but the rejection is
        traced so shed requests show up in span digests like any other."""
        tracer = Tracer()
        with tracer.trace("admission", outcome=SHED) as trace:
            tracer.event(
                "admission:shed",
                client=decision.client,
                retry_after=round(decision.retry_after, 6),
            )
        return AnswerResponse(
            index=req.index,
            question=req.question,
            result=None,
            error=(
                f"OverloadedError: shed by admission "
                f"(retry after {decision.retry_after:.3f}s)"
            ),
            shed=True,
            retry_after=decision.retry_after,
            trace=trace,
        )

    def finish(self, state: LifecycleState) -> None:
        if state.decisions is None:
            return
        admission = state.service.admission
        assert admission is not None
        for d in state.decisions:
            it = state.items[d.index]
            if d.outcome == QUEUE:
                base = it.result.trace if it.result is not None else None
                if base is not None and base.root.end is not None:
                    # Annotate a copy: dedupe duplicates share the
                    # result trace with their primary, which must not
                    # inherit this item's queueing.  at=end keeps the
                    # closed root span well-formed.
                    queued = Trace.from_dict(base.to_dict())
                    queued.root.add_event(
                        "admission:queued",
                        at=queued.root.end,
                        queue_wait=round(d.queue_wait, 6),
                    )
                    it.trace = queued
            # AIMD feedback in input order, so the limit two batches
            # from now is as reproducible as this batch's answers.
            if d.outcome in (ADMIT, QUEUE):
                admission.observe_outcome(it.answered, it.error, registry=state.registry)
        state.registry.gauge("repro.admission.concurrency_limit").set(
            float(admission.concurrency_limit)
        )


class DedupeInterceptor(Interceptor):
    """Coalesce repeated in-flight questions onto one primary job.

    ``on_request`` only *marks* a repeat (``req.dup_of``); the claim —
    counter increment plus parking on ``state.duplicates`` — happens
    after the answer cache declined the request, so hit/miss totals
    match the pre-chain scheduler exactly.  ``record`` later fills
    duplicates from their primary's committed outcome.
    """

    name = "dedupe"

    def on_request(
        self, req: AnswerRequest, state: LifecycleState
    ) -> AnswerResponse | None:
        req.dup_of = state.primary_of.get(state.key_of(req))
        return None

    def claim(self, req: AnswerRequest, state: LifecycleState) -> bool:
        if req.dup_of is None:
            return False
        state.registry.counter("repro.engine.batch_deduped").inc()
        state.duplicates.append((req.index, req.dup_of))
        return True

    def on_job(self, req: AnswerRequest, state: LifecycleState) -> None:
        state.primary_of[state.key_of(req)] = req.index


@dataclass
class _CachedAnswer:
    """The replayable slice of a pipeline result (no trace, no timings)."""

    answer: str
    model: str
    contexts: tuple
    candidates: tuple
    prompt: str
    completion: object
    attempts: int
    degraded: tuple
    coverage: float = 1.0

    @classmethod
    def from_result(cls, result: PipelineResult) -> "_CachedAnswer":
        return cls(
            answer=result.answer,
            model=result.model,
            contexts=tuple(result.contexts),
            candidates=tuple(result.candidates),
            prompt=result.prompt,
            completion=result.completion,
            attempts=result.attempts,
            degraded=tuple(result.degraded),
            coverage=result.coverage,
        )


class AnswerCacheInterceptor(Interceptor):
    """Serve repeat questions from the engine's answer LRU.

    The only module allowed to touch ``_answer_lru`` (enforced by the
    conformance test).  Batch hits defer their LRU reorder to the
    commit phase (``record`` calls :meth:`commit_touch` in input
    order); single hits touch inline, exactly as the pre-chain
    sequential path did.  ``commit_store`` is how ``record`` publishes
    fresh results back into the cache after a job commits.
    """

    name = "answer-cache"

    def setup(self, state: LifecycleState) -> None:
        state.use_cache = state.service.cache_answers_enabled()

    def on_request(
        self, req: AnswerRequest, state: LifecycleState
    ) -> AnswerResponse | None:
        if not state.use_cache:
            return None
        engine = state.service.engine
        key = state.key_of(req)
        payload = engine._answer_lru.peek(key)
        if payload is not None:
            state.registry.counter("repro.engine.answer_cache.hits").inc()
            if state.kind is SINGLE:
                engine._answer_lru.touch(key)
            else:
                state.hit_keys[req.index] = key
            return AnswerResponse(
                index=req.index,
                question=req.question,
                result=self._replay(req.question, state.mode, payload),
                cached=True,
            )
        state.registry.counter("repro.engine.answer_cache.misses").inc()
        return None

    @staticmethod
    def _replay(question: str, mode, payload: _CachedAnswer) -> PipelineResult:
        """Materialize a cached answer: fresh root span, no llm child."""
        tracer = Tracer()
        with tracer.trace(
            "pipeline", mode=str(mode), model=payload.model, cached=True
        ) as trace:
            tracer.event("cache:answer-hit")
        return PipelineResult(
            question=question,
            answer=payload.answer,
            mode=mode,
            model=payload.model,
            contexts=list(payload.contexts),
            candidates=list(payload.candidates),
            prompt=payload.prompt,
            completion=payload.completion,
            attempts=payload.attempts,
            degraded=list(payload.degraded),
            coverage=payload.coverage,
            trace=trace,
        )

    # ------------------------------------------------- commit-phase hooks
    def commit_touch(self, state: LifecycleState, key: tuple) -> None:
        state.service.engine._answer_lru.touch(key)

    def commit_store(
        self, state: LifecycleState, key: tuple, result: PipelineResult
    ) -> None:
        state.service.engine._answer_lru.put(key, _CachedAnswer.from_result(result))


class TracingInterceptor(Interceptor):
    """Request/batch counters, the shared burn collector, wall timing."""

    name = "tracing"

    def setup(self, state: LifecycleState) -> None:
        if state.kind is SINGLE:
            state.registry.counter("repro.engine.requests").inc()
            return
        state.registry.counter("repro.engine.batches").inc()
        state.registry.counter("repro.engine.batch_requests").inc(len(state.requests))
        state.collector = TokenBurnCollector()

    def finish(self, state: LifecycleState) -> None:
        if state.kind is not BATCH:
            return
        collector = state.collector
        if collector is not None:
            state.deferred_tokens, _ = collector.pending()
            state.burn_seconds = collector.flush()
            state.registry.counter("repro.engine.deferred_tokens").inc(
                state.deferred_tokens
            )
        state.registry.counter("repro.engine.batch_answers").inc(
            sum(1 for it in state.items if it.answered)
        )
        state.batch_seconds = time.perf_counter() - state.started


class ExecuteInterceptor(Interceptor):
    """Run every job through the pipeline — the only place in the
    codebase that invokes ``pipeline.answer()``.

    Batch jobs run on a bounded pool, each under its own deterministic
    :class:`RequestContext` (seeded RNG, deferred cache transaction,
    shared burn collector); single jobs run inline with a lazily
    created context, and their errors propagate instead of being
    recorded.
    """

    name = "execute"

    def setup(self, state: LifecycleState) -> None:
        if state.kind is BATCH:
            # Built on the coordinator, before classification, shared.
            state.pipeline = state.service.pipeline_for(state.mode)

    def execute(self, state: LifecycleState) -> None:
        jobs = state.jobs
        if not jobs:
            return
        if state.kind is SINGLE:
            state.pipeline = state.service.pipeline_for(state.mode)
            self._execute_single(jobs[0], state)
        else:
            self._execute_batch(jobs, state)

    @staticmethod
    def _answer(state: LifecycleState, question: str, ctx: RequestContext) -> PipelineResult:
        """One pipeline call with ``ctx`` bound as the engine's active request."""
        binder = state.service.engine.binder
        previous = binder.ctx
        binder.ctx = ctx
        try:
            return state.pipeline.answer(question, ctx=ctx)
        finally:
            binder.ctx = previous

    @staticmethod
    def _deadline(state: LifecycleState) -> Deadline | None:
        seconds = state.pipeline.deadline_seconds
        return Deadline(seconds) if seconds is not None else None

    def _execute_single(self, req: AnswerRequest, state: LifecycleState) -> None:
        ctx = req.ctx
        if ctx is None:
            ctx = RequestContext.create(
                registry=state.registry, deadline=self._deadline(state)
            )
        state.outcomes[req.index] = (self._answer(state, req.question, ctx), "", None)

    def _execute_batch(self, jobs, state: LifecycleState) -> None:
        seed = state.seed

        def run_one(index: int, question: str):
            ctx = RequestContext.create(
                request_id=f"batch{seed}-{index:05d}",
                seed=derive_seed("engine-batch", seed, index),
                registry=state.registry,
                deadline=self._deadline(state),
                burn_collector=state.collector,
            )
            txn = CacheTransaction()
            ctx.scratch["cache_txn"] = txn
            try:
                result: PipelineResult | None = self._answer(state, question, ctx)
                error = ""
            except ReproError as exc:
                result = None
                error = f"{type(exc).__name__}: {exc}"
            return result, error, txn

        if state.workers == 1:
            for req in jobs:
                state.outcomes[req.index] = run_one(req.index, req.question)
        else:
            with ThreadPoolExecutor(max_workers=state.workers) as pool:
                futures = {
                    req.index: pool.submit(run_one, req.index, req.question)
                    for req in jobs
                }
                for index, future in futures.items():
                    state.outcomes[index] = future.result()


class RecordInterceptor(Interceptor):
    """Assemble final items and replay deferred commits in input order.

    Runs first in the finish phase (reverse chain order): walks the
    requests in submission order, touching batch cache hits, committing
    each job's cache transaction, publishing fresh answers through the
    cache interceptor, and filling dedupe duplicates from their
    primaries — so the cache state future requests observe is
    independent of worker count.
    """

    name = "record"

    def finish(self, state: LifecycleState) -> None:
        cache: AnswerCacheInterceptor = state.interceptors["answer-cache"]
        n = len(state.requests)
        for req in state.requests:
            i = req.index
            hit_key = state.hit_keys.get(i)
            if hit_key is not None:
                cache.commit_touch(state, hit_key)
                continue
            outcome = state.outcomes.get(i)
            if outcome is None:
                continue  # duplicate (filled below) or shed
            result, error, txn = outcome
            if txn is not None:
                txn.commit()
            if result is not None and state.use_cache:
                cache.commit_store(state, req.key, result)
            state.items[i] = AnswerResponse(
                index=i, question=req.question, result=result, error=error
            )
        for i, first in state.duplicates:
            primary = state.items[first]
            assert primary is not None
            state.items[i] = AnswerResponse(
                index=i,
                question=state.requests[i].question,
                result=primary.result,
                cached=True,
                error=primary.error,
            )
        final_items = [it for it in state.items if it is not None]
        assert len(final_items) == n, "scheduler dropped a request"
        state.items = final_items


#: The canonical chain order; ``validate_chain`` enforces it.
CANONICAL_CHAIN = ("admission", "dedupe", "answer-cache", "tracing", "execute", "record")

_CORE_CLASSES = {
    "admission": AdmissionInterceptor,
    "dedupe": DedupeInterceptor,
    "answer-cache": AnswerCacheInterceptor,
    "tracing": TracingInterceptor,
    "execute": ExecuteInterceptor,
    "record": RecordInterceptor,
}


def default_chain() -> list[Interceptor]:
    """A fresh canonical chain (interceptors are stateless between
    runs — all per-run state lives on :class:`LifecycleState`)."""
    return [_CORE_CLASSES[name]() for name in CANONICAL_CHAIN]


def validate_chain(chain: list[Interceptor]) -> None:
    """Fail loudly on a malformed chain, before any request runs.

    Every core interceptor must appear exactly once and in canonical
    relative order.  Additional (custom) interceptors may interleave
    anywhere, provided they carry a unique non-empty ``name`` — that is
    the extension point for future concerns (quota, redaction,
    multi-backend routing) without touching the scheduler.
    """
    if not chain:
        raise ServiceConfigurationError("interceptor chain is empty")
    names = [getattr(icp, "name", "") for icp in chain]
    if any(not name for name in names):
        raise ServiceConfigurationError(
            "every interceptor needs a non-empty .name for chain validation"
        )
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise ServiceConfigurationError(
                f"interceptor {name!r} appears more than once in the chain"
            )
        seen.add(name)
    missing = [name for name in CANONICAL_CHAIN if name not in seen]
    if missing:
        raise ServiceConfigurationError(
            f"interceptor chain is missing required interceptor(s) {missing}; "
            f"the canonical chain is {list(CANONICAL_CHAIN)}"
        )
    core_order = tuple(name for name in names if name in CANONICAL_CHAIN)
    if core_order != CANONICAL_CHAIN:
        raise ServiceConfigurationError(
            f"interceptor chain order {list(core_order)} violates the canonical "
            f"order {list(CANONICAL_CHAIN)}"
        )

"""The service front door: every consumer's one way in.

:class:`ReproService` owns a validated interceptor chain and one
deterministic scheduler.  ``answer()`` is a batch of one through the
same chain as ``answer_many()`` — there is no separate sequential code
path anymore.  CLI commands, the chatbot, the email bot, the workflow,
evaluation, and the chaos/robustness sweeps all route here; the only
``pipeline.answer()`` call site left in the library is the execute
interceptor.

Every service is backed by a :class:`~repro.engine.QueryEngine`: the
shared artifact, the per-mode pipelines (baseline included), the
answer/retrieval/embedding caches, admission, and the engine metrics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, ReproError
from repro.observability import get_registry
from repro.pipeline.types import PipelineMode
from repro.service.interceptors import Interceptor, default_chain, validate_chain
from repro.service.lifecycle import (
    BATCH,
    SINGLE,
    AnswerRequest,
    BatchResult,
    LifecycleState,
    question_digest,
)

if TYPE_CHECKING:
    from repro.admission import AdmissionController
    from repro.context import RequestContext
    from repro.engine import QueryEngine
    from repro.observability import MetricsRegistry
    from repro.pipeline.rag import PipelineResult, RAGPipeline


class ReproService:
    """One front door over one validated interceptor chain."""

    def __init__(
        self,
        engine: "QueryEngine",
        *,
        default_mode: str | PipelineMode | None = None,
        chain: list[Interceptor] | None = None,
    ) -> None:
        self.engine = engine
        self.default_mode = (
            PipelineMode.coerce(default_mode)
            if default_mode is not None
            else engine.default_mode
        )
        self.chain: list[Interceptor] = (
            list(chain) if chain is not None else default_chain()
        )
        validate_chain(self.chain)
        self._interceptors = {icp.name: icp for icp in self.chain}

    # ------------------------------------------------------------ plumbing
    @property
    def admission(self) -> "AdmissionController | None":
        return self.engine.admission

    def resolve_mode(self, mode: str | PipelineMode | None = None) -> PipelineMode:
        return PipelineMode.coerce(mode) if mode is not None else self.default_mode

    def pipeline_for(self, mode: str | PipelineMode | None = None) -> "RAGPipeline":
        """The engine's pipeline serving ``mode`` (built once, cached)."""
        return self.engine.pipeline(self.resolve_mode(mode))

    def model_name(self, mode: str | PipelineMode | None = None) -> str:
        return self.pipeline_for(mode).chat_model.name

    def cache_answers_enabled(self) -> bool:
        # Fault injection is per-call state; serving a cached answer
        # would silently skip scheduled faults, so chaos builds bypass.
        return (
            self.engine.config.engine.answer_cache_size > 0
            and self.engine.fault_injector is None
        )

    def invalidate_query_caches(self, delta=None) -> None:
        """Invalidate the engine's query caches after mutating the store
        a pipeline retrieves from.

        With a :class:`~repro.ingest.delta.CorpusDelta`, eviction is
        scoped to exactly the entries the change can affect; without one
        every entry is dropped, the pre-lifecycle behavior.
        """
        if delta is not None:
            from repro.ingest.invalidation import invalidate_engine_caches

            invalidate_engine_caches(self.engine, delta, stale_digest=None)
        else:
            self.engine.clear_query_caches()

    def _key_fn(self, mode: PipelineMode):
        artifact_digest = self.engine.artifact.digest
        return lambda req: (question_digest(req.question), str(mode), artifact_digest)

    def _registry_for(self, ctx: "RequestContext | None") -> "MetricsRegistry":
        """The run's registry: request-scoped handle first, explicit
        engine handle, then the ambient scope — resolved on the
        coordinator, never inside worker threads."""
        if ctx is not None and ctx.registry is not None:
            return ctx.registry
        if self.engine.registry is not None:
            return self.engine.registry
        return get_registry()

    # ------------------------------------------------------------ scheduler
    def _run(self, state: LifecycleState) -> LifecycleState:
        """Drive one lifecycle: setups in chain order, the per-request
        walk (dispose → claim → job), execute, then finishes in
        reverse chain order."""
        state.interceptors = self._interceptors
        chain = self.chain
        for icp in chain:
            icp.setup(state)
        for req in state.requests:
            response = None
            for icp in chain:
                response = icp.on_request(req, state)
                if response is not None:
                    state.items[req.index] = response
                    break
            if response is not None:
                continue
            if any(icp.claim(req, state) for icp in chain):
                continue
            state.jobs.append(req)
            for icp in chain:
                icp.on_job(req, state)
        for icp in chain:
            icp.execute(state)
        for icp in reversed(chain):
            icp.finish(state)
        return state

    # ------------------------------------------------------------ entry points
    def answer(
        self,
        question: str,
        *,
        mode: str | PipelineMode | None = None,
        ctx: "RequestContext | None" = None,
    ) -> "PipelineResult":
        """Answer one question: a batch of one through the chain.

        Admission sheds raise ``OverloadedError`` and pipeline failures
        propagate, exactly like the pre-service sequential path.
        """
        mode = self.resolve_mode(mode)
        state = LifecycleState(
            service=self,
            kind=SINGLE,
            mode=mode,
            requests=[AnswerRequest(question=question, mode=mode, ctx=ctx)],
            registry=self._registry_for(ctx),
            key_fn=self._key_fn(mode),
        )
        self._run(state)
        item = state.items[0]
        if item.result is None:  # pragma: no cover — single-kind errors raise
            raise ReproError(item.error or "request produced no result")
        return item.result

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

        The chain runs three phases: (1) per-request classification in
        input order — admission sheds, answer-cache hits, dedupe claims;
        (2) unique misses execute on the pool, each under its own
        :class:`~repro.context.RequestContext` (tracer, seeded RNG,
        deferred cache transaction, shared burn collector); (3) the
        finish phase replays cache commits in submission order, spends
        the deferred token burn through one vectorized kernel, and
        feeds admission outcomes to the AIMD controller.

        Per-question pipeline failures are recorded on their
        :class:`~repro.service.AnswerResponse` — a batch never aborts
        mid-flight.  Digests are byte-identical regardless of worker
        count (DESIGN.md §12).
        """
        mode = self.resolve_mode(mode)
        if workers is None:
            workers = self.engine.config.engine.batch_workers
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
        arrivals = [0.0] * n if arrivals is None else [float(t) for t in arrivals]
        client_ids = ["default"] * n if client_ids is None else list(client_ids)
        state = LifecycleState(
            service=self,
            kind=BATCH,
            mode=mode,
            requests=[
                AnswerRequest(
                    question=question,
                    mode=mode,
                    index=i,
                    client_id=client_ids[i],
                    arrival=arrivals[i],
                )
                for i, question in enumerate(questions)
            ],
            registry=self._registry_for(None),
            seed=seed,
            workers=workers,
            arrivals=arrivals,
            client_ids=client_ids,
            key_fn=self._key_fn(mode),
        )
        self._run(state)
        return BatchResult(
            mode=mode,
            workers=state.workers,
            seed=seed,
            items=state.items,
            decisions=state.decisions,
            batch_seconds=state.batch_seconds,
            burn_seconds=state.burn_seconds,
            deferred_tokens=state.deferred_tokens,
            cache_sizes=self.engine.cache_sizes(),
        )

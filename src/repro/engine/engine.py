"""The query engine: one artifact, per-mode pipelines, shared caches.

A :class:`QueryEngine` owns one immutable
:class:`~repro.index.IndexArtifact`, lazily-built pipelines for each
mode, the answer/retrieval/embedding LRU caches, and the health tracker
of the shard replicas it serves from.  Retrieval is scatter-gather over
the artifact's shards — one shard, one replica by default — and nothing
above the store knows the shard count: the merge order ``(-score,
doc_id)`` makes retrieval partition-invariant.  Serving goes through the
request lifecycle in :mod:`repro.service`: :meth:`QueryEngine.answer`
and :meth:`QueryEngine.answer_many` are thin wrappers over the engine's
:class:`~repro.service.ReproService`, whose scheduler admits, consults
the answer cache, dedupes, executes and commits every request.

Determinism contract (see DESIGN.md §8 and §12): everything
digest-relevant is a pure function of (artifact digest, question list,
mode, seed, cache state at batch start).  Worker count and thread
scheduling may only move wall-clock numbers, which the digests exclude
by construction.
"""

from __future__ import annotations

import threading

from repro.admission import AdmissionController
from repro.config import ReproConfig
from repro.context import RequestContext
from repro.engine.caches import CachedEmbedding, CachingRetriever, ContextBinder, LRUCache
from repro.errors import ConfigurationError
from repro.index import IndexArtifact
from repro.observability import MetricsRegistry, get_registry
from repro.pipeline.rag import PipelineResult, RAGPipeline, pipeline_from_artifact
from repro.pipeline.types import PipelineMode
from repro.replication import HealthTracker
from repro.resilience.faults import FaultInjector
from repro.service.lifecycle import BatchResult


class QueryEngine:
    """Batched question answering over one shared index artifact."""

    default_mode: PipelineMode = PipelineMode.RAG_RERANK

    def __init__(
        self,
        artifact: IndexArtifact,
        config: ReproConfig | None = None,
        *,
        fault_injector: FaultInjector | None = None,
        registry: MetricsRegistry | None = None,
        admission: AdmissionController | None = None,
    ) -> None:
        if not artifact.shards:
            raise ConfigurationError(
                "QueryEngine serves the composite artifact get_or_build_index "
                "resolves, not a bare shard"
            )
        self.artifact = artifact
        self.config = config or ReproConfig()
        self.config.validate()
        self.fault_injector = fault_injector
        #: Overload protection; built from config unless injected (tests
        #: inject one with a fake clock).  ``None`` means wide open.
        if admission is not None:
            self.admission: AdmissionController | None = admission
        elif self.config.admission.enabled:
            self.admission = AdmissionController(self.config.admission)
        else:
            self.admission = None
        #: Explicit metrics sink; ``None`` resolves the ambient scope at
        #: the *coordinator*, never inside worker threads (a worker's
        #: thread-local scope would not see the caller's ``use_registry``).
        self.registry = registry
        ec = self.config.engine
        self.binder = ContextBinder()
        self._embedding_lru = LRUCache(ec.embedding_cache_size)
        self._retrieval_lru = LRUCache(ec.retrieval_cache_size)
        self._answer_lru = LRUCache(ec.answer_cache_size)
        self._query_embedding = CachedEmbedding(
            artifact.embedding, self._embedding_lru, self.binder, self._metrics
        )
        # One tracker across every pipeline mode: health is a property
        # of the serving copies, not of the mode that probed them.
        self.replica_health = HealthTracker(
            self.config.replication, registry_fn=self._metrics
        )
        self._pipelines: dict[PipelineMode, RAGPipeline] = {}
        self._build_lock = threading.Lock()
        self._service = None
        #: Monotonic artifact generation: 0 at construction, +1 per
        #: :meth:`swap_artifact`.  Purely observational — answer-cache
        #: keys carry the artifact digest, not the epoch.
        self.epoch = 0
        #: Accounting dict from the most recent cache invalidation
        #: (:func:`repro.ingest.invalidation.invalidate_engine_caches`),
        #: surfaced in :class:`~repro.ingest.lifecycle.IngestReport`.
        self._last_invalidation: dict = {}

    # ------------------------------------------------------------ plumbing
    @property
    def service(self):
        """The engine's :class:`~repro.service.ReproService` — the one
        scheduler every request (single or batch) flows through."""
        if self._service is None:
            from repro.service import ReproService

            self._service = ReproService(self)
        return self._service

    def _metrics(self) -> MetricsRegistry:
        """The registry for the *current* call: request-scoped handle
        first (worker threads), explicit engine handle, then ambient."""
        ctx = self.binder.ctx
        if ctx is not None and ctx.registry is not None:
            return ctx.registry
        if self.registry is not None:
            return self.registry
        return get_registry()

    @property
    def num_shards(self) -> int:
        return self.artifact.num_shards

    def _serving_store(self, mode: PipelineMode):
        """The store a pipeline for ``mode`` retrieves from: a view over
        the artifact's own shard stores (no copy — stores are never
        written to) that embeds queries through the engine's cache and
        is bound to its request plumbing, so scatter spans land on the
        active request's tracer and ``repro.shard.*`` counters in the
        request's registry scope.
        """
        if mode is PipelineMode.BASELINE:
            return None
        store = self.artifact.store.with_serving_context(
            embedding=self._query_embedding,
            binder=self.binder,
            registry_fn=self._metrics,
        )
        wrapper = self._replica_fault_wrapper()
        rep = self.config.replication
        if rep.replicas > 1 or rep.require_full_coverage or wrapper is not None:
            store = store.with_replication(
                rep, health=self.replica_health, store_wrapper=wrapper
            )
        return store

    def _replica_fault_wrapper(self):
        """The seeded shard-outage seam for chaos runs.

        When the engine's fault injector carries a ``shard_fault_rate``,
        each shard's *primary* replica is wrapped at site ``shard:N`` —
        modelling a schedule that kills one copy per shard, the regime
        the digest guarantee covers.  Backups stay healthy, so with
        ``replicas >= 2`` every fault is absorbed by failover; with a
        single copy the shard goes dark and coverage degrades.
        """
        injector = self.fault_injector
        if injector is None or injector.config.shard_fault_rate <= 0:
            return None

        def wrap(store, shard_index: int, replica_index: int):
            if replica_index > 0:
                return store
            return injector.wrap_store(store, site=f"shard:{shard_index}")

        return wrap

    def shard_summary(self) -> dict:
        """Shard topology for operators (CLI ``repro metrics``)."""
        rep = self.config.replication
        return {
            "num_shards": self.artifact.num_shards,
            "composite_digest": self.artifact.digest,
            "epoch": self.epoch,
            "embedding_scope": self.artifact.fingerprint.get("embedding_scope"),
            "replicas": rep.replicas,
            "hedging": rep.hedging,
            "replica_health": self.replica_health.snapshot(),
            "shards": self.artifact.shard_summaries(
                replicas=rep.replicas, health=self.replica_health
            ),
        }

    def pipeline(self, mode: str | PipelineMode | None = None) -> RAGPipeline:
        """The engine's pipeline for ``mode``, built once and shared."""
        mode = PipelineMode.coerce(mode) if mode is not None else self.default_mode
        with self._build_lock:
            existing = self._pipelines.get(mode)
            if existing is not None:
                return existing
            store = self._serving_store(mode)
            pipeline = pipeline_from_artifact(
                self.artifact,
                self.config,
                mode=mode,
                fault_injector=self.fault_injector,
                store=store,
                retriever_wrapper=lambda r: CachingRetriever(
                    r, self._retrieval_lru, self.binder, self._metrics
                ),
            )
            self._pipelines[mode] = pipeline
            return pipeline

    def clear_query_caches(self) -> None:
        """Drop every answer/retrieval/embedding cache entry (the blunt
        tool; an :meth:`swap_artifact` with a delta evicts per entry)."""
        self._answer_lru.clear()
        self._retrieval_lru.clear()
        self._embedding_lru.clear()

    # ------------------------------------------------------------ epochs
    def swap_artifact(self, artifact: IndexArtifact, delta=None) -> bool:
        """Swap the engine onto a new artifact epoch.

        The one sanctioned way serving state changes after construction.
        Under the build lock the engine rebinds its artifact, drops the
        per-mode pipelines (rebuilt lazily over the new store), and
        rebinds query embedding to the new artifact's model; the epoch
        counter advances and exactly the affected cache entries are
        invalidated — scoped by ``delta`` (a
        :class:`~repro.ingest.delta.CorpusDelta`), wholesale without
        one.

        A no-op swap (same digest) returns ``False`` and changes
        nothing: no epoch advance, no cache invalidation, no pipeline
        rebuilds.
        """
        from repro.ingest.invalidation import invalidate_engine_caches

        with self._build_lock:
            if artifact.digest == self.artifact.digest:
                return False
            previous = self.artifact
            self.artifact = artifact
            self._pipelines.clear()
            self._query_embedding = CachedEmbedding(
                artifact.embedding, self._embedding_lru, self.binder, self._metrics
            )
            self.epoch += 1
        self._last_invalidation = invalidate_engine_caches(
            self, delta, moved=artifact.embedding.moved_since(previous.embedding)
        )
        self._metrics().counter("repro.ingest.epoch_swaps").inc()
        return True

    def cache_sizes(self) -> dict:
        return {
            "answer": len(self._answer_lru),
            "retrieval": len(self._retrieval_lru),
            "embedding": len(self._embedding_lru),
        }

    # ------------------------------------------------------------ serving
    def answer(
        self,
        question: str,
        *,
        mode: str | PipelineMode | None = None,
        ctx: RequestContext | None = None,
    ) -> PipelineResult:
        """Answer one question through the service (the steps of a
        batch, for one synchronous request)."""
        return self.service.answer(question, mode=mode, ctx=ctx)

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
        """Answer a batch through the service's deterministic scheduler
        (see :meth:`repro.service.ReproService.answer_many`)."""
        return self.service.answer_many(
            questions,
            mode=mode,
            workers=workers,
            seed=seed,
            arrivals=arrivals,
            client_ids=client_ids,
        )

"""The query engine: one cache generation at a time, shared by every mode.

A :class:`QueryEngine` serves one :class:`CacheGeneration` at a time —
an immutable :class:`~repro.index.IndexArtifact`, its epoch, LRU caches
and per-mode pipelines.  Retrieval is scatter-gather over
the artifact's shards — one shard, one replica by default — and nothing
above the store knows the shard count: the merge order ``(-score,
doc_id)`` makes retrieval partition-invariant.  The engine answers
nothing itself: :class:`~repro.service.ReproService` (``open_service``)
is the one front door, whose scheduler admits, consults the answer
cache, dedupes, executes and commits every request against the
engine's live generation.

Determinism contract (see DESIGN.md §8 and §12): everything
digest-relevant is a pure function of (artifact digest, question list,
mode, seed, cache state at batch start).  Worker count and thread
scheduling may only move wall-clock numbers, which the digests exclude
by construction.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.config import ReproConfig
from repro.engine.caches import (
    EMBEDDING_CACHE_SIZE,
    CachedEmbedding,
    CachingRetriever,
    LRUCache,
)
from repro.errors import ConfigurationError
from repro.index import IndexArtifact
from repro.observability import MetricsRegistry, get_registry
from repro.pipeline.rag import RAGPipeline, pipeline_from_artifact
from repro.pipeline.types import PipelineMode
from repro.resilience.faults import FaultInjector
from repro.retrieval import VectorRetriever

if TYPE_CHECKING:
    from repro.ingest.delta import CorpusDelta


@dataclass(eq=False, slots=True)
class CacheGeneration:
    """One artifact epoch's serving state: the artifact, its epoch, three
    LRUs of entries computed against it and the per-mode pipelines over
    them.  No field is rebound: a swap makes a new generation (DESIGN §14.3)."""

    artifact: IndexArtifact
    epoch: int
    answers: LRUCache
    retrieval: LRUCache
    embeddings: LRUCache
    pipelines: dict[PipelineMode, RAGPipeline] = field(default_factory=dict)

    def cache_sizes(self) -> dict:
        lrus = {"answer": self.answers, "retrieval": self.retrieval, "embedding": self.embeddings}
        return {name: len(lru) for name, lru in lrus.items()}


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
    ) -> None:
        if not artifact.shards:
            raise ConfigurationError(
                "QueryEngine serves the composite artifact get_or_build_index "
                "resolves, not a bare shard"
            )
        self.config = config or ReproConfig()
        self.config.validate()
        self.fault_injector = fault_injector
        #: Explicit metrics sink; ``None`` means the ambient scope, read
        #: once per request at the front door (:meth:`_metrics`).
        self.registry = registry
        ec = self.config.engine
        #: The generation every new request reads; rebound only by
        #: :meth:`swap_artifact`, under the build lock.
        self.generation = CacheGeneration(
            artifact,
            0,
            LRUCache(ec.answer_cache_size),
            LRUCache(ec.retrieval_cache_size),
            LRUCache(EMBEDDING_CACHE_SIZE),
        )
        self._build_lock = threading.Lock()

    @property
    def artifact(self) -> IndexArtifact:
        """The artifact the live generation serves."""
        return self.generation.artifact

    @property
    def epoch(self) -> int:
        """0 at construction, +1 per :meth:`swap_artifact`."""
        return self.generation.epoch

    # ------------------------------------------------------------ plumbing
    def _metrics(self) -> MetricsRegistry:
        """The engine's sink outside a request (and the one a request
        without a caller's context gets): explicit handle, else ambient."""
        return self.registry if self.registry is not None else get_registry()

    @property
    def num_shards(self) -> int:
        return self.artifact.num_shards

    def _serving_store(self, artifact: IndexArtifact):
        """The store the pipelines retrieve from: a view over
        ``artifact``'s shard stores (no copy: stores are never written
        to) where each shard answers from its ``replicas`` copies."""
        return artifact.store.serving_view(
            self.config.replication, store_wrapper=self._replica_fault_wrapper()
        )

    def _replica_fault_wrapper(self):
        """The seeded shard-outage seam for chaos runs.

        When the engine's fault injector carries a ``shard_fault_rate``,
        each shard's *primary* replica is wrapped at site ``shard:N`` —
        modelling a schedule that kills one copy per shard, the regime
        the digest guarantee covers.  Backups stay healthy, so every
        fault is absorbed by failover where a shard has a backup; with
        a single copy the shard goes dark and coverage degrades.
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
        return {
            "num_shards": self.artifact.num_shards,
            "composite_digest": self.artifact.digest,
            "epoch": self.epoch,
            "embedding_scope": self.artifact.fingerprint.get("embedding_scope"),
            "replicas": self.config.replication.replicas,
            "shards": self.artifact.shard_summaries(),
        }

    def pipeline(
        self, mode: str | PipelineMode | None = None, gen: CacheGeneration | None = None
    ) -> RAGPipeline:
        """The pipeline for ``mode`` over ``gen`` (default: the live
        generation), built once per generation and shared.

        Its cache wrappers hold ``gen``'s LRUs and record into the
        request's transaction, which only the service commits: a direct
        ``.answer(q)`` reads the caches and publishes nothing.
        """
        mode = PipelineMode.coerce(mode) if mode is not None else self.default_mode
        gen = gen or self.generation
        existing = gen.pipelines.get(mode)
        if existing is not None:
            return existing
        with self._build_lock:
            # Another request may have built it while this one waited.
            if mode in gen.pipelines:
                return gen.pipelines[mode]
            retriever = None
            if mode is not PipelineMode.BASELINE:
                query_embedding = CachedEmbedding(gen.artifact.embedding, gen.embeddings)
                retriever = VectorRetriever(
                    self._serving_store(gen.artifact), embed_query=query_embedding.embed_query
                )
            pipeline = pipeline_from_artifact(
                gen.artifact,
                self.config,
                mode=mode,
                fault_injector=self.fault_injector,
                retriever=retriever,
                retriever_wrapper=lambda r: CachingRetriever(r, gen.retrieval),
            )
            gen.pipelines[mode] = pipeline
            return pipeline

    # ------------------------------------------------------------ epochs
    def swap_artifact(
        self, artifact: IndexArtifact, delta: "CorpusDelta"
    ) -> tuple[CacheGeneration, dict] | None:
        """Swap the engine onto a new artifact epoch.

        The one sanctioned way serving state changes after construction.
        Under the build lock the engine builds the next
        :class:`CacheGeneration` — ``artifact``, the next epoch, and the
        cache entries ``delta`` (the diff from the served chunks to
        ``artifact``'s) cannot affect — and publishes it with one
        reference assignment.  Returns that generation and the
        carry-forward's accounting.  A ``delta`` diffed from another
        parent than the live artifact (an ingest that raced this one)
        carries no retrieval entry forward.

        A no-op swap (same digest) returns ``None`` and changes nothing.
        """
        from repro.ingest.invalidation import carry_forward

        registry = self._metrics()
        with self._build_lock:
            if artifact.digest == self.generation.artifact.digest:
                return None
            published, summary = carry_forward(self.generation, artifact, delta, registry)
            self.generation = published
        registry.counter("repro.ingest.epoch_swaps").inc()
        return published, summary

    def cache_sizes(self) -> dict:
        """Entry counts of the live generation's three LRUs."""
        return self.generation.cache_sizes()

"""Scatter-gather vector search over deterministically partitioned shards.

The planner routes every document to a shard by a stable hash of its
``source`` metadata (:func:`shard_for_source`), so a given corpus always
partitions the same way across processes and runs.  At query time the
composite store embeds the query **once**, scores every shard by vector
(one ``matrix @ q`` per shard, from the first of its copies that
answers), and makes one exact top-k selection over the answering
shards' scores under the total order ``(-score, doc_id)``.

Partition invariance is the load-bearing property: the top-k must be the
same list for 1, 2, 4, or 8 shards.  It holds exactly because a row's
score is its own shard's product, whatever the shard count, and the
selection (:func:`~repro.vectorstore.store.top_k_hits`, the one a bare
store makes too) sees every live row, so no tie at the cut is decided by
row order or shard order.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.documents import Document
from repro.embeddings.base import EmbeddingModel
from repro.errors import PartialResultError, TransientError, VectorStoreError
from repro.observability.metrics import MetricsRegistry, get_registry
from repro.utils.rng import stable_hash
from repro.vectorstore.store import VectorStore, query_vector, top_k_hits

if TYPE_CHECKING:
    from repro.config import ReplicationConfig
    from repro.context import RequestContext

#: Hash namespace for the shard planner; changing it repartitions every
#: corpus, so it is part of the sharded-artifact digest contract.
SHARD_NAMESPACE = "shard-planner"


def shard_for_source(source: str, num_shards: int) -> int:
    """The shard a source path routes to: stable hash, mod shard count."""
    if num_shards <= 0:
        raise VectorStoreError(f"num_shards must be positive, got {num_shards}")
    return stable_hash(str(source), namespace=SHARD_NAMESPACE) % num_shards


def shard_for_document(doc: Document, num_shards: int) -> int:
    """Route a document by its ``source`` metadata (doc_id when absent).

    Chunks inherit their parent document's ``source``, so every chunk of
    one source page lands on the same shard as the page itself.
    """
    source = doc.metadata.get("source")
    key = str(source) if source else doc.doc_id
    return shard_for_source(key, num_shards)


class ShardedVectorStore:
    """N per-shard :class:`VectorStore`\\ s behind the VectorStore surface.

    This is the store every index artifact serves from; the default
    single-database deployment is the one-shard case.  Queries scatter
    across shards in a plain loop (a probe costs microseconds, less than
    handing it to a pool thread) and gather under one selection.  Each
    shard answers from an ordered tuple of copies (``copies``; one copy,
    the shard itself, unless :meth:`serving_view` says otherwise).  Like
    its shards the store is read-only, so a serving view shares the
    shard objects and the row-aligned document list instead of copying
    them.
    """

    def __init__(
        self,
        shards: list[VectorStore],
        embedding: EmbeddingModel,
        *,
        collection_name: str = "petsc-docs-sharded",
    ) -> None:
        if not shards:
            raise VectorStoreError("a sharded store needs at least one shard")
        for i, shard in enumerate(shards):
            if shard.embedding.dim != embedding.dim:
                raise VectorStoreError(
                    f"shard {i} dim {shard.embedding.dim} != embedding dim {embedding.dim}"
                )
        self.shards = list(shards)
        self.embedding = embedding
        self.collection_name = collection_name
        #: Per shard, the copies a probe walks in order (primary first).
        self.copies: list[tuple[VectorStore, ...]] = [(shard,) for shard in self.shards]
        #: Raise :class:`PartialResultError` instead of serving a partial merge.
        self.require_full_coverage = False
        self._docs = [doc for shard in self.shards for doc in shard._docs]
        # Reversed, so a duplicate id keeps its first row, as in a shard.
        self._by_id = {doc.doc_id: doc for doc in reversed(self._docs)}

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------ search
    def similarity_search_with_score(
        self,
        query: str,
        *,
        k: int = 4,
        where: dict | None = None,
    ) -> list[tuple[Document, float]]:
        """Embed the query once, then scatter it by vector."""
        if k <= 0:
            return []
        qvec = self.embedding.embed_query(query)
        return self.similarity_search_by_vector_with_score(qvec, k=k, where=where)

    def similarity_search_by_vector_with_score(
        self,
        qvec: np.ndarray,
        *,
        k: int = 4,
        where: dict | None = None,
        ctx: "RequestContext | None" = None,
    ) -> list[tuple[Document, float]]:
        """Score the vector on every shard, select one exact top-k.

        With the request's ``ctx`` the scatter is a span on its tracer
        and counts on its registry; without one (a probe outside any
        request) it counts on the ambient registry and opens no span.
        The query's dimension is checked here, once: a copy's failure is
        caught by the walk, so a wrong-sized query must fail before it.
        """
        if k <= 0:
            return []
        qvec = query_vector(qvec, self.embedding.dim)
        registry = ctx.registry if ctx is not None else get_registry()
        registry.counter("repro.shard.queries").inc()
        registry.counter("repro.shard.probes").inc(self.num_shards)
        if ctx is not None and ctx.tracer._stack:
            # One constant-named child span regardless of shard count:
            # shard details ride in attributes, which the span-structure
            # digest excludes, so the digest contract holds at any N.
            # Failover likewise reports through ``repro.replica.*``
            # counters only — never span events — so a rescued query
            # digests identically to a healthy one.
            with ctx.tracer.span("scatter", shards=self.num_shards, k=k) as span:
                out = self._gather(qvec, k, where, ctx, registry, span)
        else:
            out = self._gather(qvec, k, where, ctx, registry, None)
        registry.counter("repro.shard.merged").inc(len(out))
        return out

    def _gather(
        self,
        qvec: np.ndarray,
        k: int,
        where: dict | None,
        ctx,
        registry: MetricsRegistry,
        span,
    ) -> list[tuple[Document, float]]:
        """Select over the answering shards' rows; degrade (or raise) when
        shards went dark."""
        per_shard = [
            self._probe_shard(index, qvec, registry) for index in range(self.num_shards)
        ]
        failed = [index for index, scores in enumerate(per_shard) if scores is None]
        docs = self._docs
        if failed:
            docs = [
                doc
                for shard, scores in zip(self.shards, per_shard)
                if scores is not None
                for doc in shard._docs
            ]
            per_shard = [scores for scores in per_shard if scores is not None]
        if span is not None:
            # Rows scored: every row of every shard that answered.
            span.attributes["candidates"] = len(docs)
        coverage = (self.num_shards - len(failed)) / self.num_shards
        if failed:
            registry.counter("repro.shard.partial_queries").inc()
            registry.counter("repro.shard.unanswered").inc(len(failed))
            if span is not None:
                # The one deliberate digest change for partial results:
                # partial runs are compared rerun-vs-rerun, never against
                # the full-coverage baseline.
                span.attributes["coverage"] = round(coverage, 6)
                ctx.tracer.event(
                    "shard:partial",
                    coverage=round(coverage, 6),
                    failed_shards=",".join(str(index) for index in failed),
                )
            if self.require_full_coverage:
                raise PartialResultError(
                    f"{len(failed)}/{self.num_shards} shard(s) unreachable "
                    f"(no surviving replica): {failed}",
                    coverage=coverage,
                    failed_shards=tuple(failed),
                )
        if ctx is not None:
            ctx.shard_coverage = min(ctx.shard_coverage, coverage)
        scores = np.concatenate(per_shard) if per_shard else np.empty(0, np.float32)
        return top_k_hits(scores, docs, k, where)

    def _probe_shard(
        self, index: int, qvec: np.ndarray, registry: MetricsRegistry
    ) -> "np.ndarray | None":
        """One shard's score vector from the first of its copies that
        answers; ``None`` when none did.

        A failing probe counts ``repro.replica.probe_failures`` and a
        probe past the first copy ``repro.replica.failovers``, on the
        querying request's registry; a healthy probe counts nothing.
        """
        for position, replica in enumerate(self.copies[index]):
            if position:
                registry.counter("repro.replica.failovers").inc()
            try:
                return replica.scores(qvec)
            except (TransientError, VectorStoreError):
                registry.counter("repro.replica.probe_failures").inc()
        return None

    def similarity_search(
        self, query: str, *, k: int = 4, where: dict | None = None
    ) -> list[Document]:
        return [doc for doc, _ in self.similarity_search_with_score(query, k=k, where=where)]

    def __len__(self) -> int:
        return len(self._docs)

    def get(self, doc_id: str) -> Document:
        doc = self._by_id.get(doc_id)
        if doc is None:
            raise VectorStoreError(f"unknown document id {doc_id!r}")
        return doc

    def vectors(self, doc_ids: list[str]) -> np.ndarray:
        """The stored rows of ``doc_ids``, in order: a read, not an embedding."""
        rows = ((d, s.matrix, s._ids.get(d)) for s in self.shards for d in doc_ids)
        held = {d: matrix[row] for d, matrix, row in rows if row is not None}
        return np.stack([held[d] for d in doc_ids])

    # ------------------------------------------------------------ views
    def serving_view(
        self,
        config: "ReplicationConfig",
        *,
        store_wrapper: Callable[[VectorStore, int, int], VectorStore] | None = None,
    ) -> "ShardedVectorStore":
        """This store with ``config.replicas`` copies per shard.

        The view shares this store's shards and documents.  Every copy is
        a reference to the one immutable shard object, so copies cannot
        diverge; what tells them apart is the transport in front of them.
        ``store_wrapper(store, shard_index, replica_index)`` is that
        fault seam: the engine uses it to interpose
        :meth:`~repro.resilience.faults.FaultInjector.wrap_store` on
        chosen copies so shard outages join the seeded fault-schedule
        machinery instead of ad-hoc monkeypatching.
        """
        config.validate()
        view = copy.copy(self)
        view.copies = [
            tuple(
                shard if store_wrapper is None else store_wrapper(shard, index, position)
                for position in range(config.replicas)
            )
            for index, shard in enumerate(self.shards)
        ]
        view.require_full_coverage = config.require_full_coverage
        return view

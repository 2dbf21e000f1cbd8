"""Scoped carry-forward: keep exactly what a delta cannot affect.

The engine's three query-time caches — answer, retrieval, and
query-embedding LRUs — belong to one
:class:`~repro.engine.engine.CacheGeneration`, the artifact epoch that
computed them.  :meth:`~repro.service.ReproService.invalidate_query_caches`
throws away every warm entry; an epoch swap
(:meth:`~repro.engine.QueryEngine.swap_artifact`, this module's one
caller) instead builds the next generation from the typed
:class:`~repro.ingest.delta.CorpusDelta`, keeping an entry only if the
new artifact would compute it too.  The previous generation is never
modified: a request still in flight on it reads and commits there.

**Retrieval entries** (key ``("vector", query, k)`` — the first-pass
vector retriever is the only one the engine caches — value a tuple of
:class:`~repro.retrieval.base.RetrievedDocument`):

* An entry whose query the embedding model now maps to a different
  vector (see below) is stale — dropped.
* An entry containing a removed/rewritten chunk (byte-exact ``doc_id``)
  or a *re-embedded* one (same bytes, vector recomputed because a
  corpus-fitted model's IDF moved) is stale — dropped.
* For additions, an entry is kept iff no added or re-embedded chunk
  can enter its top-k: the entry is full (``len == k``) and
  ``max(embedded_vectors @ query_vector)`` is strictly below the entry's
  k-th score.  Brute-force cosine retrieval admits a new document only
  when it beats the boundary, so this test is exact (ties drop,
  conservatively, because the merge tie-break could prefer the new
  doc_id).  ``embedded_vectors`` are the new artifact's rows, read by
  ``doc_id``: per-row embedding makes a stored row equal a re-embed.

A delta whose ``parent_digest`` is not the previous generation's
artifact (two ingests diffed from one parent, swapped one after the
other) cannot vouch for any retrieval entry, so none is kept.

**Answer entries** (key ``(question_digest, mode)``): a generation holds
answers for its own artifact only, so the next one starts empty.

**Query-embedding entries** (key: the query text) depend on the
embedding model *and its fit*: one is dropped iff the new model's
:meth:`~repro.embeddings.base.EmbeddingModel.moved_since` the previous
one flags its query — never under a hashing model, for the
corpus-fitted one iff the query holds a term whose IDF value moved or
that entered or left the vocabulary (at an unchanged chunk count, a
term whose document frequency moved), and always when the swap changed
models.

Survivors keep their recency order (:meth:`~repro.engine.LRUCache.keep_where`).
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from repro.engine.caches import LRUCache
from repro.engine.engine import CacheGeneration
from repro.ingest.delta import CorpusDelta

if TYPE_CHECKING:
    from repro.index import IndexArtifact
    from repro.observability import MetricsRegistry


def carry_forward(
    previous: CacheGeneration,
    artifact: "IndexArtifact",
    delta: CorpusDelta,
    registry: "MetricsRegistry",
) -> tuple[CacheGeneration, dict]:
    """The generation after ``previous``, serving ``artifact``, and its
    accounting (also counted on ``repro.ingest.invalidated_*`` /
    ``repro.ingest.retained_retrieval``).  ``previous`` is untouched."""
    embedding = artifact.embedding
    # A delta diffed from another parent (two ingests raced from one
    # generation) says nothing about the retrievals computed here; the
    # query-embedding verdict compares the two models and stays exact.
    same_parent = delta.parent_digest == previous.artifact.digest
    # One verdict per query text, shared by the embedding and retrieval
    # passes; the memo dies with this call.
    query_moved = functools.cache(embedding.moved_since(previous.artifact.embedding))
    embeddings = previous.embeddings.keep_where(lambda text, _vector: not query_moved(text))
    stale_ids = delta.stale_doc_ids()
    embedded = delta.embedded_chunks()
    embedded_vectors = None

    def retrieval_current(key, hits) -> bool:
        nonlocal embedded_vectors
        _name, query, k = key
        if not same_parent or query_moved(query):
            return False
        if any(hit.doc_id in stale_ids for hit in hits):
            return False
        if not embedded:
            return True
        if len(hits) < k:
            return False  # a free slot: any addition could fill it
        if embedded_vectors is None:
            # Only for an entry the cheaper tests let through.  The build
            # embedded these chunks already: read their rows, never embed
            # them twice (a row is computed and normalized on its own).
            embedded_vectors = artifact.store.vectors([c.doc_id for c in embedded])
        # The query did not move, so a cached embedding of it is current.
        qvec = previous.embeddings.peek(query)
        if qvec is None:
            qvec = embedding.embed_query(query)
        boundary = min(hit.score for hit in hits)
        return bool(float((embedded_vectors @ qvec).max()) < boundary)

    retrieval = previous.retrieval.keep_where(retrieval_current)
    summary = {
        "scoped": True,
        "invalidated_retrieval": len(previous.retrieval) - len(retrieval),
        "retained_retrieval": len(retrieval),
        "invalidated_answers": len(previous.answers),
        "invalidated_embeddings": len(previous.embeddings) - len(embeddings),
    }
    for name in ("invalidated_retrieval", "retained_retrieval", "invalidated_answers"):
        registry.counter(f"repro.ingest.{name}").inc(summary[name])
    answers = LRUCache(previous.answers.capacity)
    return CacheGeneration(artifact, previous.epoch + 1, answers, retrieval, embeddings), summary

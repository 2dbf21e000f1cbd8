"""Scoped cache invalidation: drop exactly what a delta can affect.

The engine keeps three query-time caches — answer, retrieval, and
query-embedding LRUs.  :meth:`~repro.engine.QueryEngine.clear_query_caches`
throws away every warm entry; an epoch swap
(:meth:`~repro.engine.QueryEngine.swap_artifact`, this module's one
caller) instead reasons per entry from the typed
:class:`~repro.ingest.delta.CorpusDelta`:

**Retrieval entries** (key ``("vector", query, k)`` — the first-pass
vector retriever is the only one the engine caches — value a tuple of
:class:`~repro.retrieval.base.RetrievedDocument`):

* An entry whose query the embedding model now maps to a different
  vector (see below) is stale — evict.
* An entry containing a removed/rewritten chunk (byte-exact ``doc_id``)
  or a *re-embedded* one (same bytes, vector recomputed because a
  corpus-fitted model's IDF moved) is stale — evict.
* For additions, an entry survives iff no added or re-embedded chunk
  can enter its top-k: the entry is full (``len == k``) and
  ``max(embedded_vectors @ query_vector)`` is strictly below the entry's
  k-th score.  Brute-force cosine retrieval admits a new document only
  when it beats the boundary, so this test is exact (ties evict,
  conservatively, because the merge tie-break could prefer the new
  doc_id).

**Answer entries** (key ``(question_digest, mode, artifact_digest)``):
after the swap every entry keyed to another digest is unreachable (the
answer-cache key reads the live artifact digest) — they are evicted to
free capacity.

**Query-embedding entries** (key: the query text) depend on the
embedding model *and its fit*.  The caller passes the live model's
:meth:`~repro.embeddings.base.EmbeddingModel.moved_since` the model the
caches were filled under; an entry is dropped iff that predicate flags
its query — never under a hashing model, for the corpus-fitted one iff
the query holds a term whose IDF moved or that entered or left the
vocabulary (every query, once the chunk count changed), and always
when the swap changed models.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Callable

from repro.ingest.delta import CorpusDelta

if TYPE_CHECKING:
    from repro.engine.engine import QueryEngine


def invalidate_engine_caches(
    engine: "QueryEngine",
    delta: CorpusDelta,
    *,
    moved: Callable[[str], bool] | None = None,
) -> dict:
    """Invalidate the engine's query caches after an epoch swap.

    Eviction is scoped by ``delta`` as described in the module
    docstring.  ``moved`` flags the texts the live embedding model
    embeds differently than the one the caches were filled under
    (``None``: same model, same fit).

    Returns an accounting dict; the same numbers land on
    ``repro.ingest.invalidated_*`` / ``repro.ingest.retained_retrieval``
    counters.
    """
    registry = engine._metrics()
    # One verdict per query text, shared by the embedding and retrieval
    # passes; the memo dies with this call.
    query_moved = functools.cache(moved) if moved is not None else (lambda text: False)
    invalidated_embeddings = engine._embedding_lru.evict_where(
        lambda text, _vector: query_moved(text)
    )
    stale_ids = delta.stale_doc_ids()
    embedded = delta.embedded_chunks()
    embedding = engine.artifact.embedding
    embedded_vectors = None

    def retrieval_stale(key, hits) -> bool:
        nonlocal embedded_vectors
        _name, query, k = key
        if query_moved(query):
            return True
        if any(hit.doc_id in stale_ids for hit in hits):
            return True
        if not embedded:
            return False
        if len(hits) < k:
            return True  # a free slot: any addition could fill it
        if embedded_vectors is None:
            # Only for an entry the cheaper tests let through: once the
            # chunk count changed none does, and nothing is embedded twice.
            embedded_vectors = embedding.embed_documents([c.text for c in embedded])
        # The query did not move, so a cached embedding of it is current.
        qvec = engine._embedding_lru.peek(query)
        if qvec is None:
            qvec = embedding.embed_query(query)
        boundary = min(hit.score for hit in hits)
        return bool(float((embedded_vectors @ qvec).max()) >= boundary)

    invalidated_retrieval = engine._retrieval_lru.evict_where(retrieval_stale)
    retained_retrieval = len(engine._retrieval_lru)

    # Entries keyed to another digest are unreachable behind the live
    # key function — reclaim them.
    live = engine.artifact.digest
    invalidated_answers = engine._answer_lru.evict_where(
        lambda key, _value: not (isinstance(key, tuple) and key and key[-1] == live)
    )

    registry.counter("repro.ingest.invalidated_retrieval").inc(invalidated_retrieval)
    registry.counter("repro.ingest.retained_retrieval").inc(retained_retrieval)
    registry.counter("repro.ingest.invalidated_answers").inc(invalidated_answers)
    return {
        "scoped": True,
        "invalidated_retrieval": invalidated_retrieval,
        "retained_retrieval": retained_retrieval,
        "invalidated_answers": invalidated_answers,
        "invalidated_embeddings": invalidated_embeddings,
    }

"""Index construction, built once per (corpus, config) digest.

The build pipeline — chunk the corpus, fit/instantiate the embedding
model, embed every chunk into a vector store — runs through
:func:`get_or_build_index`, the single resolver.  It plans the shards
(:func:`~repro.index.sharding.plan_shards`; one by default), returns the
cached composite on an in-process hit, and otherwise resolves **each
shard** through the same ladder before assembling the composite:

1. **In-process**: a module-level table keyed by artifact digest.  Every
   pipeline mode, bot, evaluation run, and benchmark in one process
   shares the same artifact; the ``repro.index.builds`` counter stays at
   one per shard no matter how many consumers warm-start from it.
2. **On disk** (optional, ``EngineConfig.index_cache_dir``): the shard
   store's npz/jsonl persistence plus an ``artifact.json`` manifest,
   keyed by shard digest.  A disk hit skips the embedding pass — the
   single most expensive step — and reproduces a byte-identical shard
   (the digest is a pure function of the inputs, and the saved chunk
   texts refit the corpus-trained embedding deterministically).  A
   corrupt or mismatched entry raises :class:`IndexBuildError`
   internally and falls back to a fresh build that overwrites it;
   loading never silently serves the wrong index.
3. **Delta-from-parent**: the in-process cache tracks a *lineage* — for
   every config fingerprint, the most recently cached digest.  When the
   corpus changes under a fixed fingerprint, a dirty shard is diffed
   against its lineage parent and, for corpus-free embedding models,
   assembled by reusing the parent's vectors for unchanged chunks and
   embedding only the changed ones (:func:`build_index_from_parent`).
   The result is value-identical to a from-scratch build — same digest,
   same vectors, same answers.
4. **Full build** of the shard (:func:`build_index`).

One embedding model is fitted over the chunks of *all* shards and shared
by every shard build, which keeps scores comparable across shards.
Caching a lineage successor evicts the superseded digest, so a stale
in-memory artifact can never outlive the corpus state it was built from.
"""

from __future__ import annotations

import hashlib
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable

import numpy as np

from repro.config import ReproConfig
from repro.corpus.builder import (
    CorpusBundle,
    chunk_corpus,
    chunk_corpus_delta,
    corpus_source_digests,
)
from repro.documents import Document
from repro.durability.atomic import atomic_write_json
from repro.embeddings import create_embedding_model
from repro.embeddings.registry import is_corpus_fitted
from repro.errors import IndexBuildError, ReproError
from repro.index.artifact import (
    IndexArtifact,
    artifact_digest,
    config_fingerprint,
    corpus_digest,
)
from repro.index.sharding import ShardPlan, ShardSpec, plan_shards
from repro.ingest.delta import CorpusDelta, diff_chunks
from repro.observability import get_registry, use_registry
from repro.vectorstore.sharded import ShardedVectorStore
from repro.vectorstore.store import VectorStore

_STORE_DIR = "store"
_MANIFEST = "artifact.json"

_cache_lock = threading.Lock()
_artifacts: dict[str, IndexArtifact] = {}
#: Lineage: config-fingerprint key → digest of the latest artifact cached
#: under it.  Resolves delta parents and drives superseded-digest eviction.
_lineage: dict[str, str] = {}


def _fingerprint_key(fingerprint: dict) -> str:
    # A corpus-fitted embedder puts the corpus digest into the
    # fingerprint as ``embedding_scope``; lineage must follow the config
    # across corpus edits, so the scope stays out of the key (the
    # artifact digest keeps it).
    lineage = {k: v for k, v in fingerprint.items() if k != "embedding_scope"}
    return json.dumps(lineage, sort_keys=True, separators=(",", ":"))


def compute_digest(bundle: CorpusBundle, config: ReproConfig | None = None) -> str:
    """The (composite) digest :func:`get_or_build_index` would resolve."""
    return plan_shards(bundle, config or ReproConfig()).composite


def clear_index_cache() -> None:
    """Drop every in-process artifact (tests and long-lived daemons)."""
    with _cache_lock:
        _artifacts.clear()
        _lineage.clear()


def cached_artifact(digest: str) -> IndexArtifact | None:
    """The in-process artifact for ``digest``, if one is cached."""
    with _cache_lock:
        return _artifacts.get(digest)


def lineage_parent(fingerprint: dict) -> IndexArtifact | None:
    """The latest in-process artifact cached under this fingerprint.

    This is the delta-build parent candidate: same index-relevant
    config, (possibly) different corpus.
    """
    with _cache_lock:
        digest = _lineage.get(_fingerprint_key(fingerprint))
        return _artifacts.get(digest) if digest is not None else None


def cache_artifact(artifact: IndexArtifact) -> IndexArtifact:
    """Publish an artifact to the in-process cache; first writer wins.

    Publishing also advances the fingerprint's lineage and **evicts the
    superseded digest**: once a successor for the same config
    fingerprint is cached, the predecessor can only serve stale corpus
    state (the historical bug was a disk-cache rebuild over a corrupt
    entry leaving the original in-memory artifact live).  Consumers
    holding a reference keep it — eviction only stops new resolutions.
    """
    with _cache_lock:
        published = _artifacts.setdefault(artifact.digest, artifact)
        key = _fingerprint_key(published.fingerprint)
        previous = _lineage.get(key)
        if previous is not None and previous != published.digest:
            if _artifacts.pop(previous, None) is not None:
                get_registry().counter("repro.index.lineage_evictions").inc()
        _lineage[key] = published.digest
        return published


def _chunk(
    bundle: CorpusBundle, config: ReproConfig, parent: IndexArtifact | None = None
) -> list[Document]:
    """Chunk ``bundle``; with a lineage ``parent``, re-split only the
    sources whose text changed since it was built (byte-identical to a
    full pass, see :func:`~repro.corpus.builder.chunk_corpus_delta`)."""
    rc = config.retrieval
    params = dict(
        include_mail=rc.include_mail_archives,
        chunk_size=rc.chunk_size,
        chunk_overlap=rc.chunk_overlap,
    )
    if parent is not None and parent.source_digests:
        return chunk_corpus_delta(
            bundle, parent.chunks, parent.source_digests, **params
        )[0]
    return chunk_corpus(bundle, **params)


def build_index(
    bundle: CorpusBundle,
    config: ReproConfig | None = None,
    *,
    chunks: list[Document] | None = None,
    embedding=None,
    fingerprint: dict | None = None,
) -> IndexArtifact:
    """Build one shard from scratch: chunk → embed → store.

    This is the uncached leaf builder; callers almost always want
    :func:`get_or_build_index`, which calls it per dirty shard with the
    shard's precomputed ``chunks``, the shared (globally fitted)
    ``embedding``, and the shard-scoped ``fingerprint`` that keys the
    shard's cache entry.
    """
    config = config or ReproConfig()
    rc = config.retrieval
    get_registry().counter("repro.index.builds").inc()
    if chunks is None:
        chunks = _chunk(bundle, config)
    if embedding is None:
        embedding = create_embedding_model(
            rc.embedding_model, corpus_texts=[c.text for c in chunks]
        )
    store = VectorStore.from_documents(chunks, embedding)
    if fingerprint is None:
        fingerprint = config_fingerprint(config)
    return IndexArtifact(
        digest=artifact_digest(corpus_digest(bundle), fingerprint),
        corpus_digest=corpus_digest(bundle),
        fingerprint=fingerprint,
        chunks=chunks,
        embedding=embedding,
        store=store,
        manual_pages=dict(bundle.manual_page_names),
        registry=bundle.registry,
        source_digests=corpus_source_digests(
            bundle, include_mail=rc.include_mail_archives
        ),
    )


def build_index_from_parent(
    bundle: CorpusBundle,
    config: ReproConfig | None,
    parent: IndexArtifact,
    *,
    chunks: list[Document] | None = None,
    fingerprint: dict | None = None,
) -> "tuple[IndexArtifact, CorpusDelta] | None":
    """Build the successor artifact by delta against ``parent``.

    Re-chunks only the sources whose text changed, diffs the chunk lists
    by byte-exact identity, reuses the parent store's vectors for every
    unchanged chunk, and embeds only the new/changed ones.  Returns
    ``None`` when a delta cannot preserve value-identity with a
    from-scratch build — corpus-fitted embedding models (every vector
    depends on the whole corpus) — or would not pay: more than
    ``config.ingest.max_delta_fraction`` of the chunks changed, or the
    parent has no usable chunk bookkeeping.

    On success the result is *value-identical* to :func:`build_index`
    over the same inputs: same digest, byte-identical vectors (hashing
    embeddings are computed and normalized per row, so a subset batch
    equals the matching rows of the full batch), same chunk order.  The
    ``repro.index.builds`` counter is **not** incremented — counters
    under ``repro.ingest.*`` account the delta work instead.
    """
    config = config or ReproConfig()
    rc = config.retrieval
    if not config.ingest.delta_enabled or is_corpus_fitted(rc.embedding_model):
        return None
    if parent.embedding.name != rc.embedding_model or not parent.chunks:
        return None
    registry = get_registry()
    if chunks is None:
        chunks = _chunk(bundle, config, parent)
    if fingerprint is None:
        fingerprint = config_fingerprint(config)
    digest = artifact_digest(corpus_digest(bundle), fingerprint)
    delta = diff_chunks(
        parent.chunks, chunks, parent_digest=parent.digest, target_digest=digest
    )
    if delta.total and delta.embed_count / delta.total > config.ingest.max_delta_fraction:
        registry.counter("repro.ingest.delta_fallbacks").inc()
        return None

    embedding = parent.embedding
    # Assemble the successor's matrix row-aligned with the deduped chunk
    # order from_documents would use: parent rows for unchanged chunks,
    # fresh embeddings for the rest (one batch).
    to_embed: list[Document] = []
    for chunk in chunks:
        if chunk.doc_id not in parent.store._ids:
            to_embed.append(chunk)
    fresh_vectors = (
        embedding.embed_documents([c.text for c in to_embed])
        if to_embed
        else np.zeros((0, embedding.dim))
    )
    fresh_rows = {c.doc_id: i for i, c in enumerate(to_embed)}
    parent_matrix = parent.store.index.matrix
    vectors = np.empty((len(chunks), embedding.dim), dtype=parent_matrix.dtype)
    reused = 0
    for row, chunk in enumerate(chunks):
        parent_row = parent.store._ids.get(chunk.doc_id)
        if parent_row is not None:
            vectors[row] = parent_matrix[parent_row]
            reused += 1
        else:
            vectors[row] = fresh_vectors[fresh_rows[chunk.doc_id]]
    store = VectorStore.from_precomputed(chunks, vectors, embedding)

    registry.counter("repro.ingest.delta_builds").inc()
    registry.counter("repro.ingest.chunks_embedded").inc(len(to_embed))
    registry.counter("repro.ingest.chunks_reused").inc(reused)
    artifact = IndexArtifact(
        digest=digest,
        corpus_digest=corpus_digest(bundle),
        fingerprint=fingerprint,
        chunks=chunks,
        embedding=embedding,
        store=store,
        manual_pages=dict(bundle.manual_page_names),
        registry=bundle.registry,
        parent_digest=parent.digest,
        delta_digest=delta.digest,
        source_digests=corpus_source_digests(
            bundle, include_mail=rc.include_mail_archives
        ),
    )
    return artifact, delta


# ------------------------------------------------------------------ disk cache
#: Store payload files covered by the manifest's checksums.
_PAYLOAD_FILES = ("vectors.npz", "documents.jsonl", "manifest.json")


def _payload_checksums(store_dir: Path) -> dict[str, str]:
    return {
        name: hashlib.sha256((store_dir / name).read_bytes()).hexdigest()
        for name in _PAYLOAD_FILES
    }


def save_artifact(artifact: IndexArtifact, cache_dir: str | Path) -> Path:
    """Persist the artifact under ``cache_dir/<digest16>/``.

    Payload files and the top-level manifest land atomically, and the
    manifest — written last — carries SHA-256 checksums of every payload
    file.  A crash between payload and manifest leaves no manifest (a
    clean miss); a corrupted payload fails checksum verification on
    load.  Either way the cache falls back to a rebuild, never serves
    torn bytes.
    """
    root = Path(cache_dir) / artifact.digest[:16]
    root.mkdir(parents=True, exist_ok=True)
    store_dir = root / _STORE_DIR
    artifact.store.save(store_dir)
    summary = dict(artifact.summary())
    summary["payload_checksums"] = _payload_checksums(store_dir)
    atomic_write_json(root / _MANIFEST, summary)
    get_registry().counter("repro.index.disk_writes").inc()
    return root


def read_cached_payload(
    cache_dir: str | Path, digest: str, config: ReproConfig
) -> tuple[Path, dict, list[Document]]:
    """Verify and read the cache entry for ``digest``.

    Returns ``(store_dir, manifest, chunks)`` with payload checksums
    verified (when configured) and chunk counts cross-checked; raises
    :class:`IndexBuildError` on a miss or any corruption.  Restoring the
    vector store itself is the caller's job: it needs the embedding
    model fitted over the chunks of every shard, which only the resolver
    has.
    """
    root = Path(cache_dir) / digest[:16]
    manifest_path = root / _MANIFEST
    if not manifest_path.is_file():
        raise IndexBuildError(f"no cached artifact under {root}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IndexBuildError(f"unreadable artifact manifest {manifest_path}: {exc}") from exc
    if manifest.get("digest") != digest:
        raise IndexBuildError(
            f"cached artifact digest {manifest.get('digest')!r} != expected {digest!r}"
        )
    store_dir = root / _STORE_DIR
    checksums = manifest.get("payload_checksums")
    if checksums and config.durability.verify_index_checksums:
        # Manifests written before checksums existed verify as trusted.
        for name, expected_sum in sorted(checksums.items()):
            try:
                actual = hashlib.sha256((store_dir / name).read_bytes()).hexdigest()
            except OSError as exc:
                raise IndexBuildError(
                    f"cached payload {name} unreadable in {store_dir}: {exc}"
                ) from exc
            if actual != expected_sum:
                get_registry().counter("repro.index.checksum_failures").inc()
                raise IndexBuildError(
                    f"cached payload {name} fails checksum in {store_dir} "
                    f"(expected {expected_sum[:12]}…, got {actual[:12]}…)"
                )
    try:
        chunk_lines = (store_dir / "documents.jsonl").read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise IndexBuildError(f"unreadable cached store in {store_dir}: {exc}") from exc
    chunks = [
        Document(text=obj["text"], metadata=obj["metadata"])
        for obj in map(json.loads, chunk_lines)
    ]
    if len(chunks) != int(manifest.get("chunk_count", -1)):
        raise IndexBuildError(
            f"cached store holds {len(chunks)} chunks, manifest says "
            f"{manifest.get('chunk_count')}"
        )
    return store_dir, manifest, chunks


# ------------------------------------------------------------------ entry point
def _map_shards(fn: Callable, items: list, workers: int) -> list:
    """``fn`` over per-shard items, in shard order.

    With at most one shard or one worker there is nothing to parallelise,
    so the work stays in the calling thread: a pool thread would allocate
    the build from its own malloc arena, which holds on to one artifact
    generation of memory after the build is freed.
    """
    if len(items) <= 1 or workers <= 1:
        return [fn(item) for item in items]
    # use_registry scopes are thread-local: pool workers re-enter the
    # caller's scope or their counters would leak into the process default.
    registry = get_registry()

    def scoped(item):
        with use_registry(registry):
            return fn(item)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(scoped, items))


def _build_composite(
    bundle: CorpusBundle, config: ReproConfig, plan: ShardPlan, cache_dir
) -> IndexArtifact:
    """Resolve every shard of ``plan`` and assemble the composite.

    Three phases: resolve each shard's chunks (in-process artifact, disk
    entry, or a chunking pass for dirty shards), fit the embedding once
    over all of them, then materialize the shard stores — clean shards
    load vectors straight from npz, dirty shards delta-build from their
    lineage parent or run the embed pass through :func:`build_index`
    (``repro.index.builds`` +1 per dirty shard, not +N).
    """
    registry = get_registry()
    rc = config.retrieval
    workers = config.sharding.build_workers

    def chunk(spec: ShardSpec) -> list[Document]:
        return _chunk(spec.bundle, config, lineage_parent(spec.fingerprint))

    def resolve(spec: ShardSpec):
        mem = cached_artifact(spec.digest)
        if mem is not None:
            registry.counter("repro.shard.memory_hits").inc()
            return mem, mem.chunks, None
        if cache_dir is not None:
            try:
                store_dir, _manifest, chunks = read_cached_payload(
                    cache_dir, spec.digest, config
                )
                return None, chunks, store_dir
            except IndexBuildError:
                pass
        return None, None, None

    # Cache lookups and disk loads are cheap and stay in the calling
    # thread; only the shards that need chunking and a build share the
    # pool, so one dirty shard beside clean ones never waits on pool
    # threads for the interpreter lock.
    resolved = [resolve(spec) for spec in plan.shards]
    dirty = [i for i, (_mem, chunks, _dir) in enumerate(resolved) if chunks is None]
    dirty_chunks = _map_shards(chunk, [plan.shards[i] for i in dirty], workers)
    for i, chunks in zip(dirty, dirty_chunks):
        resolved[i] = (None, chunks, None)
    embedding = create_embedding_model(
        rc.embedding_model,
        corpus_texts=[c.text for _mem, chunks, _dir in resolved for c in chunks],
    )

    def materialize(item) -> IndexArtifact:
        spec, (mem, chunks, store_dir) = item
        if mem is not None:
            return mem
        if store_dir is not None:
            try:
                store = VectorStore.load(store_dir, embedding)
            except ReproError:
                # Corrupt store payload: rebuild from the corpus.
                chunks = chunk(spec)
            else:
                registry.counter("repro.index.disk_hits").inc()
                registry.counter("repro.shard.disk_hits").inc()
                return cache_artifact(
                    IndexArtifact(
                        digest=spec.digest,
                        corpus_digest=spec.corpus_digest,
                        fingerprint=spec.fingerprint,
                        chunks=chunks,
                        embedding=embedding,
                        store=store,
                        manual_pages=dict(spec.bundle.manual_page_names),
                        registry=bundle.registry,
                        source_digests=corpus_source_digests(
                            spec.bundle, include_mail=rc.include_mail_archives
                        ),
                    )
                )
        shard = None
        parent = lineage_parent(spec.fingerprint)
        if parent is not None and parent.digest != spec.digest:
            built = build_index_from_parent(
                spec.bundle, config, parent, chunks=chunks, fingerprint=spec.fingerprint
            )
            if built is not None:
                shard = built[0]
                registry.counter("repro.shard.delta_builds").inc()
        if shard is None:
            shard = build_index(
                spec.bundle,
                config,
                chunks=chunks,
                embedding=embedding,
                fingerprint=spec.fingerprint,
            )
            registry.counter("repro.shard.builds").inc()
        if cache_dir is not None:
            save_artifact(shard, cache_dir)
        return cache_artifact(shard)

    items = list(zip(plan.shards, resolved))
    built = dict(zip(dirty, _map_shards(materialize, [items[i] for i in dirty], workers)))
    shards = [built[i] if i in built else materialize(items[i]) for i in range(len(items))]
    return IndexArtifact(
        digest=plan.composite,
        corpus_digest=corpus_digest(bundle),
        fingerprint={
            **config_fingerprint(config),
            "num_shards": plan.num_shards,
            "embedding_scope": plan.embedding_scope,
        },
        chunks=[c for s in shards for c in s.chunks],
        embedding=embedding,
        store=ShardedVectorStore(
            [s.store for s in shards],
            embedding,
            scatter_workers=config.sharding.scatter_workers,
        ),
        manual_pages=dict(bundle.manual_page_names),
        registry=bundle.registry,
        source_digests=corpus_source_digests(
            bundle, include_mail=rc.include_mail_archives
        ),
        shards=shards,
    )


def get_or_build_index(
    bundle: CorpusBundle,
    config: ReproConfig | None = None,
    *,
    cache_dir: str | Path | None = None,
) -> IndexArtifact:
    """The shared artifact for (bundle, config): a composite in-process
    hit, else per shard memory → disk → delta-from-parent → full build.

    ``cache_dir`` defaults to ``config.engine.index_cache_dir``; ``None``
    keeps artifacts in memory only.  A freshly built shard (delta or
    full) is written back to the disk cache when one is configured, so a
    corpus edit rebuilds only the shards whose documents changed.
    """
    config = config or ReproConfig()
    if cache_dir is None:
        cache_dir = config.engine.index_cache_dir
    plan = plan_shards(bundle, config)
    cached = cached_artifact(plan.composite)
    if cached is not None:
        get_registry().counter("repro.index.memory_hits").inc()
        return cached
    # Another thread may have raced the build; first writer wins so
    # every consumer shares one object.
    return cache_artifact(_build_composite(bundle, config, plan, cache_dir))

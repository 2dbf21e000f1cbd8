"""Index construction, built once per (corpus, config) digest.

The build pipeline — chunk the corpus, fit/instantiate the embedding
model, embed every chunk into a vector store — runs through
:meth:`IndexCatalog.resolve`, the single resolver, on the process
catalog :data:`CATALOG` (:func:`get_or_build_index` is its bundle-in
entry point).  It plans the shards
(:func:`~repro.index.sharding.plan_shards`; one by default), returns the
live composite on an in-process hit, and otherwise resolves **each
shard** through the same ladder before assembling the composite:

1. **In-process**: the process catalog, one live artifact per index
   config.  Every pipeline mode, bot, evaluation run, and benchmark in
   one process shares the same artifact; the ``repro.index.builds``
   counter stays at one per shard no matter how many consumers
   warm-start from it.
2. **On disk** (optional, ``EngineConfig.index_cache_dir``): the shard
   store's npz/jsonl persistence plus an ``artifact.json`` manifest,
   keyed by shard digest.  A disk hit skips the embedding pass — the
   single most expensive step — and reproduces a byte-identical shard
   (the digest is a pure function of the inputs, and the saved chunk
   texts refit the corpus-trained embedding deterministically).  A
   corrupt or mismatched entry raises :class:`IndexBuildError`
   internally and falls back to a build that overwrites it; loading
   never silently serves the wrong index.
3. **Build** (:func:`build_shard`): the config's live artifact is the
   shard's *lineage parent*.  A dirty shard re-splits only the sources
   that changed since that parent, copies the parent's vector for every
   chunk the parent already holds and the embedding model still maps to
   the same vector
   (:meth:`~repro.embeddings.base.EmbeddingModel.moved_since`: always,
   for a hashing model; for the corpus-fitted one, when no term of the
   chunk changed IDF since the parent's fit) and embeds the rest in one
   batch.  A from-scratch build is the same code with nothing to
   reuse — no parent, or an edit that changed the chunk count and with
   it nearly every IDF — so both are value-identical by construction: same
   digest, same vectors, same answers.

Each resolution reports the *lane* it took — ``memory``, ``disk``,
``delta`` (some rows reused) or ``full`` (none) — and a composite
reports the dearest lane among its shards.

One embedding model is fitted over the chunks of *all* shards and shared
by every shard build, which keeps scores comparable across shards; its
fit is derived from the lineage parents' model, which carries over what
an edit did not change (term counts, document frequencies, IDF, rows).
Publishing a lineage successor overwrites its config's live entry, so
the superseded digest is evicted by the same write and a stale
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
from repro.corpus.builder import CorpusBundle, chunk_corpus, corpus_source_digests
from repro.documents import Document
from repro.durability.atomic import atomic_write_json
from repro.embeddings import create_embedding_model
from repro.errors import IndexBuildError, VectorStoreError
from repro.index.artifact import IndexArtifact, config_fingerprint
from repro.index.sharding import ShardPlan, ShardSpec, plan_shards
from repro.observability import get_registry, use_registry
from repro.vectorstore.sharded import ShardedVectorStore
from repro.vectorstore.store import VectorStore

_STORE_DIR = "store"
_MANIFEST = "artifact.json"


def _fingerprint_key(fingerprint: dict) -> str:
    # A corpus-fitted embedder puts the corpus digest into the
    # fingerprint as ``embedding_scope``; lineage must follow the config
    # across corpus edits, so the scope stays out of the key (the
    # artifact digest keeps it).
    lineage = {k: v for k, v in fingerprint.items() if k != "embedding_scope"}
    return json.dumps(lineage, sort_keys=True, separators=(",", ":"))


#: How a resolution obtained its artifact, cheapest first.
LANES = ("memory", "disk", "delta", "full")


def _chunk(
    spec: ShardSpec, config: ReproConfig, parent: IndexArtifact | None
) -> tuple[list[Document], dict[str, str]]:
    """Chunk one shard and hash its sources; unchanged ones keep ``parent``'s chunks."""
    rc = config.retrieval
    digests: dict[str, str] = {}
    chunks = chunk_corpus(
        spec.bundle,
        include_mail=rc.include_mail_archives,
        chunk_size=rc.chunk_size,
        chunk_overlap=rc.chunk_overlap,
        parent_chunks=parent.chunks if parent is not None else (),
        parent_source_digests=parent.source_digests if parent is not None else None,
        source_digests=digests,
    )
    return chunks, digests


def _assemble_shard(
    spec: ShardSpec,
    chunks: list[Document],
    vectors: np.ndarray,
    embedding,
    source_digests: dict[str, str],
    parent_digest: str | None = None,
) -> IndexArtifact:
    """The shard artifact over ``chunks`` and their row-aligned ``vectors``
    — freshly embedded, copied from a parent, or read back from disk."""
    return IndexArtifact(
        digest=spec.digest,
        corpus_digest=spec.corpus_digest,
        fingerprint=spec.fingerprint,
        chunks=chunks,
        embedding=embedding,
        store=VectorStore.from_precomputed(chunks, vectors, embedding),
        manual_pages=dict(spec.bundle.manual_page_names),
        registry=spec.bundle.registry,
        parent_digest=parent_digest,
        source_digests=source_digests,
    )


def build_shard(
    spec: ShardSpec,
    chunks: list[Document],
    embedding,
    source_digests: dict[str, str],
    parent: IndexArtifact | None = None,
) -> IndexArtifact:
    """Build one shard: embed ``chunks`` into a store, reusing ``parent``.

    ``embedding`` is the model shared by every shard of the composite.
    A chunk the lineage ``parent`` already holds (same ``doc_id``, i.e.
    the same bytes) takes the parent's row iff ``embedding`` maps it to
    the same vector as the model that produced the parent's rows
    (:meth:`~repro.embeddings.base.EmbeddingModel.moved_since`); the
    rest are embedded, in one batch.  Every registered model computes
    and normalizes vectors per row, so a subset batch equals the
    matching rows of the full batch and the result is value-identical
    to a build with no parent.

    A build that reused rows names the parent in ``parent_digest`` and
    is accounted under ``repro.ingest.delta_builds`` / ``chunks_embedded``
    / ``chunks_reused``; one that reused none counts as
    ``repro.index.builds`` +1.
    """
    registry = get_registry()
    # ``doc_id`` hashes the whole chunk text: take it once per chunk.
    doc_ids = [c.doc_id for c in chunks]
    parent_rows: list[int | None] = [None] * len(chunks)
    if parent is not None:
        held = parent.store._ids
        moved = embedding.moved_since(parent.embedding)
        parent_rows = [
            None if row is None or moved(c.text) else row
            for c, row in zip(chunks, map(held.get, doc_ids))
        ]
    fresh = {d: c for d, c, row in zip(doc_ids, chunks, parent_rows) if row is None}
    embedded: dict[str, np.ndarray] = {}
    if fresh:
        embedded = dict(
            zip(fresh, embedding.embed_documents([c.text for c in fresh.values()]))
        )
    parent_matrix = parent.store.matrix if parent is not None else None
    vectors = np.empty((len(chunks), embedding.dim), dtype=np.float32)
    for row, (doc_id, parent_row) in enumerate(zip(doc_ids, parent_rows)):
        vectors[row] = embedded[doc_id] if parent_row is None else parent_matrix[parent_row]
    reused = len(chunks) - parent_rows.count(None)

    if reused:
        registry.counter("repro.ingest.delta_builds").inc()
        registry.counter("repro.shard.delta_builds").inc()
        registry.counter("repro.ingest.chunks_embedded").inc(len(chunks) - reused)
        registry.counter("repro.ingest.chunks_reused").inc(reused)
    else:
        registry.counter("repro.index.builds").inc()
        registry.counter("repro.shard.builds").inc()
    return _assemble_shard(
        spec, chunks, vectors, embedding, source_digests, parent.digest if reused else None
    )


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
    cache_dir: str | Path, digest: str
) -> tuple[list[Document], np.ndarray]:
    """Verify and read the cache entry for ``digest``.

    Returns ``(chunks, vectors)``.  Every payload file is read
    once: its checksum is verified over the bytes that are then parsed
    (manifests written before checksums existed load as trusted), and
    chunk and vector counts are cross-checked against the manifest.
    Raises :class:`IndexBuildError` on a miss or any corruption.
    Assembling the vector store is the caller's job: it needs the
    embedding model fitted over the chunks of every shard, which only
    the resolver has.
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
    checksums = manifest.get("payload_checksums") or {}
    payload: dict[str, bytes] = {}
    for name in _PAYLOAD_FILES:
        try:
            payload[name] = (store_dir / name).read_bytes()
        except OSError as exc:
            raise IndexBuildError(
                f"cached payload {name} unreadable in {store_dir}: {exc}"
            ) from exc
        if name not in checksums:
            continue
        expected_sum = checksums[name]
        actual = hashlib.sha256(payload[name]).hexdigest()
        if actual != expected_sum:
            get_registry().counter("repro.index.checksum_failures").inc()
            raise IndexBuildError(
                f"cached payload {name} fails checksum in {store_dir} "
                f"(expected {expected_sum[:12]}…, got {actual[:12]}…)"
            )
    try:
        chunks, vectors = VectorStore.decode_payload(
            payload["documents.jsonl"], payload["vectors.npz"]
        )
    except VectorStoreError as exc:
        raise IndexBuildError(f"unreadable cached store in {store_dir}: {exc}") from exc
    expected_shape = (int(manifest.get("chunk_count", -1)), manifest.get("embedding_dim"))
    if vectors.shape != expected_shape:
        raise IndexBuildError(
            f"cached store holds {vectors.shape} vectors, manifest says {expected_shape}"
        )
    return chunks, vectors


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


class IndexCatalog:
    """The live index artifacts: at most one per index config.

    One dict maps a config-fingerprint key to the artifact last
    published under it.  That entry is both the in-process hit for its
    digest and the lineage parent of the config's next build, so
    publishing a successor *is* evicting the superseded digest: once a
    successor for the same config is live, the predecessor could only
    serve stale corpus state (the historical bug was a disk-cache
    rebuild over a corrupt entry leaving the original in-memory artifact
    live).  Consumers holding a reference keep it — eviction only stops
    new resolutions.

    The process shares :data:`CATALOG`; a private ``IndexCatalog()``
    resolves from scratch and leaves it alone.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live: dict[str, IndexArtifact] = {}

    def get(self, digest: str, fingerprint: dict) -> IndexArtifact | None:
        """The live artifact under ``fingerprint``'s config, if it is ``digest``."""
        live = self.parent(fingerprint)
        return live if live is not None and live.digest == digest else None

    def parent(self, fingerprint: dict) -> IndexArtifact | None:
        """The live artifact under ``fingerprint``'s config: the delta-build
        parent candidate (same index-relevant config, possibly a
        different corpus)."""
        return self._live.get(_fingerprint_key(fingerprint))

    def publish(self, artifact: IndexArtifact) -> IndexArtifact:
        """Make ``artifact`` its config's live entry; first writer wins.

        Returns the live artifact — the one already published under the
        same digest, if any, so every consumer shares one object.
        Replacing a different digest counts one
        ``repro.index.lineage_evictions``.
        """
        key = _fingerprint_key(artifact.fingerprint)
        with self._lock:
            live = self._live.get(key)
            if live is not None and live.digest == artifact.digest:
                return live
            self._live[key] = artifact
        if live is not None:
            get_registry().counter("repro.index.lineage_evictions").inc()
        return artifact

    def clear(self) -> None:
        """Drop every live artifact (tests and long-lived daemons)."""
        self._live.clear()

    def resolve(self, plan: ShardPlan, config: ReproConfig) -> tuple[IndexArtifact, str]:
        """Resolve ``plan`` to its shared artifact and the lane that got it.

        The lane is one of :data:`LANES`: ``memory`` for a live
        composite, otherwise the dearest lane among the shards.  Each
        shard resolves memory → disk → build, and a build is ``delta``
        when it reused parent rows, ``full`` when it reused none.  The
        lane describes this call only — concurrent resolutions never
        relabel each other.

        Three phases: resolve each shard's chunks (live artifact, disk
        entry under ``config.engine.index_cache_dir``, or a chunking
        pass for dirty shards), fit the embedding once over all of them
        (derived from the lineage parents' model), then materialize the
        shard stores — clean shards take their vectors straight from the
        npz, dirty shards go through :func:`build_shard` with their
        lineage parent and are written back to the disk cache when one
        is configured, so a corpus edit rebuilds only the shards whose
        documents changed.
        """
        registry = get_registry()
        fingerprint = {
            **config_fingerprint(config),
            "num_shards": plan.num_shards,
            "embedding_scope": plan.embedding_scope,
        }
        live = self.get(plan.composite, fingerprint)
        if live is not None:
            registry.counter("repro.index.memory_hits").inc()
            return live, "memory"

        cache_dir = config.engine.index_cache_dir
        workers = config.sharding.build_workers
        bundle, specs = plan.bundle, plan.shards
        shards: dict[int, IndexArtifact] = {}
        lanes: dict[int, str] = {}
        chunks: dict[int, list[Document]] = {}
        digests: dict[int, dict[str, str]] = {}
        disk_vectors: dict[int, np.ndarray] = {}
        parents: dict[int, IndexArtifact | None] = {}

        # Catalog lookups and disk loads are cheap and stay in the
        # calling thread; only the shards that need chunking and a build
        # share the pool, so one dirty shard beside clean ones never
        # waits on pool threads for the interpreter lock.
        for i, spec in enumerate(specs):
            live = self.parent(spec.fingerprint)
            if live is not None and live.digest == spec.digest:
                registry.counter("repro.shard.memory_hits").inc()
                shards[i], lanes[i], chunks[i] = live, "memory", live.chunks
                continue
            if cache_dir is not None:
                try:
                    chunks[i], disk_vectors[i] = read_cached_payload(cache_dir, spec.digest)
                    continue
                except IndexBuildError:
                    pass
            parents[i] = live
        dirty = list(parents)
        chunked = _map_shards(lambda i: _chunk(specs[i], config, parents[i]), dirty, workers)
        for i, (shard_chunks, shard_digests) in zip(dirty, chunked):
            chunks[i], digests[i] = shard_chunks, shard_digests
        embedding = create_embedding_model(
            config.retrieval.embedding_model,
            corpus_texts=[c.text for i in range(len(specs)) for c in chunks[i]],
            parent=next((p.embedding for p in parents.values() if p is not None), None),
        )

        for i, vectors in disk_vectors.items():
            registry.counter("repro.index.disk_hits").inc()
            registry.counter("repro.shard.disk_hits").inc()
            # No chunking ran, so nothing hashed the shard's sources yet.
            digests[i] = corpus_source_digests(
                specs[i].bundle, include_mail=config.retrieval.include_mail_archives
            )
            shards[i] = self.publish(
                _assemble_shard(specs[i], chunks[i], vectors, embedding, digests[i])
            )
            lanes[i] = "disk"

        def build(i: int) -> tuple[IndexArtifact, str]:
            shard = build_shard(specs[i], chunks[i], embedding, digests[i], parents[i])
            if cache_dir is not None:
                save_artifact(shard, cache_dir)
            # The lane is what *this* call did, whoever published first.
            return self.publish(shard), "delta" if shard.parent_digest else "full"

        for i, (shard, lane) in zip(dirty, _map_shards(build, dirty, workers)):
            shards[i], lanes[i] = shard, lane

        ordered = [shards[i] for i in range(len(specs))]
        composite = IndexArtifact(
            digest=plan.composite,
            corpus_digest=plan.corpus_digest,
            fingerprint=fingerprint,
            chunks=[c for s in ordered for c in s.chunks],
            embedding=embedding,
            store=ShardedVectorStore([s.store for s in ordered], embedding),
            manual_pages=dict(bundle.manual_page_names),
            registry=bundle.registry,
            # Sources partition across shards, and the dict is only looked up.
            source_digests={k: v for s in ordered for k, v in s.source_digests.items()},
            shards=ordered,
        )
        # Another thread may have raced the build; first writer wins so
        # every consumer shares one object.
        return self.publish(composite), max(lanes.values(), key=LANES.index)


#: The process catalog: every engine, ingest and benchmark in one
#: process resolves through it.
CATALOG = IndexCatalog()
clear_index_cache = CATALOG.clear


def get_or_build_index(bundle: CorpusBundle, config: ReproConfig | None = None) -> IndexArtifact:
    """The shared artifact for (bundle, config), resolved through :data:`CATALOG`."""
    config = config or ReproConfig()
    return CATALOG.resolve(plan_shards(bundle, config), config)[0]

"""The index layer: content-hashed artifacts, memory and disk caches."""

from __future__ import annotations

import json

import pytest

from repro.config import EngineConfig, RetrievalConfig, ReproConfig
from repro.errors import IndexBuildError
from repro.index import (
    clear_index_cache,
    get_or_build_index,
    plan_shards,
    read_cached_payload,
)
from repro.observability import MetricsRegistry, use_registry


@pytest.fixture()
def fresh_cache():
    """Run the test against an empty in-process artifact cache, then
    leave it empty so test order never leaks cached artifacts."""
    clear_index_cache()
    yield
    clear_index_cache()


class TestDigests:
    def test_digest_is_deterministic(self, bundle, fast_config):
        first = plan_shards(bundle, fast_config).composite
        assert plan_shards(bundle, fast_config).composite == first

    def test_digest_tracks_index_relevant_config(self, bundle, fast_config):
        base = plan_shards(bundle, fast_config).composite
        chunked = ReproConfig(
            retrieval=RetrievalConfig(chunk_size=500), iterations_per_token=0
        )
        assert plan_shards(bundle, chunked).composite != base

    def test_digest_ignores_serving_config(self, bundle):
        # Serving knobs (chat model, latency, resilience) don't change
        # what gets indexed, so they must not fragment the cache.
        a = plan_shards(bundle, ReproConfig(iterations_per_token=0)).composite
        b = plan_shards(bundle, ReproConfig(chat_model="llama-3-sim")).composite
        assert a == b

    def test_build_stamps_matching_digest(self, bundle, fast_config, fresh_cache):
        artifact = get_or_build_index(bundle, fast_config)
        assert artifact.digest == plan_shards(bundle, fast_config).composite
        assert len(artifact.chunks) > 0
        assert len(artifact.store) == len(artifact.chunks)


class TestMemoryCache:
    def test_one_build_many_consumers(self, bundle, fast_config, fresh_cache):
        reg = MetricsRegistry()
        with use_registry(reg):
            first = get_or_build_index(bundle, fast_config)
            second = get_or_build_index(bundle, fast_config)
            third = get_or_build_index(bundle, fast_config)
        assert first is second is third
        assert reg.counter("repro.index.builds").value == 1
        assert reg.counter("repro.index.memory_hits").value == 2

    def test_different_config_builds_again(self, bundle, fast_config, fresh_cache):
        reg = MetricsRegistry()
        other = ReproConfig(
            retrieval=RetrievalConfig(chunk_size=500), iterations_per_token=0
        )
        with use_registry(reg):
            a = get_or_build_index(bundle, fast_config)
            b = get_or_build_index(bundle, other)
        assert a is not b
        assert a.digest != b.digest
        assert reg.counter("repro.index.builds").value == 2


class TestDiskCache:
    @pytest.fixture()
    def on_disk(self, tmp_path):
        """The fast config with its index cache directory under ``tmp_path``."""
        return ReproConfig(
            iterations_per_token=0, engine=EngineConfig(index_cache_dir=str(tmp_path))
        )

    def test_rebuild_from_disk_same_digest(self, bundle, on_disk, tmp_path, fresh_cache):
        reg = MetricsRegistry()
        with use_registry(reg):
            built = get_or_build_index(bundle, on_disk)
            clear_index_cache()  # force the next call past the memory tier
            loaded = get_or_build_index(bundle, on_disk)
        assert reg.counter("repro.index.builds").value == 1
        assert reg.counter("repro.index.disk_writes").value == 1
        assert reg.counter("repro.index.disk_hits").value == 1
        assert loaded.digest == built.digest
        assert len(loaded.chunks) == len(built.chunks)
        # The restored store answers identically to the built one.
        query = "How do I set the KSP tolerance?"
        a = [(d.doc_id, round(s, 9)) for d, s in built.store.similarity_search_with_score(query, k=5)]
        b = [(d.doc_id, round(s, 9)) for d, s in loaded.store.similarity_search_with_score(query, k=5)]
        assert a == b

    def test_save_load_roundtrip(self, bundle, on_disk, tmp_path, fresh_cache):
        # Disk entries are per shard, keyed by the shard digest.
        artifact = get_or_build_index(bundle, on_disk)
        (shard,) = artifact.shards
        manifest = json.loads(
            (tmp_path / shard.digest[:16] / "artifact.json").read_text()
        )
        assert manifest["digest"] == shard.digest
        clear_index_cache()
        reg = MetricsRegistry()
        with use_registry(reg):
            restored = get_or_build_index(bundle, on_disk)
        assert restored.digest == artifact.digest
        assert [s.digest for s in restored.shards] == [shard.digest]
        # A disk hit skips the embed pass.
        assert reg.counter("repro.index.disk_hits").value == 1
        assert reg.counter("repro.index.builds").value == 0

    def test_missing_entry_raises(self, bundle, fast_config, tmp_path):
        with pytest.raises(IndexBuildError):
            read_cached_payload(tmp_path, plan_shards(bundle, fast_config).composite)

    def test_corrupt_manifest_falls_back_to_build(self, bundle, on_disk, tmp_path, fresh_cache):
        artifact = get_or_build_index(bundle, on_disk)
        (shard,) = artifact.shards
        manifest = tmp_path / shard.digest[:16] / "artifact.json"
        manifest.write_text('{"digest": "tampered"}')
        with pytest.raises(IndexBuildError):
            read_cached_payload(tmp_path, shard.digest)
        clear_index_cache()
        reg = MetricsRegistry()
        with use_registry(reg):
            rebuilt = get_or_build_index(bundle, on_disk)
        assert rebuilt.digest == artifact.digest
        assert reg.counter("repro.index.disk_hits").value == 0
        assert reg.counter("repro.index.builds").value == 1
        # The corrupt entry was overwritten with a valid one.
        assert json.loads(manifest.read_text())["digest"] == shard.digest


class TestArtifactImmutability:
    def test_serving_views_share_the_artifact_shard_stores(
        self, bundle, fast_config, fresh_cache
    ):
        from repro.config import ReplicationConfig
        from repro.engine import QueryEngine

        artifact = get_or_build_index(bundle, fast_config)
        modes = ("rag", "rag+rerank")
        # Every engine, 1 x 1 included, retrieves from a serving view
        # over the artifact's own shard stores and documents.
        engine = QueryEngine(artifact, fast_config)
        single = [engine.pipeline(m).retriever.store for m in modes]
        replicated = QueryEngine(
            artifact,
            ReproConfig(iterations_per_token=0, replication=ReplicationConfig(replicas=2)),
        )
        views = [replicated.pipeline(m).retriever.store for m in modes]
        assert views[0] is not views[1] and artifact.store not in views + single
        for view in views + single:
            assert len(view.shards) == len(artifact.store.shards)
            assert all(a is b for a, b in zip(view.shards, artifact.store.shards))
            assert view._docs is artifact.store._docs
            assert view.embedding is artifact.embedding
            assert all(s.embedding is artifact.embedding for s in view.shards)
        assert all(view.copies == artifact.store.copies for view in single)
        assert all(
            copies == (shard, shard) for view in views
            for shard, copies in zip(artifact.store.shards, view.copies)
        )

    def test_keyword_search_from_artifact(self, bundle, fast_config, fresh_cache):
        artifact = get_or_build_index(bundle, fast_config)
        hits = artifact.keyword_search().retrieve("What does KSPSolve do?", k=2)
        assert any(
            h.document.metadata.get("source") == "manualpages/KSPSolve.md" for h in hits
        )

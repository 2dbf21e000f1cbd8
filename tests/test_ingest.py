"""The unified ingestion lifecycle: one write path for the knowledge base.

Covers the full staged lane (ISSUE 10): content-addressed chunk
identity, typed corpus deltas, lineage-aware builds that re-embed only
changed chunks (a from-scratch build is the same build with nothing to
reuse), the lane each resolution reports, artifact epochs on the live
engine, scoped cache invalidation, and the history feed as an ingest
(stores are values: there is no other write path).
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.api import open_engine, open_service
from repro.config import (
    EngineConfig,
    ReplicationConfig,
    ReproConfig,
    RetrievalConfig,
    ShardingConfig,
)
from repro.corpus.builder import CorpusBundle, chunk_corpus, overlay_tree
from repro.corpus.facts import FactRegistry
from repro.documents import Document
from repro.embeddings.base import EmbeddingModel
from repro.embeddings.registry import EMBEDDING_MODEL_NAMES
from repro.engine import QueryEngine
from repro.evaluation.benchmark import krylov_benchmark
from repro.index import (
    CATALOG,
    IndexCatalog,
    clear_index_cache,
    get_or_build_index,
    plan_shards,
)
from repro.ingest import (
    CorpusDelta,
    chunk_address,
    chunk_id,
    diff_chunks,
    ingest_corpus,
    normalized_text,
    source_digest,
)
from repro.observability import MetricsRegistry, use_registry
from repro.service import ReproService
from tests.test_text_analysis import _memo_misses


EMBED = "petsc-embed-small"  # corpus-free: the delta lane's precondition


@pytest.fixture()
def fresh_cache():
    clear_index_cache()
    yield
    clear_index_cache()


def _cfg(
    shards: int = 1, *, replicas: int = 1, embedding: str = EMBED, cache_dir=None
) -> ReproConfig:
    return ReproConfig(
        iterations_per_token=0,
        retrieval=RetrievalConfig(embedding_model=embedding),
        sharding=ShardingConfig(num_shards=shards),
        replication=ReplicationConfig(replicas=replicas),
        engine=EngineConfig(index_cache_dir=cache_dir),
    )


def _with_documents(bundle, docs) -> CorpusBundle:
    sources = {d.metadata.get("source") for d in docs}
    return CorpusBundle(
        registry=bundle.registry,
        documents=list(docs),
        manual_page_names={
            name: page
            for name, page in bundle.manual_page_names.items()
            if page.metadata.get("source") in sources
        },
    )


def _rewrite_source(bundle, source: str, rewrite) -> CorpusBundle:
    docs = list(bundle.documents)
    for i, doc in enumerate(docs):
        if doc.metadata.get("source") == source:
            docs[i] = Document(text=rewrite(doc.text), metadata=dict(doc.metadata))
            break
    else:
        raise AssertionError(f"no document with source {source!r}")
    return CorpusBundle(
        registry=bundle.registry,
        documents=docs,
        manual_page_names=dict(bundle.manual_page_names),
    )


def _edit_source(bundle, source: str, suffix: str) -> CorpusBundle:
    return _rewrite_source(bundle, source, lambda text: text + suffix)


def _edited(bundle, cfg=None) -> CorpusBundle:
    # Revisers share the (bundle, cfg) shape; only the shard-aware one reads cfg.
    return _edit_source(
        bundle, "faq.md", "\n\nRevision note: clarified the guidance above.\n"
    )


class TestChunkIdentity:
    def test_normalization_collapses_whitespace(self):
        assert normalized_text("a  b\n\nc\t") == normalized_text(" a b c ")

    def test_address_ignores_whitespace_only_edits(self):
        assert chunk_address("solve with\n KSP", "m.md") == chunk_address(
            "solve  with KSP", "m.md"
        )

    def test_address_separates_text_and_source(self):
        # The separator prevents (text+source) concatenation collisions.
        assert chunk_address("ab", "c.md") != chunk_address("a", "bc.md")
        assert chunk_address("x", "a.md") != chunk_address("x", "b.md")

    def test_chunk_id_reads_document_metadata(self):
        doc = Document(text="KSP solves Ax=b", metadata={"source": "ksp.md"})
        assert chunk_id(doc) == chunk_address("KSP solves Ax=b", "ksp.md")

    def test_source_digest_is_exact(self):
        # Unlike the chunk address, the per-source digest is byte-exact:
        # it decides *re-chunking*, not embedding reuse.
        assert source_digest("a b") != source_digest("a  b")


class TestCorpusDelta:
    def _chunks(self, texts, source="s.md"):
        return [
            Document(text=t, metadata={"source": source, "chunk": str(i)})
            for i, t in enumerate(texts)
        ]

    def test_identical_chunks_is_noop(self):
        old = self._chunks(["alpha", "beta"])
        new = self._chunks(["alpha", "beta"])
        delta = diff_chunks(old, new)
        assert not (delta.added or delta.modified or delta.removed)
        assert delta.unchanged == 2
        assert delta.embed_count == 0

    def test_classification(self):
        old = self._chunks(["alpha", "beta", "gamma"])
        # beta edited in place (new bytes, same position), gamma dropped,
        # delta added; alpha untouched.
        new = [
            old[0],
            Document(text="beta revised", metadata=dict(old[1].metadata)),
            Document(text="delta", metadata={"source": "s.md", "chunk": "3"}),
        ]
        delta = diff_chunks(old, new)
        assert delta.unchanged == 1
        assert {d.text for d in delta.added} == {"beta revised", "delta"}
        removed = {r.doc_id for r in delta.removed}
        assert removed == {old[1].doc_id, old[2].doc_id}

    def test_whitespace_edit_is_modified_not_added(self):
        old = self._chunks(["use  KSPSolve"])
        new = self._chunks(["use KSPSolve"])
        delta = diff_chunks(old, new)
        # Same content address, different bytes: a modification.
        assert [d.text for d in delta.modified] == ["use KSPSolve"]
        assert not delta.added
        assert [r.doc_id for r in delta.removed] == [old[0].doc_id]

    def test_digest_is_order_independent(self):
        old = self._chunks(["a", "b"])
        new = self._chunks(["a", "c"])
        d1 = diff_chunks(old, new)
        d2 = diff_chunks(list(reversed(old)), list(reversed(new)))
        assert d1.digest == d2.digest


class TestLineage:
    def test_publish_evicts_superseded_digest(self, bundle, fresh_cache):
        """A lineage successor evicts its parent from the process catalog
        instead of letting dead epochs accumulate."""
        cfg = _cfg()
        reg = MetricsRegistry()
        with use_registry(reg):
            parent = get_or_build_index(bundle, cfg)
            child = get_or_build_index(_edited(bundle), cfg)
        assert child.digest != parent.digest
        assert CATALOG.get(child.digest, child.fingerprint) is child
        assert CATALOG.get(parent.digest, parent.fingerprint) is None
        # The edited shard and the composite over it.
        assert reg.counter("repro.index.lineage_evictions").value == 2

    def test_corpus_fitted_lineage_evicts_on_every_ingest(self, bundle, fresh_cache):
        """A corpus-fitted embedder folds the corpus digest into every
        fingerprint (``embedding_scope``); lineage must still follow the
        config across edits, or each ingest strands a dead artifact."""
        engine = open_engine(ReproConfig(iterations_per_token=0), bundle=bundle)
        assert engine.artifact.fingerprint["embedding_scope"] != "corpus-free"
        reg = MetricsRegistry()
        evictions = reg.counter("repro.index.lineage_evictions")
        revised = bundle
        for i in range(5):
            before, superseded = evictions.value, engine.artifact
            revised = _edit_source(
                revised, "manualpages/KSPGMRES.md", f"\n\nRevision {i}."
            )
            with use_registry(reg):  # the index cache reports to the ambient scope
                assert ingest_corpus(engine, revised).swapped
            assert evictions.value > before
            for stale in (superseded, *superseded.shards):
                assert CATALOG.get(stale.digest, stale.fingerprint) is None

    def test_parent_tracks_latest(self, bundle, fresh_cache):
        cfg = _cfg()
        artifact = get_or_build_index(bundle, cfg)
        assert CATALOG.parent(artifact.fingerprint) is artifact
        (shard,) = artifact.shards
        assert CATALOG.parent(shard.fingerprint) is shard

    def test_private_catalog_leaves_the_process_catalog_alone(self, bundle, fresh_cache):
        cfg = _cfg()
        live = get_or_build_index(bundle, cfg)
        reg = MetricsRegistry()
        with use_registry(reg):
            scratch, lane = IndexCatalog().resolve(plan_shards(_edited(bundle), cfg), cfg)
        assert lane == "full" and scratch.digest != live.digest
        assert CATALOG.parent(live.fingerprint) is live
        assert CATALOG.get(scratch.digest, scratch.fingerprint) is None
        assert reg.counter("repro.index.lineage_evictions").value == 0


def _rewrite_most_of_first_shard(bundle, cfg) -> CorpusBundle:
    """Every document of shard 0 rewritten except its first (which keeps
    a few rows reusable): far more than half of the shard's chunks move."""
    victims = {
        d.metadata["source"] for d in plan_shards(bundle, cfg).shards[0].bundle.documents[1:]
    }
    return _with_documents(
        bundle,
        [
            Document(text=d.text.replace(" the ", " THE "), metadata=dict(d.metadata))
            if d.metadata["source"] in victims
            else d
            for d in bundle.documents
        ],
    )


class TestDeltaBuild:
    def test_reembeds_only_changed_chunks(self, bundle, fresh_cache):
        cfg = _cfg()
        reg = MetricsRegistry()
        with use_registry(reg):
            parent = get_or_build_index(bundle, cfg)
            builds_before = reg.counter("repro.index.builds").value
            artifact = get_or_build_index(_edited(bundle), cfg)
        assert artifact.shards[0].parent_digest == parent.shards[0].digest
        delta = diff_chunks(parent.chunks, artifact.chunks)
        embedded = reg.counter("repro.ingest.chunks_embedded").value
        reused = reg.counter("repro.ingest.chunks_reused").value
        assert embedded == delta.embed_count
        assert 0 < embedded < len(artifact.chunks) / 10
        assert embedded + reused == len(artifact.chunks)
        # A build that reused rows is not counted as a full build.
        assert reg.counter("repro.index.builds").value == builds_before
        assert reg.counter("repro.ingest.delta_builds").value == 1

    def test_delta_equals_scratch_byte_for_byte(self, bundle, fresh_cache):
        cfg = _cfg()
        edited = _edited(bundle)
        get_or_build_index(bundle, cfg)
        artifact = get_or_build_index(edited, cfg)
        assert artifact.shards[0].parent_digest is not None
        clear_index_cache()
        scratch = get_or_build_index(edited, cfg)
        assert scratch.shards[0].parent_digest is None
        _assert_same_artifact(artifact, scratch)

    def test_corpus_fitted_embedding_reembeds_only_moved_chunks(self, bundle, fresh_cache):
        # Was test_corpus_fitted_embedding_declines.  A TF-IDF vector
        # depends only on the IDF of the chunk's own terms: an edit that
        # keeps the chunk count re-embeds the edited chunk and the
        # chunks holding a term whose IDF moved, nothing else.
        reg = MetricsRegistry()
        with use_registry(reg):
            engine = open_engine(_cfg(embedding="petsc-embed-large"), bundle=bundle)
            parent = engine.artifact
            builds_before = reg.counter("repro.index.builds").value
            report = ingest_corpus(engine, _edited(bundle))
        assert report.resolution == "delta"
        artifact = engine.artifact
        assert artifact.shards[0].parent_digest == parent.shards[0].digest
        changed = artifact.embedding.changed_terms(parent.embedding)
        assert 0 < len(changed) < len(artifact.embedding._idf) / 10
        parent_ids = {c.doc_id for c in parent.chunks}
        edited = [c for c in artifact.chunks if c.doc_id not in parent_ids]
        holding = [
            c
            for c in artifact.chunks
            if c.doc_id in parent_ids
            and not changed.isdisjoint(artifact.embedding._term_counts(c.text))
        ]
        assert len(edited) == 1 and holding
        embedded = reg.counter("repro.ingest.chunks_embedded").value
        assert embedded == len(edited) + len(holding) < len(artifact.chunks) / 4
        assert embedded + reg.counter("repro.ingest.chunks_reused").value == len(artifact.chunks)
        assert reg.counter("repro.index.builds").value == builds_before
        assert reg.counter("repro.ingest.delta_builds").value == 1
        # The report says why a one-document edit embedded more than one chunk.
        assert report.delta["added"] + report.delta["modified"] == len(edited)
        assert report.delta["reembedded"] == len(holding)
        assert report.delta["embedded"] == embedded
        assert report.delta["unchanged"] == len(artifact.chunks) - len(edited)

    def test_large_delta_still_copies_unchanged_rows(self, bundle, fresh_cache):
        # Was test_large_delta_falls_back_to_full_build: reuse is a row
        # copy, so there is no fraction past which it stops paying.
        cfg = _cfg()
        reg = MetricsRegistry()
        with use_registry(reg):
            engine = open_engine(cfg, bundle=bundle)
            builds_before = reg.counter("repro.index.builds").value
            report = ingest_corpus(engine, _rewrite_most_of_first_shard(bundle, cfg))
        embedded = reg.counter("repro.ingest.chunks_embedded").value
        reused = reg.counter("repro.ingest.chunks_reused").value
        assert report.resolution == "delta"
        assert embedded > report.delta["total"] / 2 and reused > 0
        assert embedded + reused == report.delta["total"]
        assert reg.counter("repro.index.builds").value == builds_before

    def test_get_or_build_resolves_via_delta(self, bundle, fresh_cache):
        cfg = _cfg()
        reg = MetricsRegistry()
        with use_registry(reg):
            get_or_build_index(bundle, cfg)
            builds = reg.counter("repro.index.builds").value
            successor = get_or_build_index(_edited(bundle), cfg)
        assert reg.counter("repro.index.builds").value == builds
        assert reg.counter("repro.ingest.delta_builds").value == 1
        assert successor.digest == plan_shards(_edited(bundle), cfg).composite


def _assert_same_artifact(a, b) -> None:
    assert a.digest == b.digest
    assert [s.digest for s in a.shards] == [s.digest for s in b.shards]
    assert [c.doc_id for c in a.chunks] == [c.doc_id for c in b.chunks]
    assert a.source_digests == b.source_digests
    for x, y in zip(a.shards, b.shards):
        assert [c.doc_id for c in x.chunks] == [c.doc_id for c in y.chunks]
        assert [d.doc_id for d in x.store._docs] == [d.doc_id for d in y.store._docs]
        assert x.store.matrix.dtype == y.store.matrix.dtype
        assert np.array_equal(x.store.matrix, y.store.matrix)


def _added(bundle, cfg=None) -> CorpusBundle:
    page = Document(
        text="# KSPNEWTHING\n\nA new Krylov method page added by the ingest test.\n",
        metadata={
            "source": "manualpages/KSPNEWTHING.md",
            "doc_type": "manual_page",
            "title": "KSPNEWTHING",
        },
    )
    revised = _with_documents(bundle, [*bundle.documents, page])
    revised.manual_page_names["KSPNEWTHING"] = page
    return revised


def _removed(bundle, cfg=None) -> CorpusBundle:
    return _with_documents(
        bundle,
        [d for d in bundle.documents if d.metadata.get("source") != "manualpages/KSPGMRES.md"],
    )


class TestBuildOverParentEqualsFromScratch:
    """A full build is a delta from an empty parent: whatever the lineage
    parent let the build reuse, the result is the from-scratch artifact."""

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("embedding", EMBEDDING_MODEL_NAMES)
    @pytest.mark.parametrize(
        "revise",
        [_edited, _added, _removed, _rewrite_most_of_first_shard],
        ids=["edit-one", "add-one", "remove-one", "rewrite-most-of-a-shard"],
    )
    def test_lineage_resolved_equals_scratch(
        self, bundle, fresh_cache, embedding, shards, revise
    ):
        cfg = _cfg(shards, embedding=embedding)
        revised = revise(bundle, cfg)
        get_or_build_index(bundle, cfg)
        over_parent, lane = CATALOG.resolve(plan_shards(revised, cfg), cfg)
        # A changed chunk count moves every IDF: nothing of the parent's
        # is reusable under the corpus-fitted model.
        refit_all = embedding == "petsc-embed-large" and revise in (_added, _removed)
        assert lane == ("full" if refit_all else "delta")
        clear_index_cache()
        scratch, scratch_lane = CATALOG.resolve(plan_shards(revised, cfg), cfg)
        assert scratch_lane == "full"
        _assert_same_artifact(over_parent, scratch)
        if revise is _rewrite_most_of_first_shard and lane == "delta":
            # The case the fraction threshold used to send to a full build.
            rebuilt = over_parent.shards[0]
            parent_ids = {c.doc_id for c in get_or_build_index(bundle, cfg).shards[0].chunks}
            kept = sum(c.doc_id in parent_ids for c in rebuilt.chunks)
            assert 0 < kept < len(rebuilt.chunks) / 2
            assert rebuilt.parent_digest is not None


    def test_two_hop_lineage_compares_against_the_parents_own_fit(self, bundle, fresh_cache):
        """A → B → C where C undoes B's edit: the terms B's note moved
        have the IDF at C they had at A.  B's rows were computed under
        B's fit, so the chunks holding those terms must be re-embedded
        at C — a reuse test against the fit that seeded the caches (A's)
        would copy B's rows and miss scratch by a few bytes."""
        cfg = _cfg(embedding="petsc-embed-large")
        a = get_or_build_index(bundle, cfg)
        b, lane_b = CATALOG.resolve(plan_shards(_edited(bundle), cfg), cfg)
        revised = _edit_source(bundle, "manualpages/KSPGMRES.md", "\n\nSee also KSPFGMRES.\n")
        c, lane_c = CATALOG.resolve(plan_shards(revised, cfg), cfg)
        assert (lane_b, lane_c) == ("delta", "delta")
        assert c.shards[0].parent_digest == b.shards[0].digest
        undone = b.embedding.changed_terms(a.embedding) & c.embedding.changed_terms(b.embedding)
        assert undone and not undone & c.embedding.changed_terms(a.embedding)
        b_rows = dict(zip((d.doc_id for d in b.shards[0].store._docs), b.shards[0].store.matrix))
        c_rows = dict(zip((d.doc_id for d in c.shards[0].store._docs), c.shards[0].store.matrix))
        carried_terms_only = [
            doc.doc_id
            for doc in c.chunks
            if doc.doc_id in b_rows and not undone.isdisjoint(c.embedding._term_counts(doc.text))
        ]
        assert carried_terms_only
        assert all(not np.array_equal(b_rows[d], c_rows[d]) for d in carried_terms_only)
        clear_index_cache()
        _assert_same_artifact(c, get_or_build_index(revised, cfg))


# ------------------------------------------------------------ sequence property
_WORDS = (
    "krylov gmres restart residual tolerance preconditioner jacobi matrix "
    "vector assembly solver monitor converged breakdown orthogonalization"
).split()
_texts = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=14).map(" ".join)
_steps = st.lists(
    st.tuples(st.sampled_from(["edit", "add", "remove", "noop"]), st.integers(0, 50), _texts),
    min_size=1,
    max_size=8,
)


def _page(slot: int, body: str) -> Document:
    return Document(
        text=f"# PAGE{slot}\n\n{body}\n",
        metadata={"source": f"pages/p{slot}.md", "doc_type": "manual_page", "title": f"PAGE{slot}"},
    )


def _long_doc(body: str) -> Document:
    # Long enough that the splitter cuts it: an edit here can change the
    # chunk count, not only an add or a remove.
    sections = "\n\n".join(f"## Part {i}\n\n" + " ".join([body] * 12) for i in range(3))
    return Document(text=f"# Guide\n\n{sections}\n", metadata={"source": "guide.md", "doc_type": "faq"})


class TestLineageSequenceEqualsFromScratch:
    """Whatever sequence of edits, adds, removes and no-ops the lineage
    went through, each resolved artifact is the from-scratch artifact."""

    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("embedding", EMBEDDING_MODEL_NAMES)
    @given(steps=_steps)
    @settings(max_examples=30, deadline=None)
    def test_every_step_equals_a_scratch_rebuild(self, embedding, shards, steps):
        cfg = _cfg(shards, embedding=embedding)
        registry = FactRegistry()
        docs = {
            d.metadata["source"]: d
            for d in [_long_doc("krylov solver"), *(_page(i, w) for i, w in enumerate(_WORDS[:5]))]
        }
        next_slot = len(docs)
        clear_index_cache()
        try:
            previous = get_or_build_index(CorpusBundle(registry, list(docs.values())), cfg)
            for op, pick, body in steps:
                victim = sorted(docs)[pick % len(docs)]
                if op == "edit":
                    docs[victim] = (
                        _long_doc(body) if victim == "guide.md" else _page(int(victim[7:-3]), body)
                    )
                elif op == "add":
                    docs[f"pages/p{next_slot}.md"] = _page(next_slot, body)
                    next_slot += 1
                elif op == "remove" and len(docs) > 2:
                    del docs[victim]
                revised = CorpusBundle(registry, list(docs.values()))
                reg = MetricsRegistry()
                with use_registry(reg):
                    artifact, lane = CATALOG.resolve(plan_shards(revised, cfg), cfg)
                scratch, scratch_lane = IndexCatalog().resolve(plan_shards(revised, cfg), cfg)
                assert scratch_lane == "full"
                _assert_same_artifact(artifact, scratch)
                event(f"lane {lane}")
                if artifact is previous:
                    assert lane == "memory"
                    continue
                served = {s.digest for s in previous.shards}
                built = [s for s in artifact.shards if s.digest not in served]
                delta_built = [s for s in built if s.parent_digest is not None]
                # The composite reports its dearest shard.
                assert lane == ("delta" if len(delta_built) == len(built) else "full")
                assert reg.counter("repro.ingest.chunks_embedded").value + reg.counter(
                    "repro.ingest.chunks_reused"
                ).value == sum(len(s.chunks) for s in delta_built)
                if embedding == "petsc-embed-large":
                    fit, ref, old = artifact.embedding, scratch.embedding, previous.embedding
                    assert fit._idf == ref._idf
                    assert set(fit._rows) <= set(fit._idf)
                    assert fit.changed_terms(old) == {
                        t
                        for t in set(ref._idf) | set(old._idf)
                        if ref._idf.get(t) != old._idf.get(t)
                    }
                previous = artifact
        finally:
            clear_index_cache()


class TestResolutionLanes:
    def test_resolver_reports_full_memory_disk_delta(self, bundle, tmp_path, fresh_cache):
        cfg = _cfg(2, cache_dir=str(tmp_path))
        plan = plan_shards(bundle, cfg)
        built, lane = CATALOG.resolve(plan, cfg)
        assert lane == "full"
        again, lane = CATALOG.resolve(plan, cfg)
        assert lane == "memory" and again is built
        clear_index_cache()
        loaded, lane = CATALOG.resolve(plan, cfg)
        assert lane == "disk"
        _assert_same_artifact(loaded, built)
        # One dirty shard over its parent, one clean shard from memory:
        # the composite reports the dearest lane.
        _edited_artifact, lane = CATALOG.resolve(plan_shards(_edited(bundle), cfg), cfg)
        assert lane == "delta"

    def test_ingest_reports_the_lane_of_each_call(self, bundle, tmp_path, fresh_cache):
        cfg = _cfg(cache_dir=str(tmp_path))
        edited = _edited(bundle)
        first = open_engine(cfg, bundle=bundle)
        second = open_engine(cfg, bundle=bundle)
        assert ingest_corpus(first, edited).resolution == "delta"
        # The other engine finds the successor already resolved.
        assert ingest_corpus(second, edited).resolution == "memory"
        # Back to the original: evicted from memory by its successor,
        # still on disk.
        assert ingest_corpus(first, bundle).resolution == "disk"

    def test_lane_is_per_call_across_threads(self, bundle, fresh_cache, monkeypatch):
        """Two engines ingest different revisions into one registry at
        once: each report names its own lane, not whichever counter the
        other thread's build moved."""
        from repro.index import builder

        reg = MetricsRegistry()
        engines = {
            "delta": open_engine(_cfg(), bundle=bundle, registry=reg),
            "full": open_engine(_cfg(embedding="petsc-embed-large"), bundle=bundle, registry=reg),
        }
        full_done = threading.Event()
        real_build_shard = builder.build_shard

        def gated(*args, **kwargs):
            # The whole full build lands inside the delta thread's resolve.
            if threading.current_thread().name == "delta":
                assert full_done.wait(timeout=60)
            return real_build_shard(*args, **kwargs)

        monkeypatch.setattr(builder, "build_shard", gated)
        reports, errors = {}, []
        # Adding a page changes the chunk count, so the corpus-fitted
        # engine's build reuses nothing: lane ``full``.
        revisions = {"delta": _edited(bundle), "full": _added(bundle)}

        def run(name):
            try:
                with use_registry(reg):
                    reports[name] = ingest_corpus(engines[name], revisions[name])
            except Exception as exc:  # surfaced below, with the thread's name
                errors.append((name, exc))
            finally:
                if name == "full":
                    full_done.set()

        builds_before = reg.counter("repro.index.builds").value
        threads = [threading.Thread(target=run, args=(name,), name=name) for name in engines]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert reg.counter("repro.index.builds").value == builds_before + 1
        assert {name: r.resolution for name, r in reports.items()} == {
            "delta": "delta",
            "full": "full",
        }


def _src_root() -> Path:
    import repro

    return Path(repro.__file__).parent


def _assert_absent_from_src(names) -> None:
    for path in sorted(_src_root().rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert not [name for name in names if name in text], path


def test_one_chunker_one_shard_builder_one_resolution():
    """Conformance: the write path has one of everything."""
    src = _src_root()
    builder = (src / "index" / "builder.py").read_text(encoding="utf-8")
    assert len(re.findall(r"\bIndexArtifact\(", builder)) <= 2  # shard, composite
    assert len(re.findall(r"\bembed_documents\(", builder)) == 1
    for path in sorted((src / "ingest").rglob("*.py")):
        # The lane comes from the resolver, never from counter arithmetic.
        assert not re.search(r"\.counter\([^)]*\)\.value", path.read_text(encoding="utf-8")), path
    for path in sorted((src / "vectorstore").rglob("*.py")):
        assert "ThreadPoolExecutor" not in path.read_text(encoding="utf-8"), path
    _assert_absent_from_src(
        (
            "chunk_corpus_delta",
            "build_index_from_parent",
            "_resolution_label",
            "_counter_values",
            "delta_fallbacks",
            "scatter_workers",
            "IngestConfig",
            "verify_index_checksums",
            "max_delta_fraction",
        )
    )


def test_stores_are_values_and_ingest_is_the_one_write_path():
    """Conformance: nothing writes to a store after it is built."""
    import inspect

    from repro.embeddings import HashingEmbedding
    from repro.vectorstore import VectorStore

    _assert_absent_from_src(
        (
            "apply_documents",
            "delta_from_added_documents",
            "fork_store",
            "_add_documents",
            "_deleted",
            "stale_digest",
            "live-store",
            # One store shape, one first pass: the index hierarchy and the
            # ablation arms (now benchmarks/arms.py) are not in src/.
            "VectorIndex",
            "BruteForceIndex",
            "IVFIndex",
            "mmr_search",
            "max_marginal_relevance",
            "DatabaseCatalog",
            "CatalogRetriever",
            "BM25Retriever",
            "HybridRetriever",
            "reciprocal_rank_fusion",
            "RerankingRetriever",
            "cosine_similarity_matrix",
            "RetrievalError",
        )
    )
    for path in sorted((_src_root() / "vectorstore").rglob("*.py")):
        assert not re.search(r"def (fork|delete)\b", path.read_text(encoding="utf-8")), path
    assert "index" not in inspect.signature(VectorStore.__init__).parameters
    store = VectorStore.from_documents(
        [Document(text="gmres restart", metadata={"source": "a"})], HashingEmbedding(dim=8)
    )
    assert not hasattr(store, "index")
    assert store.matrix.flags.writeable is False
    with pytest.raises(ValueError):
        store.matrix[0, 0] = 1.0


def _delta(previous, successor) -> CorpusDelta:
    return diff_chunks(
        previous.chunks,
        successor.chunks,
        parent_digest=previous.digest,
        target_digest=successor.digest,
    )


class TestEpochSwap:
    def test_same_digest_swap_is_noop(self, bundle, fresh_cache):
        service = open_service(_cfg(), bundle=bundle)
        engine = service.engine
        service.answer("What does KSPGMRES do?")
        sizes = engine.cache_sizes()
        same = engine.artifact
        assert engine.swap_artifact(same, _delta(same, same)) is None
        assert engine.epoch == 0
        assert engine.cache_sizes() == sizes

    def test_swap_advances_epoch_and_serves_new_artifact(
        self, bundle, fresh_cache
    ):
        cfg = _cfg()
        engine = open_engine(cfg, bundle=bundle)
        old_store = engine.pipeline().retriever.store
        successor = get_or_build_index(_edited(bundle), cfg)
        published, summary = engine.swap_artifact(successor, _delta(engine.artifact, successor))
        assert summary["invalidated_retrieval"] == 0  # nothing was cached
        assert published is engine.generation and engine.epoch == 1
        assert engine.artifact is successor
        assert engine.pipeline().retriever.store is not old_store
        # Serving still works on the new epoch.
        assert ReproService(engine).answer("What does KSPGMRES do?").answer

    def test_delta_from_another_parent_carries_no_retrieval(self, bundle, fresh_cache):
        # Two ingests diffed from one parent P: A swaps in, then B does
        # with its P→B delta.  A chunk only A holds is in no P→B set, so
        # a carry-forward that trusted the delta would keep A's entry.
        cfg = _cfg()
        service = ReproService(open_engine(cfg, bundle=bundle))
        engine = service.engine
        parent = engine.artifact
        a = get_or_build_index(_added(bundle), cfg)
        b_bundle = _edited(bundle)
        b = get_or_build_index(b_bundle, cfg)
        engine.swap_artifact(a, _delta(parent, a))
        question = "What is a new Krylov method?"
        a_only = {c.doc_id for c in a.chunks} - {c.doc_id for c in b.chunks}
        warm = service.answer(question, mode="rag")
        assert a_only & {c.doc_id for c in warm.candidates}
        _published, summary = engine.swap_artifact(b, _delta(parent, b))
        assert summary["retained_retrieval"] == 0
        b_ids = {c.doc_id for c in b.chunks}
        for _key, hits in engine.generation.retrieval.items():
            assert {hit.doc_id for hit in hits} <= b_ids
        got = service.answer(question, mode="rag")
        clear_index_cache()
        want = open_service(cfg, bundle=b_bundle).answer(question, mode="rag")
        assert [(c.doc_id, c.score) for c in got.candidates] == [
            (c.doc_id, c.score) for c in want.candidates
        ]
        assert got.answer == want.answer


class TestIngestCorpus:
    def test_noop_ingest_changes_nothing(self, bundle, fresh_cache):
        reg = MetricsRegistry()
        with use_registry(reg):
            service = open_service(_cfg(), bundle=bundle)
            engine = service.engine
            service.answer("What does KSPGMRES do?")
            sizes = engine.cache_sizes()
            report = ingest_corpus(engine, bundle)
        assert report.noop and not report.swapped
        assert report.resolution == "noop"
        assert report.digest == report.previous_digest == engine.artifact.digest
        assert engine.epoch == 0
        assert engine.cache_sizes() == sizes
        assert reg.counter("repro.ingest.noops").value == 1

    def test_edit_resolves_via_delta_and_swaps(self, bundle, fresh_cache):
        reg = MetricsRegistry()
        with use_registry(reg):
            service = open_service(_cfg(), bundle=bundle)
            engine = service.engine
            answer_before = service.answer("What does KSPGMRES do?").answer
            report = ingest_corpus(engine, _edited(bundle))
            answer_after = service.answer("What does KSPGMRES do?").answer
        assert not report.noop and report.swapped
        assert report.resolution == "delta"
        assert report.delta["embedded"] < report.delta["total"] / 10
        assert engine.epoch == 1
        assert reg.counter("repro.ingest.epoch_swaps").value == 1
        # The FAQ edit cannot change a KSPGMRES answer.
        assert answer_after == answer_before

    def test_scoped_invalidation_retains_unaffected_entries(
        self, bundle, fresh_cache
    ):
        service = open_service(_cfg(), bundle=bundle)
        engine = service.engine
        service.answer("What does KSPGMRES do?")
        report = ingest_corpus(engine, _edited(bundle))
        inv = report.invalidation
        assert inv["scoped"] is True
        # The warm KSPGMRES retrieval survives an FAQ edit; its answer
        # entry is re-keyed by digest and therefore reclaimed.
        assert inv["retained_retrieval"] == 1
        assert inv["invalidated_retrieval"] == 0
        assert engine.cache_sizes()["retrieval"] == 1

    def test_removed_source_evicts_dependent_retrievals(self, bundle, fresh_cache):
        service = open_service(_cfg(), bundle=bundle)
        engine = service.engine
        service.answer("What does KSPGMRES do?")
        assert engine.cache_sizes()["retrieval"] == 1
        docs = [
            d
            for d in bundle.documents
            if d.metadata.get("source") != "manualpages/KSPGMRES.md"
        ]
        gutted = CorpusBundle(
            registry=bundle.registry,
            documents=docs,
            manual_page_names={
                k: v
                for k, v in bundle.manual_page_names.items()
                if k != "KSPGMRES"
            },
        )
        report = ingest_corpus(engine, gutted)
        assert report.swapped
        assert report.invalidation["invalidated_retrieval"] == 1
        assert engine.cache_sizes()["retrieval"] == 0

    def test_carry_forward_keeps_survivors_in_recency_order(self, bundle, fresh_cache):
        service = open_service(_cfg(), bundle=bundle)
        engine = service.engine
        first, gone, last = "What is DMDA?", "What does KSPGMRES do?", "How do I view a matrix?"
        for question in (first, gone, last):
            service.answer(question)
        old = engine.generation
        report = ingest_corpus(
            engine,
            _with_documents(
                bundle,
                [
                    d
                    for d in bundle.documents
                    if d.metadata.get("source") != "manualpages/KSPGMRES.md"
                ],
            ),
        )
        assert report.invalidation["invalidated_retrieval"] == 1
        assert [key[1] for key, _hits in engine.generation.retrieval.items()] == [first, last]
        # The previous generation is a value: the carry-forward copied it.
        assert [key[1] for key, _hits in old.retrieval.items()] == [first, gone, last]

    def test_sharded_engine_ingest(self, bundle, fresh_cache):
        reg = MetricsRegistry()
        with use_registry(reg):
            service = open_service(_cfg(shards=2), bundle=bundle)
            engine = service.engine
            report = ingest_corpus(engine, _edited(bundle))
        assert report.swapped and engine.epoch == 1
        assert engine.shard_summary()["epoch"] == 1
        # One edited source dirties one shard; that shard delta-builds.
        assert reg.counter("repro.shard.delta_builds").value == 1
        assert reg.counter("repro.ingest.delta_builds").value == 1
        assert service.answer("What does KSPGMRES do?").answer

    @pytest.mark.parametrize(
        ("embedding", "shards", "replicas"),
        [("petsc-embed-large", 1, 1), (EMBED, 4, 2)],
        ids=["large-1x1", "small-4x2"],
    )
    def test_an_ingest_embeds_each_chunk_once(
        self, bundle, fresh_cache, monkeypatch, embedding, shards, replicas
    ):
        """The build embeds the delta's chunks; the swap's carry-forward
        reads their rows from the new artifact instead of embedding them
        a second time."""
        cfg = _cfg(shards, replicas=replicas, embedding=embedding)
        service = open_service(cfg, bundle=bundle)
        for question in krylov_benchmark()[:8]:
            service.answer(question.text)
        texts: list[str] = []
        embed_documents = EmbeddingModel.embed_documents

        def spy(model, batch):
            texts.extend(batch)
            return embed_documents(model, batch)

        monkeypatch.setattr(EmbeddingModel, "embed_documents", spy)
        revised = _revision_note(bundle, "manualpages/KSPGMRES.md", 1)
        report = ingest_corpus(service.engine, revised)
        assert report.resolution == "delta"
        # A retained entry with chunks embedded was tested against their
        # vectors: the carry-forward needed them.
        assert report.invalidation["retained_retrieval"] > 0
        assert len(texts) == report.delta["embedded"] > 0

    def test_delta_and_scratch_engines_answer_identically(
        self, bundle, fresh_cache
    ):
        cfg = _cfg()
        edited = _edited(bundle)
        service = open_service(cfg, bundle=bundle)
        engine = service.engine
        report = ingest_corpus(engine, edited)
        assert report.resolution == "delta"
        swapped_answer = service.answer("What does KSPCG do?").answer

        clear_index_cache()
        scratch = open_service(cfg, bundle=edited)
        assert scratch.engine.artifact.digest == report.digest
        assert scratch.answer("What does KSPCG do?").answer == swapped_answer


def _revision_note(bundle, source: str, step: int) -> CorpusBundle:
    """The ledger's edit: (re)write the revision note ending one page."""
    docs = list(bundle.documents)
    pages = dict(bundle.manual_page_names)
    slot = next(i for i, d in enumerate(docs) if d.metadata.get("source") == source)
    victim = docs[slot]
    base = victim.text.split("\n\nRevision note")[0]
    docs[slot] = edited = Document(
        text=f"{base}\n\nRevision note r{step}: wording revised.", metadata=dict(victim.metadata)
    )
    for name, page in pages.items():
        if page is victim:
            pages[name] = edited
    return CorpusBundle(registry=bundle.registry, documents=docs, manual_page_names=pages)


def _corpus_texts(artifact) -> set[str]:
    return {chunk.text for chunk in artifact.chunks} | {
        page.text for page in artifact.manual_pages.values()
    }


class TestSwapLeavesNoStaleCacheEntry:
    """After a swap under the corpus-fitted model, with every cache left
    warm, the engine answers like one opened fresh on the final corpus:
    an edit moves the IDF of a few terms, and with it query vectors and
    the vectors of chunks the edit never touched."""

    PAGES = ("KSPGMRES", "KSPCG", "KSPBCGS", "KSPGMRES", "PCJACOBI")
    POOL_EXTRA = (
        "Which manual pages carry a revision note?",
        "Was the wording of the GMRES restart note revised?",
        "What changed in revision note r1?",
    )

    @pytest.mark.parametrize(("shards", "replicas"), [(1, 1), (4, 2)], ids=["1x1", "4x2"])
    def test_warm_engine_equals_fresh_engine(self, bundle, fresh_cache, shards, replicas):
        cfg = ReproConfig(
            iterations_per_token=0,
            sharding=ShardingConfig(num_shards=shards),
            replication=ReplicationConfig(replicas=replicas),
        )
        assert cfg.retrieval.embedding_model == "petsc-embed-large"
        pool = [q.text for q in krylov_benchmark()] + list(self.POOL_EXTRA)
        service = open_service(cfg, bundle=bundle)
        revised = bundle
        for step, page in enumerate(self.PAGES, start=1):
            for question in pool:
                service.answer(question)
            revised = _revision_note(revised, f"manualpages/{page}.md", step)
            report = ingest_corpus(service.engine, revised)
            assert report.resolution == "delta"
        assert report.delta["reembedded"] > 0
        retained = report.invalidation["retained_retrieval"]
        assert 0 < retained < len(pool)  # scoped: neither blunt nor a no-op
        warm = [service.answer(question) for question in pool]
        clear_index_cache()
        fresh = open_service(cfg, bundle=revised)
        assert fresh.engine.artifact.digest == service.engine.artifact.digest
        for question, got in zip(pool, warm):
            want = fresh.answer(question)
            assert [(c.doc_id, c.score) for c in got.candidates] == [
                (c.doc_id, c.score) for c in want.candidates
            ], question
            assert got.answer == want.answer, question

    @pytest.mark.parametrize("embedding", ["petsc-embed-large", EMBED])
    @pytest.mark.parametrize(("shards", "replicas"), [(1, 1), (4, 2)], ids=["1x1", "4x2"])
    def test_a_swap_re_analyses_only_the_text_it_wrote(
        self, bundle, fresh_cache, shards, replicas, embedding
    ):
        """The new generation's reranker, model and keyword retriever read
        the process-wide text memos (DESIGN §15): after a one-document
        edit they analyse the texts the edit wrote and nothing else, and
        answer like a fresh engine on the edited corpus."""
        cfg = _cfg(shards, replicas=replicas, embedding=embedding)
        questions = [q.text for q in krylov_benchmark()]
        service = open_service(cfg, bundle=bundle, registry=MetricsRegistry())
        engine = service.engine
        old = _corpus_texts(engine.artifact)
        # Every corpus text analysed once, as a long-running service's are.
        engine.pipeline().reranker.score_pairs("", sorted(old))
        for question in questions:
            service.answer(question)
        # A note no other test writes, so the texts it makes are new to the process.
        revised = _revision_note(
            bundle, "manualpages/KSPGMRES.md", f"{shards}x{replicas}-{embedding}"
        )
        before = _memo_misses()
        assert ingest_corpus(engine, revised).swapped
        got = [service.answer(question) for question in questions]
        after = _memo_misses()

        new = _corpus_texts(engine.artifact) - old
        new_chunks = new & {chunk.text for chunk in engine.artifact.chunks}
        new_pages = new & {page.text for page in engine.artifact.manual_pages.values()}
        scored = new & {c.document.text for result in got for c in result.candidates}
        assert new_chunks and new_pages
        assert {name: after[name] - before[name] for name in after} == {
            "stems": len(new_chunks | scored),
            "features": len(scored),
            "option keys": len(new_pages),
        }

        clear_index_cache()
        fresh = open_service(cfg, bundle=revised, registry=MetricsRegistry())
        assert fresh.engine.artifact.digest == engine.artifact.digest
        for question, result in zip(questions, got):
            want = fresh.answer(question)
            for attr in ("candidates", "contexts"):
                assert [(c.doc_id, c.score) for c in getattr(result, attr)] == [
                    (c.doc_id, c.score) for c in getattr(want, attr)
                ], question
            assert result.answer == want.answer, question

    def test_query_holding_a_term_that_left_the_vocabulary(self, bundle, fresh_cache):
        service = open_service(ReproConfig(iterations_per_token=0), bundle=bundle)
        engine = service.engine
        page = "manualpages/KSPGMRES.md"
        first = _revision_note(bundle, page, 1)
        ingest_corpus(engine, first)
        leaving, staying = "What changed in revision note r1?", "What is DMDA?"
        for question in (leaving, staying):
            service.answer(question)
        kept = engine.generation.embeddings.peek(staying)
        assert engine.generation.embeddings.peek(leaving) is not None and kept is not None
        # ``r1`` becomes ``r2``: same chunk count, ``r1`` leaves the vocabulary.
        report = ingest_corpus(engine, _revision_note(first, page, 2))
        assert report.resolution == "delta"
        assert "r1" not in engine.artifact.embedding._idf
        assert engine.generation.embeddings.peek(leaving) is None
        assert engine.generation.embeddings.peek(staying) is kept
        assert report.invalidation["invalidated_embeddings"] == 1

    def test_changed_chunk_count_drops_everything(self, bundle, fresh_cache):
        service = open_service(ReproConfig(iterations_per_token=0), bundle=bundle)
        engine = service.engine
        for question in ("What does KSPGMRES do?", "How do I set the KSP tolerance?"):
            service.answer(question)
        report = ingest_corpus(engine, _added(bundle))
        assert report.resolution == "full"
        assert report.delta["reembedded"] == report.delta["unchanged"]
        assert engine.cache_sizes() == {"answer": 0, "retrieval": 0, "embedding": 0}


class TestSwapDuringBatch:
    """A batch in flight across an ``ingest_corpus`` swap is answered from
    the epoch it opened on and publishes nothing to the live caches: its
    deferred commit lands in the cache generation it read from, which no
    new request reads (DESIGN §14.3)."""

    QUESTION = "What does KSPBurb do?"
    EMPTY = {"answer": 0, "retrieval": 0, "embedding": 0}
    ONE_EACH = {"answer": 1, "retrieval": 1, "embedding": 1}

    @staticmethod
    def _service(bundle, shards, replicas, embedding=EMBED):
        cfg = _cfg(shards, replicas=replicas, embedding=embedding)
        return open_service(cfg, bundle=bundle, registry=MetricsRegistry())

    @staticmethod
    def _revised(bundle):
        # Every paragraph of the page the question retrieves from changes.
        return _rewrite_source(
            bundle, "manual/ksp.md", lambda text: text.replace("\n\n", "\n\n(rev 2) ")
        )

    @pytest.mark.parametrize(("shards", "replicas"), [(1, 1), (4, 2)], ids=["1x1", "4x2"])
    def test_batch_committing_after_a_swap_publishes_nothing(
        self, bundle, fresh_cache, monkeypatch, shards, replicas
    ):
        service = self._service(bundle, shards, replicas)
        engine = service.engine
        old = engine.generation
        old_ids = {chunk.doc_id for chunk in engine.artifact.chunks}
        revised = self._revised(bundle)
        # Hold the batch's one job between retrieval and its commit.
        chat = engine.pipeline("rag").chat_model
        complete = chat.complete
        entered, release = threading.Event(), threading.Event()

        def gated(*args, **kwargs):
            entered.set()
            assert release.wait(30)
            return complete(*args, **kwargs)

        monkeypatch.setattr(chat, "complete", gated)
        out = {}
        worker = threading.Thread(
            target=lambda: out.update(
                batch=service.answer_many([self.QUESTION], mode="rag", workers=1)
            )
        )
        worker.start()
        try:
            assert entered.wait(30)
            report = ingest_corpus(engine, revised)
        finally:
            release.set()
            worker.join(30)
        assert not worker.is_alive()
        assert report.swapped and report.invalidation["invalidated_retrieval"] == 0

        (item,) = out["batch"].items
        assert item.answered and not item.error
        assert item.result.contexts
        assert {c.doc_id for c in item.result.contexts} <= old_ids  # one epoch: the old
        # The late commit landed in the generation the batch read from.
        assert out["batch"].cache_sizes == old.cache_sizes() == self.ONE_EACH
        assert engine.generation is not old and engine.cache_sizes() == self.EMPTY

        live_ids = {chunk.doc_id for chunk in engine.artifact.chunks}
        got = service.answer(self.QUESTION, mode="rag")
        assert {c.doc_id for c in got.contexts} <= live_ids
        clear_index_cache()
        want = self._service(revised, shards, replicas).answer(self.QUESTION, mode="rag")
        assert [(c.doc_id, c.score) for c in got.contexts] == [
            (c.doc_id, c.score) for c in want.contexts
        ]
        assert got.answer == want.answer


class TestSwapDuringAnswer:
    """The same window for one synchronous ``answer``: a request an
    ingest overtakes is answered from the epoch it opened on — it reads
    nothing a new-epoch request wrote — and publishes nothing to the live
    caches: neither the answer nor the retrieval and query-embedding
    entries beside it."""

    QUESTION = TestSwapDuringBatch.QUESTION

    @classmethod
    def _overtaken(cls, monkeypatch, service, retriever, *, before: bool, overtake):
        """Answer the question on a thread, holding it inside
        ``retriever.retrieve`` — before it delegates (``before``) or once
        it has its hits — while ``overtake()`` runs on this one.  Returns
        the held answer and what ``overtake`` returned."""
        retrieve = retriever.retrieve
        entered, release = threading.Event(), threading.Event()

        def gated(*args, **kwargs):
            if before:
                entered.set()
                assert release.wait(30)
            hits = retrieve(*args, **kwargs)
            if not before:
                entered.set()
                assert release.wait(30)
            return hits

        monkeypatch.setattr(retriever, "retrieve", gated)
        out = {}
        worker = threading.Thread(
            target=lambda: out.update(result=service.answer(cls.QUESTION, mode="rag"))
        )
        worker.start()
        try:
            assert entered.wait(30)
            overtook = overtake()
        finally:
            release.set()
            worker.join(30)
        assert not worker.is_alive()
        return out["result"], overtook

    @pytest.mark.parametrize(("shards", "replicas"), [(1, 1), (4, 2)], ids=["1x1", "4x2"])
    def test_answer_returning_after_a_swap_publishes_nothing(
        self, bundle, fresh_cache, monkeypatch, shards, replicas
    ):
        service = TestSwapDuringBatch._service(bundle, shards, replicas)
        engine = service.engine
        old = engine.generation
        old_ids = {chunk.doc_id for chunk in engine.artifact.chunks}
        revised = TestSwapDuringBatch._revised(bundle)
        # Hold the vector retriever under the caching wrapper once it has
        # its hits (query embedded, shards searched) and before it returns.
        in_flight, report = self._overtaken(
            monkeypatch,
            service,
            engine.pipeline("rag").retriever.inner,
            before=False,
            overtake=lambda: ingest_corpus(engine, revised),
        )
        assert report.swapped

        assert in_flight.contexts
        assert {c.doc_id for c in in_flight.contexts} <= old_ids  # one epoch: the old
        # The late commit landed in the generation the answer read from.
        assert old.cache_sizes() == TestSwapDuringBatch.ONE_EACH
        assert engine.generation is not old
        assert engine.cache_sizes() == TestSwapDuringBatch.EMPTY

        live_ids = {chunk.doc_id for chunk in engine.artifact.chunks}
        got = service.answer(self.QUESTION, mode="rag")
        assert {c.doc_id for c in got.contexts} <= live_ids
        clear_index_cache()
        want = TestSwapDuringBatch._service(revised, shards, replicas).answer(
            self.QUESTION, mode="rag"
        )
        assert [(c.doc_id, c.score) for c in got.contexts] == [
            (c.doc_id, c.score) for c in want.contexts
        ]
        assert got.answer == want.answer

    @pytest.mark.parametrize("embedding", ["petsc-embed-small", "petsc-embed-large"])
    @pytest.mark.parametrize(("shards", "replicas"), [(1, 1), (4, 2)], ids=["1x1", "4x2"])
    def test_old_epoch_request_never_reads_a_new_epoch_entry(
        self, bundle, fresh_cache, monkeypatch, shards, replicas, embedding
    ):
        service = TestSwapDuringBatch._service(bundle, shards, replicas, embedding)
        engine = service.engine
        old_artifact = engine.artifact
        old_ids = {chunk.doc_id for chunk in old_artifact.chunks}

        def swap_then_ask():
            report = ingest_corpus(engine, TestSwapDuringBatch._revised(bundle))
            # A new-epoch request commits its retrieval and query embedding.
            return report, service.answer(self.QUESTION, mode="rag")

        # Hold the old-epoch request at its retrieval-cache read.
        held, (report, live) = self._overtaken(
            monkeypatch,
            service,
            engine.pipeline("rag").retriever,
            before=True,
            overtake=swap_then_ask,
        )
        assert report.swapped
        assert held.contexts
        assert {c.doc_id for c in held.contexts} <= old_ids  # one epoch: the old
        # Under the corpus-fitted model the ids may stay and the scores
        # move, so compare with the old epoch served alone.
        want = ReproService(
            QueryEngine(old_artifact, engine.config, registry=MetricsRegistry())
        ).answer(self.QUESTION, mode="rag")

        def scored(result):
            return [(c.doc_id, c.score) for c in result.contexts]

        assert scored(live) != scored(want)  # a read of the new epoch's entry would show
        assert scored(held) == scored(want)
        assert held.answer == want.answer


class TestHistoryFeedEqualsFromScratch:
    """A history feed is an ingest of ``bundle + history/<id>`` sources:
    the engine ends on the artifact a from-scratch build of that bundle
    names, so the fed Q/A serves every mode, moves the digest and the
    epoch, survives later ingests and resolves from the disk cache."""

    QUESTION = "How do I change the relative tolerance for a KSP solve?"
    QUERY = "change the relative tolerance for a KSP solve"

    @classmethod
    def _workflow(cls, cfg, bundle, store=None):
        from repro.api import open_workflow
        from repro.history import ScoreRecord

        workflow = open_workflow(cfg, bundle=bundle, store=store)
        if store is None:
            asked = workflow.ask(cls.QUESTION)
            workflow.store.add_score(asked.interaction_id, ScoreRecord(scorer="dev", score=4))
        return workflow

    @classmethod
    def _history_hits(cls, workflow, mode):
        store = workflow.service.pipeline_for(mode).retriever.store
        return store.similarity_search(cls.QUERY, k=5, where={"doc_type": "history"})

    @pytest.mark.parametrize("embedding", ["petsc-embed-large", "petsc-embed-small"])
    @pytest.mark.parametrize(("shards", "replicas"), [(1, 1), (4, 2)], ids=["1x1", "4x2"])
    def test_feed_is_an_ingest(
        self, bundle, fresh_cache, tmp_path, shards, replicas, embedding
    ):
        cfg = _cfg(shards, replicas=replicas, embedding=embedding, cache_dir=str(tmp_path))
        workflow = self._workflow(cfg, bundle)
        engine = workflow.service.engine
        for mode in ("rag", "rag+rerank"):
            assert not self._history_hits(workflow, mode)
        before = engine.artifact.digest

        assert workflow.feed_history_into_rag() == 1
        assert engine.epoch == 1 and engine.artifact.digest != before
        assert len(workflow.bundle.documents) == len(bundle.documents) + 1
        # The corpus is the engine's, not a mode's.
        fed = {m: self._history_hits(workflow, m) for m in ("rag", "rag+rerank")}
        assert fed["rag"] and [h.doc_id for h in fed["rag"]] == [
            h.doc_id for h in fed["rag+rerank"]
        ]
        assert fed["rag"][0].metadata["source"].startswith("history/")
        assert {h.doc_id for h in fed["rag"]} <= {c.doc_id for c in engine.artifact.chunks}

        # A second feed has nothing new: a strict no-op.
        sizes = engine.cache_sizes()
        assert workflow.feed_history_into_rag() == 0
        assert (engine.epoch, engine.cache_sizes()) == (1, sizes)
        served = engine.artifact
        assert served.digest == plan_shards(workflow.bundle, cfg).composite

        # An unrelated ingest of the workflow's corpus keeps what was fed.
        report = ingest_corpus(engine, _edited(workflow.bundle))
        assert report.swapped and engine.epoch == 2
        assert [h.doc_id for h in self._history_hits(workflow, "rag")] == [
            h.doc_id for h in fed["rag"]
        ]

        # The served artifact is the one a from-scratch build names.
        clear_index_cache()
        scratch = get_or_build_index(workflow.bundle, _cfg(shards, embedding=embedding))
        _assert_same_artifact(served, scratch)

        # A second process over the same interaction store and disk
        # cache re-feeds without building anything.
        clear_index_cache()
        registry = MetricsRegistry()
        with use_registry(registry):
            again = self._workflow(cfg, bundle, store=workflow.store)
            assert again.feed_history_into_rag() == 1
        assert again.service.engine.artifact.digest == served.digest
        assert self._history_hits(again, "rag")
        counters = registry.snapshot()["counters"]
        assert counters.get("repro.shard.builds", 0) == 0
        assert counters.get("repro.shard.delta_builds", 0) == 0
        assert counters["repro.shard.disk_hits"] >= shards


class TestOverlayTree:
    def test_unedited_tree_is_digest_identical(self, bundle, tmp_path):
        from repro.corpus.builder import CorpusBuilder
        from repro.index.artifact import corpus_digest

        root = CorpusBuilder().write_tree(tmp_path / "docs", bundle)
        revised = overlay_tree(bundle, root)
        assert corpus_digest(revised) == corpus_digest(bundle)

    def test_edit_and_new_file_overlay(self, bundle, tmp_path):
        from repro.corpus.builder import CorpusBuilder

        root = CorpusBuilder().write_tree(tmp_path / "docs", bundle)
        faq = root / "faq.md"
        faq.write_text(faq.read_text() + "\nNew FAQ entry.\n", encoding="utf-8")
        extra = root / "manual" / "zz-new-chapter.md"
        extra.write_text("# New Chapter\n\nFresh content.\n", encoding="utf-8")
        revised = overlay_tree(bundle, root)
        by_source = {d.metadata["source"]: d for d in revised.documents}
        assert by_source["faq.md"].text.endswith("New FAQ entry.\n")
        assert by_source["manual/zz-new-chapter.md"].metadata["doc_type"] == (
            "manual_chapter"
        )
        assert len(revised.documents) == len(bundle.documents) + 1

    def test_missing_tree_rejected(self, bundle, tmp_path):
        from repro.errors import CorpusError

        with pytest.raises(CorpusError):
            overlay_tree(bundle, tmp_path / "nope")


class TestCliIngest:
    def test_noop_ingest(self, capsys, fresh_cache):
        from repro.cli import main

        rc = main(["--fast", "--embedding", EMBED, "ingest"])
        assert rc == 0
        out = capsys.readouterr()
        payload = json.loads(out.out)
        assert payload["noop"] is True
        assert "no-op" in out.err

    def test_edited_tree_ingest(self, capsys, tmp_path, fresh_cache):
        from repro.cli import main

        docs = tmp_path / "docs"
        assert main(["corpus", "--out", str(docs)]) == 0
        capsys.readouterr()
        faq = docs / "faq.md"
        faq.write_text(faq.read_text() + "\nRevised entry.\n", encoding="utf-8")
        rc = main([
            "--fast", "--embedding", EMBED, "ingest",
            "--docs", str(docs), "--warm", "1",
        ])
        assert rc == 0
        out = capsys.readouterr()
        payload = json.loads(out.out)
        assert payload["noop"] is False
        assert payload["resolution"] == "delta"
        assert payload["epoch"] == 1
        assert 0 < payload["delta"]["embedded"] < payload["delta"]["total"]
        assert "embedded" in out.err

"""E14 — unified ingestion lifecycle: delta speed, exactness, no-op stability.

Three claims, each load-bearing for the one-write-path refactor
(ISSUE 10):

1. **Minimal re-embedding** — after a one-document edit, the delta lane
   re-embeds only that document's chunks.  The builder counters prove
   it: ``repro.ingest.chunks_embedded`` is a small fraction of the
   corpus, ``chunks_reused`` covers the rest, and ``repro.index.builds``
   does not move (a delta build is not a full build).
2. **Delta speed** — resolving the successor artifact through
   ``ingest_corpus`` (delta-from-parent) beats a from-scratch full build
   of the same edited corpus by >= 3x wall-clock.
3. **Digest exactness** — the delta-built artifact is *byte-identical*
   to the from-scratch build (same artifact digest, same vector matrix),
   and an engine swapped onto it answers the benchmark with the same
   answers digest as an engine built from scratch.  A no-op ingest
   (unchanged corpus) leaves the serving digest untouched and produces
   a byte-identical report on every run.

Results land in ``BENCH_ingest.json`` at the repo root; the ``digests``
block is what CI's two-run equality gate compares (timings are
wall-clock and may vary, the digests may not).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.api import open_engine
from repro.config import ReproConfig, RetrievalConfig
from repro.corpus.builder import CorpusBundle
from repro.documents import Document
from repro.evaluation.benchmark import krylov_benchmark
from repro.index import clear_index_cache, get_or_build_index
from repro.ingest import ingest_corpus
from repro.observability import MetricsRegistry, use_registry

_OUT = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"
SEED = 11
QUESTIONS = 12
#: Corpus-free hashing model: the delta lane's precondition.
EMBEDDING = "petsc-embed-small"
SPEEDUP_FLOOR = 3.0
#: The one-document edit may touch at most this fraction of the corpus.
EMBED_FRACTION_CEILING = 0.1


def _cfg() -> ReproConfig:
    return ReproConfig(
        iterations_per_token=0,
        retrieval=RetrievalConfig(embedding_model=EMBEDDING),
    )


def _questions() -> list[str]:
    return [q.text for q in krylov_benchmark()[:QUESTIONS]]


def _edited(bundle) -> CorpusBundle:
    docs = list(bundle.documents)
    victim = docs[0]
    docs[0] = Document(
        text=victim.text + "\n\nNote: revised wording for the ingest bench.",
        metadata=dict(victim.metadata),
    )
    return CorpusBundle(
        registry=bundle.registry,
        documents=docs,
        manual_page_names=dict(bundle.manual_page_names),
    )


def test_ingest_delta_speed_and_exactness(bundle):
    cfg = _cfg()
    edited = _edited(bundle)

    # -- from-scratch reference: full build over the edited corpus.
    clear_index_cache()
    reg_full = MetricsRegistry()
    with use_registry(reg_full):
        t0 = time.perf_counter()
        scratch = get_or_build_index(edited, cfg)
        full_seconds = time.perf_counter() - t0
    assert reg_full.counter("repro.index.builds").value == 1
    total_chunks = len(scratch.chunks)

    # -- the delta lane: parent build (untimed), then the lifecycle.
    clear_index_cache()
    reg = MetricsRegistry()
    with use_registry(reg):
        engine = open_engine(cfg, bundle=bundle)
        warm_answers = engine.answer_many(_questions(), seed=SEED)
        builds_before = reg.counter("repro.index.builds").value
        t0 = time.perf_counter()
        report = ingest_corpus(engine, edited)
        delta_seconds = time.perf_counter() - t0
        swapped_batch = engine.answer_many(_questions(), seed=SEED)
    assert report.swapped and report.resolution == "delta"
    assert engine.artifact.digest == scratch.digest

    # Claim 1: counters prove only the edited document re-embedded.
    embedded = reg.counter("repro.ingest.chunks_embedded").value
    reused = reg.counter("repro.ingest.chunks_reused").value
    assert embedded + reused == total_chunks
    assert 0 < embedded <= EMBED_FRACTION_CEILING * total_chunks, (
        f"one edited document re-embedded {embedded} of {total_chunks} chunks"
    )
    assert reg.counter("repro.index.builds").value == builds_before
    assert reg.counter("repro.ingest.delta_builds").value == 1

    # Claim 2: the delta lane beats the full rebuild by >= 3x.
    speedup = full_seconds / delta_seconds
    assert speedup >= SPEEDUP_FLOOR, (
        f"delta ingest {delta_seconds:.3f}s is only {speedup:.2f}x faster "
        f"than a full rebuild {full_seconds:.3f}s (need >= {SPEEDUP_FLOOR}x)"
    )

    # Claim 3a: byte-identical artifact, byte-identical answers.
    for served, built in zip(engine.artifact.shards, scratch.shards, strict=True):
        assert np.array_equal(served.store.matrix, built.store.matrix)
    clear_index_cache()
    reg_ref = MetricsRegistry()
    scratch_engine = open_engine(cfg, bundle=edited, registry=reg_ref)
    scratch_batch = scratch_engine.answer_many(_questions(), seed=SEED)
    assert swapped_batch.answers_digest() == scratch_batch.answers_digest(), (
        "delta-swapped engine answers differ from a from-scratch build"
    )

    # Claim 3b: a no-op ingest changes no digest and is itself
    # deterministic: two runs produce byte-identical reports.
    noop_1 = ingest_corpus(engine, edited)
    noop_2 = ingest_corpus(engine, edited)
    assert noop_1.noop and noop_2.noop
    assert noop_1.digest == engine.artifact.digest == scratch.digest
    noop_bytes = json.dumps(noop_1.summary(), sort_keys=True)
    assert noop_bytes == json.dumps(noop_2.summary(), sort_keys=True)

    payload = {
        "workload": {
            "questions": QUESTIONS,
            "seed": SEED,
            "embedding": EMBEDDING,
            "total_chunks": total_chunks,
        },
        "delta": {
            "chunks_embedded": embedded,
            "chunks_reused": reused,
            "embed_fraction": round(embedded / total_chunks, 4),
            "full_rebuild_seconds": round(full_seconds, 4),
            "delta_ingest_seconds": round(delta_seconds, 4),
            "speedup": round(speedup, 3),
            "invalidation": report.invalidation,
        },
        "digests": {
            "artifact": scratch.digest,
            "delta": report.delta["delta_digest"],
            "answers_warm": warm_answers.answers_digest(),
            "answers_delta_swapped": swapped_batch.answers_digest(),
            "answers_from_scratch": scratch_batch.answers_digest(),
            "noop_report": noop_bytes,
        },
    }
    _OUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(
        f"\ndelta ingest: embedded {embedded}/{total_chunks} chunks "
        f"({100 * embedded / total_chunks:.1f}%)\n"
        f"full rebuild: {full_seconds:.3f}s | delta ingest: "
        f"{delta_seconds:.3f}s -> {speedup:.2f}x\n"
        f"answers digest: delta-swapped == from-scratch == "
        f"{scratch_batch.answers_digest()[:16]}…"
    )

"""E13 — sharded index: digest parity, scatter invariance, incremental rebuild.

Three claims, each load-bearing for the sharded serving path:

1. **Partition invariance** — answers and span digests are
   byte-identical at the default config (one shard) and across shard
   counts 1/2/4/8.  One embedding model is fitted globally and the
   scatter-gather merge re-sorts by ``(-score, doc_id)``, so how the
   corpus is partitioned can never leak into what the assistant says
   (the constant-named ``scatter`` span carries shard details in
   attributes only, which the structure digest excludes).
2. **Rerun invariance** — at a fixed shard count, the answers, span,
   and metrics digests do not move across two same-seed runs.
3. **Incremental rebuild** — with a corpus-free embedding, editing one
   document dirties exactly one shard: the rebuild builds one shard
   (counter +1, not +N), loads the clean shards from the per-shard
   disk cache (their digests equal the cold build's), and is cheaper
   than a single-shard full rebuild (the ratio is reported, not gated).

Results land in ``BENCH_shards.json`` at the repo root; the ``digests``
block is what CI's two-run equality gate compares (timings are
wall-clock and may vary, the digests may not).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.api import open_service
from repro.config import EngineConfig, ReproConfig, RetrievalConfig, ShardingConfig
from repro.corpus.builder import CorpusBundle
from repro.documents import Document
from repro.evaluation.benchmark import krylov_benchmark
from repro.index import clear_index_cache, get_or_build_index
from repro.observability import MetricsRegistry, use_registry

_OUT = Path(__file__).resolve().parent.parent / "BENCH_shards.json"
SEED = 7
SHARD_SWEEP = (1, 2, 4, 8)
PARITY_SHARDS = 4
REBUILD_SHARDS = 4
#: Corpus-free hashing model: single-dirty-shard incremental rebuilds.
REBUILD_EMBEDDING = "petsc-embed-small"


def _questions() -> list[str]:
    return [q.text for q in krylov_benchmark()]


def _fast_config(**sharding) -> ReproConfig:
    """Zero burn (digests don't depend on it); default sharding unless given."""
    return ReproConfig(iterations_per_token=0, sharding=ShardingConfig(**sharding))


def _batch_digests(config: ReproConfig, bundle) -> dict:
    """Cold-engine batch over the benchmark; its three digests."""
    reg = MetricsRegistry()
    service = open_service(config, bundle=bundle, registry=reg)
    batch = service.answer_many(_questions(), seed=SEED)
    assert batch.answered_count == len(_questions())
    return {
        "answers": batch.answers_digest(),
        "spans": batch.span_digest(),
        "metrics_view": json.dumps(reg.deterministic_view(), sort_keys=True),
    }


def test_shard_count_digest_parity(bundle):
    """Answers never depend on how the index is partitioned."""
    default = _batch_digests(_fast_config(), bundle)
    sweep = {
        n: _batch_digests(_fast_config(num_shards=n), bundle) for n in SHARD_SWEEP
    }

    answers = {default["answers"]} | {s["answers"] for s in sweep.values()}
    assert len(answers) == 1, f"answers digest moved with shard count: {answers}"
    spans = {default["spans"]} | {s["spans"] for s in sweep.values()}
    assert len(spans) == 1, f"span digest moved with shard count: {spans}"

    # A same-seed rerun at a fixed shard count: all three digests
    # (metrics included) must hold still.
    fixed = sweep[PARITY_SHARDS]
    assert _batch_digests(_fast_config(num_shards=PARITY_SHARDS), bundle) == fixed

    _PARITY.update(
        {
            "default": {"answers": default["answers"], "spans": default["spans"]},
            "sharded": {
                str(n): {"answers": s["answers"], "spans": s["spans"]}
                for n, s in sweep.items()
            },
        }
    )


_PARITY: dict = {}


def _edit_one_document(bundle) -> CorpusBundle:
    """A copy of the corpus with exactly one document's text changed."""
    docs = list(bundle.documents)
    victim = docs[0]
    docs[0] = Document(
        text=victim.text + "\n\nNote: revised wording for the rebuild bench.",
        metadata=dict(victim.metadata),
    )
    return CorpusBundle(
        registry=bundle.registry,
        documents=docs,
        manual_page_names=dict(bundle.manual_page_names),
    )


def test_incremental_rebuild_speedup(bundle, tmp_path):
    cfg = ReproConfig(
        iterations_per_token=0,
        retrieval=RetrievalConfig(embedding_model=REBUILD_EMBEDDING),
        sharding=ShardingConfig(num_shards=REBUILD_SHARDS),
        engine=EngineConfig(index_cache_dir=str(tmp_path / "shard-cache")),
    )

    reg = MetricsRegistry()
    with use_registry(reg):
        t0 = time.perf_counter()
        cold = get_or_build_index(bundle, cfg)
        cold_seconds = time.perf_counter() - t0
    assert reg.counter("repro.shard.builds").value == REBUILD_SHARDS
    cold_digests = {s.digest for s in cold.shards}

    # Single-shard full-rebuild reference over the same edited corpus.
    edited = _edit_one_document(bundle)
    clear_index_cache()
    t0 = time.perf_counter()
    get_or_build_index(edited, ReproConfig(
        iterations_per_token=0,
        retrieval=RetrievalConfig(embedding_model=REBUILD_EMBEDDING),
    ))
    single_seconds = time.perf_counter() - t0

    # Incremental sharded rebuild: in-process cache cleared so the three
    # clean shards exercise the disk path, the dirty one rebuilds.
    clear_index_cache()
    reg = MetricsRegistry()
    with use_registry(reg):
        t0 = time.perf_counter()
        warm = get_or_build_index(edited, cfg)
        incr_seconds = time.perf_counter() - t0
    builds = reg.counter("repro.shard.builds").value
    disk_hits = reg.counter("repro.shard.disk_hits").value
    assert builds == 1, f"one edited document rebuilt {builds} shards, want 1"
    assert disk_hits == REBUILD_SHARDS - 1
    assert warm.digest != cold.digest  # the composite tracks the edit
    assert len(cold_digests & {s.digest for s in warm.shards}) == REBUILD_SHARDS - 1

    # The gate is the counter/digest contract above plus "cheaper than
    # rebuilding everything".  The ratio is reported, not asserted: its
    # fixed costs (fsyncs, three disk loads) read 1.5-2.6x by box weather.
    assert incr_seconds < single_seconds, (
        f"incremental rebuild {incr_seconds:.3f}s is no faster than a "
        f"single-shard full rebuild {single_seconds:.3f}s"
    )
    speedup = single_seconds / incr_seconds

    payload = {
        "workload": {
            "questions": len(_questions()),
            "seed": SEED,
            "shard_sweep": list(SHARD_SWEEP),
            "rebuild_shards": REBUILD_SHARDS,
            "rebuild_embedding": REBUILD_EMBEDDING,
        },
        "build": {
            "cold_sharded_seconds": round(cold_seconds, 4),
            "cold_shard_builds": REBUILD_SHARDS,
        },
        "incremental": {
            "single_shard_full_rebuild_seconds": round(single_seconds, 4),
            "incremental_rebuild_seconds": round(incr_seconds, 4),
            "speedup": round(speedup, 3),
            "shard_builds": builds,
            "shard_disk_hits": disk_hits,
        },
        "digests": _PARITY,
    }
    _OUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(
        f"\nparity: answers and span digests identical across default + shards "
        f"{SHARD_SWEEP}\n"
        f"cold sharded build: {cold_seconds:.3f}s ({REBUILD_SHARDS} shards)\n"
        f"single-shard full rebuild: {single_seconds:.3f}s\n"
        f"incremental rebuild:     {incr_seconds:.3f}s "
        f"({builds} shard rebuilt, {disk_hits} disk hits) -> {speedup:.2f}x"
    )

"""Layer probes of the traced run: direct timed calls into single layers.

These do not depend on the workload's traffic, so every traced run
takes them the same way (zero burn, default embedder): the rung ladder
that prices the service chain, scatter/merge, replica routing and
admission; the brute-force scan at 1x and 8x corpus size (the "do we
need ANN" curve); the observability primitives; and the pieces of an
index build.
"""

from __future__ import annotations

import time

from repro.api import open_engine, open_pipeline, open_service
from repro.config import ReproConfig
from repro.corpus.builder import chunk_corpus
from repro.observability import MetricsRegistry, Tracer, stage

from workloads import krylov_questions, long_tail_corpus

LADDER_ROUNDS = 5
SCAN_PASSES = 5
PRIMITIVE_CALLS = 10_000

_SHARDS = {"num_shards": 4, "build_workers": 1}
#: Rung name -> config on top of zero burn; ``None`` is the bare pipeline.
_RUNGS = (
    ("pipeline", None),
    ("service", {}),
    ("4x1", {"sharding": _SHARDS}),
    ("4x2", {"sharding": _SHARDS, "replication": {"replicas": 2}}),
    (
        "4x2+admission",
        {
            "sharding": _SHARDS,
            "replication": {"replicas": 2},
            # A rate no closed loop can reach, so nothing is shed.
            "admission": {"enabled": True, "requests_per_second": 1e9, "burst": 10**9},
        },
    ),
)


def _config(extra: dict) -> ReproConfig:
    return ReproConfig.from_dict({"iterations_per_token": 0, **extra})


def ladder(bundle, questions: list[str], rounds: int) -> dict:
    """CPU time per cold ask on each rung; each delta prices one layer."""
    rungs = []
    for name, extra in _RUNGS:
        if extra is None:
            rungs.append((name, open_pipeline(_config({}), bundle=bundle).answer, None))
        else:
            service = open_service(_config(extra), bundle=bundle, registry=MetricsRegistry())
            rungs.append((name, service.answer, service.invalidate_query_caches))
    # Per rung and question the best CPU time over the rounds, like the
    # ledger's own ask timings; rungs take turns within a round, so
    # drift hits them alike.
    best: dict[str, dict[str, float]] = {name: {} for name, _ in _RUNGS}
    for _ in range(rounds):
        for name, ask, clear in rungs:
            if clear is not None:
                clear()
            for question in questions:
                t0 = time.process_time()
                ask(question)
                cpu = time.process_time() - t0
                if cpu < best[name].get(question, float("inf")):
                    best[name][question] = cpu
    cpu_us = {name: 1e6 * sum(floor.values()) / len(floor) for name, floor in best.items()}
    return {
        "service.ladder_delta_us": (cpu_us["service"] - cpu_us["pipeline"], "us"),
        "vectorstore.scatter_delta_us": (cpu_us["4x1"] - cpu_us["service"], "us"),
        "replication.routing_delta_us": (cpu_us["4x2"] - cpu_us["4x1"], "us"),
        "admission.delta_us": (cpu_us["4x2+admission"] - cpu_us["4x2"], "us"),
    }


def scan(bundle, seed: int, questions: list[str], passes: int) -> dict:
    """Brute-force top-k by vector on the corpus and on its 8x long tail."""
    out = {}
    for label, corpus in (("1x", bundle), ("8x", long_tail_corpus(bundle, seed))):
        artifact = open_engine(_config({}), bundle=corpus, registry=MetricsRegistry()).artifact
        embedding, store = artifact.embedding, artifact.store
        t0 = time.perf_counter()
        vectors = [embedding.embed_query(q) for q in questions]
        embed_us = 1e6 * (time.perf_counter() - t0) / len(questions)
        per_search: list[float] = []
        for _ in range(passes):
            t0 = time.perf_counter()
            for vector in vectors:
                store.similarity_search_by_vector_with_score(vector, k=8)
            per_search.append(1e6 * (time.perf_counter() - t0) / len(vectors))
        out[f"vectorstore.search_us_{label}"] = (min(per_search), "us")
        out[f"vectorstore.chunks_{label}"] = (len(artifact.chunks), "count")
        if label == "1x":
            out["embeddings.embed_query_us"] = (embed_us, "us")
            texts = [chunk.text for chunk in artifact.chunks]
            t0 = time.perf_counter()
            embedding.embed_documents(texts)
            out["embeddings.embed_docs_us_per_chunk"] = (
                1e6 * (time.perf_counter() - t0) / len(texts),
                "us",
            )
    return out


def primitives(calls: int) -> dict:
    """One stage() span open/close and one counter increment, on private sinks."""
    registry = MetricsRegistry()
    tracer = Tracer()
    with tracer.trace("probe"):
        t0 = time.perf_counter()
        for _ in range(calls):
            with stage("probe", metric="repro.bench.probe", tracer=tracer, registry=registry):
                pass
        span_us = 1e6 * (time.perf_counter() - t0) / calls
    t0 = time.perf_counter()
    for _ in range(calls):
        registry.counter("repro.bench.counter").inc()
    counter_us = 1e6 * (time.perf_counter() - t0) / calls
    return {
        "observability.span_us": (span_us, "us"),
        "observability.counter_inc_us": (counter_us, "us"),
    }


def run(bundle, seed: int, quick: bool) -> dict:
    questions = krylov_questions()
    t0 = time.perf_counter()
    chunk_corpus(bundle)
    out = {"documents.split_ms": (1000.0 * (time.perf_counter() - t0), "ms")}
    out.update(ladder(bundle, questions, 1 if quick else LADDER_ROUNDS))
    out.update(scan(bundle, seed, questions, 1 if quick else SCAN_PASSES))
    out.update(primitives(PRIMITIVE_CALLS // 10 if quick else PRIMITIVE_CALLS))
    return out

"""Fixed serving workloads whose digests pin the request lifecycle.

Every workload here is a pure function of (corpus bundle, fixed seeds)
— no wall-clock, no ambient registry leakage — so its digests are
byte-comparable across processes and across refactors.  The capture
script ``scripts/capture_service_golden.py`` freezes the digests into
``tests/fixtures/service_golden.json``; ``tests/test_service.py`` runs
the same functions and asserts equality.  A mismatch means a refactor
changed observable behaviour — which the digest-stability contract
(DESIGN.md §12) forbids.

The fixture was first captured against the *pre-service* engine
(hand-woven ``QueryEngine.answer`` / ``answer_many``) and re-captured
once since, when monolithic serving became the 1-shard case: answers
did not move, default-config spans gained the ``scatter`` span, and
default-config metrics gained ``repro.shard.*`` counters —
``TestGoldenRecapture`` in ``tests/test_service.py`` pins exactly that.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from repro.api import open_engine
from repro.config import ShardingConfig, ReproConfig
from repro.engine import QueryEngine
from repro.evaluation.benchmark import krylov_benchmark
from repro.evaluation.chaos import _run_overload_phase, run_chaos_experiment
from repro.index import get_or_build_index
from repro.observability import MetricsRegistry
from repro.resilience import FaultConfig

#: Mirrors tests/test_engine.py: small, with one duplicate for dedupe.
QUESTIONS = [
    "What does KSPSolve do?",
    "How do I set the KSP tolerance?",
    "What is DMDA?",
    "What does KSPSolve do?",  # duplicate, exercises dedupe + answer cache
    "How do I monitor the residual?",
    "What is the default KSP type?",
]


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode()
    ).hexdigest()


def _fast_config(**kwargs) -> ReproConfig:
    return ReproConfig(iterations_per_token=0, **kwargs)


def ask_workload(bundle) -> dict:
    """Sequential ``answer()`` calls: answers + spans + metric totals.

    The duplicate question is an answer-cache hit, so the workload pins
    the hit/miss counters and the replayed no-llm span shape too.
    """
    cfg = _fast_config()
    artifact = get_or_build_index(bundle, cfg)  # outside the registry
    registry = MetricsRegistry()
    engine = QueryEngine(artifact, cfg, registry=registry)
    answers, spans = [], []
    for question in QUESTIONS:
        result = engine.answer(question, mode="rag")
        answers.append(
            [
                result.question,
                result.answer,
                result.attempts,
                [str(e) for e in result.degraded],
            ]
        )
        spans.append(
            result.trace.structure_digest() if result.trace is not None else ""
        )
    return {
        "answers": _sha(answers),
        "spans": _sha(spans),
        "metrics": registry.digest(),
    }


def batch_workload(bundle, workers: int) -> dict:
    """``answer_many`` from a cold cache at a given worker count."""
    cfg = _fast_config()
    artifact = get_or_build_index(bundle, cfg)
    registry = MetricsRegistry()
    engine = QueryEngine(artifact, cfg, registry=registry)
    batch = engine.answer_many(QUESTIONS, mode="rag", workers=workers, seed=7)
    return {
        "answers": batch.answers_digest(),
        "spans": batch.span_digest(),
        "metrics": registry.digest(),
    }


def sharded_workload(bundle) -> dict:
    """The same batch through a 2-shard scatter-gather engine."""
    cfg = _fast_config(sharding=ShardingConfig(num_shards=2))
    registry = MetricsRegistry()
    engine = open_engine(cfg, bundle=bundle, registry=registry)
    batch = engine.answer_many(QUESTIONS, mode="rag", workers=2, seed=7)
    return {
        "answers": batch.answers_digest(),
        "spans": batch.span_digest(),
        "metrics": registry.digest(),
    }


def chaos_workload(bundle) -> dict:
    """Seeded fault injection over a benchmark slice (cache disabled)."""
    run = run_chaos_experiment(
        bundle,
        _fast_config(),
        seed=3,
        fault_config=FaultConfig(
            transient_rate=0.3, latency_spike_rate=0.1, truncation_rate=0.1
        ),
        mode="rag+rerank",
        questions=krylov_benchmark()[:10],
    )
    return {
        "results": run.results_digest(),
        "schedule": run.schedule_digest,
        "answered": run.answered_count,
    }


def overload_workload(bundle) -> dict:
    """A 4x burst through the admission ladder (sheds, queues, AIMD)."""
    outcome = _run_overload_phase(
        bundle,
        _fast_config(),
        seed=11,
        factor=4,
        questions=krylov_benchmark()[:4],
        mode="rag+rerank",
    )
    return asdict(outcome)


def capture_all(bundle) -> dict:
    """Every golden workload, in a fixed order."""
    return {
        "ask": ask_workload(bundle),
        "batch": {
            str(workers): batch_workload(bundle, workers) for workers in (1, 2, 4)
        },
        "sharded": sharded_workload(bundle),
        "chaos": chaos_workload(bundle),
        "overload": overload_workload(bundle),
    }

"""E14 — replicated shard serving: failover parity and degradation.

Two claims, each load-bearing for the fault-tolerant serving path:

1. **Failover is digest-invisible** — with two replicas per shard and a
   seeded schedule killing every primary probe, answers and span digests
   are byte-identical to the healthy single-copy baseline, and the
   metrics view matches after filtering the ``repro.replica.*`` /
   injected-fault namespaces.  Failover changes *which copy* answered,
   never *what* was answered.
2. **Partial coverage is deterministic** — with a single copy per shard,
   outages degrade answers to the surviving shards; two same-seed runs
   produce byte-identical answers and span digests, and
   ``require_full_coverage`` turns the same outages into typed
   ``PartialResultError`` failures.

Results land in ``BENCH_failover.json`` at the repo root; the
``digests`` block is what CI's two-run equality gate compares (timings
are wall-clock and may vary, the digests may not).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.api import open_service
from repro.config import ReplicationConfig, ReproConfig, ShardingConfig
from repro.evaluation.benchmark import krylov_benchmark
from repro.observability import MetricsRegistry
from repro.resilience import FaultConfig, FaultInjector

_OUT = Path(__file__).resolve().parent.parent / "BENCH_failover.json"
SEED = 7
NUM_SHARDS = 3
QUESTIONS = 12
#: Metric namespaces that legitimately differ between a healthy run and
#: a rescued one: replica bookkeeping and the injector's own tallies.
_VOLATILE_PREFIXES = ("repro.replica.", "repro.resilience.faults_")

_RESULTS: dict = {}


def _questions() -> list[str]:
    return [q.text for q in krylov_benchmark()[:QUESTIONS]]


def _config(replication: ReplicationConfig | None = None) -> ReproConfig:
    kwargs = {"replication": replication} if replication is not None else {}
    return ReproConfig(
        iterations_per_token=0,
        sharding=ShardingConfig(num_shards=NUM_SHARDS),
        **kwargs,
    )


def _scrub(obj):
    if isinstance(obj, dict):
        return {
            k: _scrub(v)
            for k, v in obj.items()
            if not (isinstance(k, str) and k.startswith(_VOLATILE_PREFIXES))
        }
    return obj


def _run(bundle, config: ReproConfig, injector: FaultInjector):
    """One cold engine over the benchmark head; digests + replica stats.

    Every run (the baseline included) carries an injector so the answer
    cache is disabled in all of them — cache-state parity is part of
    what makes the digest comparison meaningful.  Questions are answered
    on one worker: per-site fault counters are unsynchronized, so the
    schedule stays a pure function of the seed.
    """
    reg = MetricsRegistry()
    service = open_service(config, bundle=bundle, fault_injector=injector, registry=reg)
    t0 = time.perf_counter()
    batch = service.answer_many(_questions(), workers=1, seed=SEED)
    seconds = time.perf_counter() - t0
    return {
        "answers": batch.answers_digest(),
        "spans": batch.span_digest(),
        "metrics_view": json.dumps(_scrub(reg.deterministic_view()), sort_keys=True),
        "seconds": seconds,
        "batch": batch,
        "registry": reg,
    }


def _counter(run: dict, name: str) -> int:
    return run["registry"].counter(name).value


def test_failover_digest_parity(bundle):
    """Claim 1: a rescued batch digests identically to a healthy one."""
    baseline = _run(bundle, _config(), FaultInjector(SEED, FaultConfig()))
    failover = _run(
        bundle,
        _config(ReplicationConfig(replicas=2)),
        FaultInjector(SEED, FaultConfig(shard_fault_rate=1.0)),
    )
    assert failover["answers"] == baseline["answers"], "failover changed answers"
    assert failover["spans"] == baseline["spans"], "failover changed span digests"
    assert failover["metrics_view"] == baseline["metrics_view"], (
        "failover leaked into the filtered metrics view"
    )
    failovers = _counter(failover, "repro.replica.failovers")
    assert failovers > 0, "rate-1.0 schedule produced no failovers"
    assert _counter(failover, "repro.shard.partial_queries") == 0
    assert baseline["batch"].answered_count == QUESTIONS
    assert failover["batch"].answered_count == QUESTIONS

    _RESULTS["failover"] = {
        "baseline_seconds": round(baseline["seconds"], 4),
        "failover_seconds": round(failover["seconds"], 4),
        "failovers": failovers,
        "probe_failures": _counter(failover, "repro.replica.probe_failures"),
    }
    _RESULTS.setdefault("digests", {})["baseline"] = {
        "answers": baseline["answers"], "spans": baseline["spans"],
    }
    _RESULTS["digests"]["failover"] = {
        "answers": failover["answers"], "spans": failover["spans"],
    }


def test_partial_coverage_is_deterministic(bundle):
    """Claim 2: single-copy outages degrade deterministically."""
    runs = [
        _run(
            bundle,
            _config(ReplicationConfig(replicas=1)),
            FaultInjector(SEED + 1, FaultConfig(shard_fault_rate=1.0)),
        )
        for _ in range(2)
    ]
    a, b = runs
    assert a["answers"] == b["answers"], "partial coverage is nondeterministic"
    assert a["spans"] == b["spans"], "partial span digests moved across reruns"
    assert a["batch"].partial_count > 0, "rate-1.0 single-copy run stayed full"
    assert a["batch"].min_coverage < 1.0
    assert _counter(a, "repro.shard.partial_queries") > 0

    strict = _run(
        bundle,
        _config(ReplicationConfig(replicas=1, require_full_coverage=True)),
        FaultInjector(SEED + 1, FaultConfig(shard_fault_rate=1.0)),
    )
    failed = [it for it in strict["batch"].items if not it.answered]
    assert failed, "require_full_coverage never surfaced an error"
    assert all("PartialResultError" in it.error for it in failed)

    _RESULTS["partial"] = {
        "seconds": round(a["seconds"], 4),
        "partial_answers": a["batch"].partial_count,
        "min_coverage": round(a["batch"].min_coverage, 6),
        "strict_failures": len(failed),
    }
    _RESULTS["digests"]["partial_rerun"] = {
        "answers": a["answers"], "spans": a["spans"],
    }

    payload = {
        "workload": {
            "questions": QUESTIONS,
            "seed": SEED,
            "num_shards": NUM_SHARDS,
            "replicas": 2,
        },
        "failover": _RESULTS["failover"],
        "partial": _RESULTS["partial"],
        "digests": _RESULTS["digests"],
    }
    _OUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    f, p = _RESULTS["failover"], _RESULTS["partial"]
    print(
        f"\nfailover parity: answers+spans identical to baseline "
        f"({f['failovers']} failovers over {QUESTIONS} questions)\n"
        f"partial mode:    {p['partial_answers']} partial answers, "
        f"min coverage {p['min_coverage']}, "
        f"{p['strict_failures']} strict failures — deterministic across reruns"
    )

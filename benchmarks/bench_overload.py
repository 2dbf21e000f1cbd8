"""E13 — overload protection: goodput and deterministic shedding under burst.

Drives ``QueryEngine.answer_many`` through the admission ladder at 1x,
4x, and 16x the admitted capacity (token-bucket rate × simulated
duration).  At 1x the ladder must be invisible — nothing sheds.  At
16x the engine must shed most of the burst *and still answer everything
it admitted* (goodput ≥ 80% of admitted capacity), every shed carrying a
positive ``retry_after`` hint.  Two same-seed runs must agree byte for
byte on every admit/queue/shed decision and on the metric digests.

Results land in ``BENCH_overload.json`` at the repo root; the
``digests`` block is what CI's two-run equality gate compares.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from repro.config import AdmissionConfig, ReproConfig
from repro.engine import QueryEngine
from repro.evaluation.benchmark import krylov_benchmark
from repro.index import get_or_build_index
from repro.observability import MetricsRegistry, use_registry

_OUT = Path(__file__).resolve().parent.parent / "BENCH_overload.json"
SEED = 11
RATE = 8.0  # admitted requests/second
BURST = 8
QUEUE_DEPTH = 8
QUEUE_TIMEOUT = 1.0
DURATION = 4.0  # simulated seconds of arrivals per level
LEVELS = (1, 4, 16)


def _admission_config() -> AdmissionConfig:
    return AdmissionConfig(
        enabled=True,
        requests_per_second=RATE,
        burst=BURST,
        queue_depth=QUEUE_DEPTH,
        queue_timeout_seconds=QUEUE_TIMEOUT,
    )


def _workload(level: int):
    """``level``× the admitted arrival rate over DURATION simulated seconds."""
    bench = krylov_benchmark()
    n = int(level * RATE * DURATION)
    questions = [
        f"{bench[i % len(bench)].text} (burst item {i})" for i in range(n)
    ]
    arrivals = [i / (level * RATE) for i in range(n)]
    return questions, arrivals


def _run_level(artifact, level: int):
    cfg = replace(ReproConfig(iterations_per_token=0), admission=_admission_config())
    registry = MetricsRegistry()
    engine = QueryEngine(artifact, cfg, registry=registry)
    questions, arrivals = _workload(level)
    with use_registry(registry):
        batch = engine.answer_many(questions, seed=SEED, arrivals=arrivals)
    return batch, registry


def test_overload_goodput_and_deterministic_shedding(bundle):
    artifact = get_or_build_index(bundle, ReproConfig(iterations_per_token=0))
    levels = {}
    for level in LEVELS:
        batch, registry = _run_level(artifact, level)
        n = len(batch.items)

        # Nothing admitted may fail: sheds are the only unanswered items.
        assert batch.answered_count + batch.shed_count == n
        assert batch.answered_count == batch.admitted_count

        # Goodput: answers delivered vs. what the token bucket could
        # admit over the window (burst + refill).
        capacity = min(n, int(BURST + RATE * DURATION))
        goodput = batch.answered_count / capacity
        assert goodput >= 0.8, (
            f"{level}x: goodput {goodput:.0%} of admitted capacity "
            f"({batch.answered_count}/{capacity})"
        )

        if level == 1:
            assert batch.shed_count == 0, "1x load must not shed"
        else:
            assert batch.shed_count > 0, f"{level}x load must shed"
        for it in batch.items:
            if it.shed:
                assert it.retry_after > 0, "sheds must carry retry_after"

        levels[level] = {
            "batch": batch,
            "answers": batch.answers_digest(),
            "spans": batch.span_digest(),
            "metrics": registry.digest(),
        }

    # Same seed, same arrivals → byte-identical decisions and digests.
    rerun, rerun_registry = _run_level(artifact, LEVELS[-1])
    top = levels[LEVELS[-1]]
    assert [(it.shed, round(it.retry_after, 9)) for it in rerun.items] == [
        (it.shed, round(it.retry_after, 9)) for it in top["batch"].items
    ]
    assert rerun.answers_digest() == top["answers"]
    assert rerun.span_digest() == top["spans"]
    assert rerun_registry.digest() == top["metrics"]

    payload = {
        "workload": {
            "seed": SEED,
            "rate_per_second": RATE,
            "burst": BURST,
            "queue_depth": QUEUE_DEPTH,
            "queue_timeout_seconds": QUEUE_TIMEOUT,
            "duration_seconds": DURATION,
            "levels": list(LEVELS),
            "artifact_digest": artifact.digest,
        },
        "levels": {
            str(level): {
                "requests": len(info["batch"].items),
                "admitted": info["batch"].admitted_count,
                "queued": info["batch"].queued_count,
                "shed": info["batch"].shed_count,
                "answered": info["batch"].answered_count,
                "batch_seconds": round(info["batch"].batch_seconds, 4),
            }
            for level, info in levels.items()
        },
        "digests": {
            str(level): {
                "answers": info["answers"],
                "spans": info["spans"],
                "metrics": info["metrics"],
            }
            for level, info in levels.items()
        },
    }
    _OUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    for level, info in levels.items():
        b = info["batch"]
        print(
            f"\n{level:>2}x: {len(b.items):>4} requests -> "
            f"{b.admitted_count} admitted ({b.queued_count} queued), "
            f"{b.shed_count} shed, {b.answered_count} answered "
            f"in {b.batch_seconds:.2f}s"
        )

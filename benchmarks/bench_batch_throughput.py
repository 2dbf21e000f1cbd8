"""E12 — batched query-engine throughput vs sequential answering.

Runs the 37-question benchmark twice over the same index artifact with
the latency simulation ON: once sequentially (``QueryEngine.answer`` per
question — one scalar token-burn loop per completion) and once through
``QueryEngine.answer_many`` (a bounded worker pool that defers every
completion's burn into a single vectorized flush).  The batch must reach
at least 2x the sequential throughput while staying byte-identical:
answers, span-structure digests, and metric digests are compared across
1/2/4 workers and across two same-seed runs.

Results land in ``BENCH_batch_throughput.json`` at the repo root; the
``digests`` block is what CI's two-run equality gate compares (timings
are wall-clock and may vary, the digests may not).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.config import ReproConfig
from repro.engine import QueryEngine
from repro.evaluation.benchmark import krylov_benchmark
from repro.index import get_or_build_index
from repro.observability import MetricsRegistry

_OUT = Path(__file__).resolve().parent.parent / "BENCH_batch_throughput.json"
SEED = 7
WORKER_SWEEP = (1, 2, 4)
BATCH_WORKERS = 4


def _questions() -> list[str]:
    return [q.text for q in krylov_benchmark()]


def _timed_config() -> ReproConfig:
    return ReproConfig()  # persona-default latency burn: the real workload


def _batch_run(artifact, *, workers: int):
    """One batch over a fresh engine + registry (cold caches)."""
    reg = MetricsRegistry()
    engine = QueryEngine(artifact, _timed_config(), registry=reg)
    batch = engine.answer_many(_questions(), workers=workers, seed=SEED)
    view = json.dumps(reg.deterministic_view(), sort_keys=True)
    return batch, view


def test_batch_throughput_and_digest_stability(bundle):
    questions = _questions()
    cfg = _timed_config()
    artifact = get_or_build_index(bundle, cfg)

    # Sequential reference: one engine, one question at a time, answer
    # cache disabled by uniqueness (37 distinct questions, cold start).
    seq_engine = QueryEngine(artifact, cfg, registry=MetricsRegistry())
    t0 = time.perf_counter()
    seq_results = [seq_engine.answer(q) for q in questions]
    seq_seconds = time.perf_counter() - t0
    seq_qps = len(questions) / seq_seconds

    # Worker sweep: every digest must be invariant.
    sweep = {}
    for workers in WORKER_SWEEP:
        batch, view = _batch_run(artifact, workers=workers)
        assert batch.answered_count == len(questions)
        sweep[workers] = {
            "batch": batch,
            "answers": batch.answers_digest(),
            "spans": batch.span_digest(),
            "metrics_view": view,
        }
    assert len({s["answers"] for s in sweep.values()}) == 1
    assert len({s["spans"] for s in sweep.values()}) == 1
    assert len({s["metrics_view"] for s in sweep.values()}) == 1

    # Two same-seed runs from equal (cold) cache state: byte-identical.
    rerun, rerun_view = _batch_run(artifact, workers=BATCH_WORKERS)
    assert rerun.answers_digest() == sweep[BATCH_WORKERS]["answers"]
    assert rerun.span_digest() == sweep[BATCH_WORKERS]["spans"]
    assert rerun_view == sweep[BATCH_WORKERS]["metrics_view"]

    # The batch answers must match the sequential answers text-for-text.
    batch = sweep[BATCH_WORKERS]["batch"]
    assert [it.result.answer for it in batch.items] == [r.answer for r in seq_results]

    batch_qps = batch.questions_per_second
    speedup = batch_qps / seq_qps
    assert speedup >= 2.0, (
        f"batched throughput {batch_qps:.2f} q/s is only {speedup:.2f}x "
        f"sequential {seq_qps:.2f} q/s (need >= 2x)"
    )

    payload = {
        "workload": {
            "questions": len(questions),
            "seed": SEED,
            "worker_sweep": list(WORKER_SWEEP),
            "batch_workers": BATCH_WORKERS,
            "artifact_digest": artifact.digest,
        },
        "throughput": {
            "sequential_seconds": round(seq_seconds, 4),
            "sequential_qps": round(seq_qps, 3),
            "batch_seconds": round(batch.batch_seconds, 4),
            "batch_qps": round(batch_qps, 3),
            "speedup": round(speedup, 3),
            "deferred_tokens": batch.deferred_tokens,
            "vectorized_burn_seconds": round(batch.burn_seconds, 4),
        },
        "digests": {
            "answers": sweep[BATCH_WORKERS]["answers"],
            "spans": sweep[BATCH_WORKERS]["spans"],
        },
    }
    _OUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    print(
        f"\nsequential: {seq_qps:7.2f} q/s ({seq_seconds:.2f}s for {len(questions)})\n"
        f"batched:    {batch_qps:7.2f} q/s ({batch.batch_seconds:.2f}s, "
        f"workers={BATCH_WORKERS}) -> {speedup:.2f}x\n"
        f"deferred {batch.deferred_tokens} tokens into a "
        f"{1000 * batch.burn_seconds:.1f} ms vectorized flush\n"
        f"answers digest: {payload['digests']['answers']}\n"
        f"span digest:    {payload['digests']['spans']}"
    )

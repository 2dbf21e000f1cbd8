"""E11 — chaos sweeps: answer availability under injected faults.

Runs the 37-question benchmark with the resilience layer active while a
seeded :class:`FaultInjector` breaks the retriever, reranker, and LLM
hops at 0%, 10%, and 30% transient-fault rates.  Reports the answer
success rate and the degradation mix at each rate, and checks the two
properties the harness exists for: availability (>= 95% answered at 30%
faults, never a crashed sweep) and reproducibility (same seed => byte-
identical fault schedule and results).
"""

from __future__ import annotations

import pytest

from repro.config import ReproConfig
from repro.evaluation.chaos import run_chaos_experiment
from repro.resilience import FaultConfig

SEED = 0
RATES = (0.0, 0.1, 0.3)


def _run(bundle, rate: float):
    return run_chaos_experiment(
        bundle,
        ReproConfig(iterations_per_token=0),
        seed=SEED,
        fault_config=FaultConfig(transient_rate=rate),
    )


@pytest.mark.parametrize("rate", RATES, ids=[f"{int(100 * r)}pct" for r in RATES])
def test_chaos_sweep(benchmark, bundle, rate):
    run = benchmark.pedantic(_run, args=(bundle, rate), rounds=1, iterations=1)

    assert len(run.outcomes) == 37  # the sweep always completes
    if rate == 0.0:
        assert run.success_rate == 1.0
        assert run.degradation_mix()["clean"] == 37
    else:
        assert run.success_rate >= 0.95
    print(f"\n{run.render(title=f'{int(100 * rate)}% transient faults')}")


def test_chaos_reproducible(bundle):
    """Same seed, same config => byte-identical schedules and results."""
    a = _run(bundle, 0.3)
    b = _run(bundle, 0.3)
    assert a.schedule_digest == b.schedule_digest
    assert a.results_digest() == b.results_digest()

    different_seed = run_chaos_experiment(
        bundle,
        ReproConfig(iterations_per_token=0),
        seed=SEED + 1,
        fault_config=FaultConfig(transient_rate=0.3),
    )
    assert different_seed.schedule_digest != a.schedule_digest

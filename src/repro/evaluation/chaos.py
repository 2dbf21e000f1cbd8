"""Chaos experiments: the benchmark under seeded fault injection.

A chaos run answers every benchmark question through a pipeline whose
hops are wrapped by a :class:`~repro.resilience.FaultInjector`.  A
question either *answers* (possibly degraded, possibly after retries) or
*fails* — the failure is caught and recorded, never allowed to abort the
run.  Because every injection decision is a pure function of the seed,
two runs with the same seed produce byte-identical fault schedules and
results, which the digests below make checkable.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.config import AdmissionConfig, ReproConfig
from repro.corpus.builder import CorpusBundle
from repro.durability.journal import Journal, encode_json_record, recover_journal
from repro.api import open_service
from repro.errors import EvaluationError, ReproError, SimulatedCrashError
from repro.evaluation.benchmark import BenchmarkQuestion, krylov_benchmark
from repro.observability import MetricsRegistry, get_registry, use_registry
from repro.resilience import FaultConfig, FaultInjector, TornWriteInjector
from repro.utils.rng import rng_for


@dataclass
class ChaosOutcome:
    """What happened to one benchmark question under injected faults."""

    qid: str
    answered: bool
    answer: str = ""
    attempts: int = 1
    degraded: list[str] = field(default_factory=list)
    error: str = ""
    #: Shard coverage of the answer (1.0 for monolithic/full scatters).
    coverage: float = 1.0


@dataclass
class ChaosRun:
    """All outcomes of one seeded chaos sweep over the benchmark."""

    seed: int
    mode: str
    fault_config: FaultConfig
    outcomes: list[ChaosOutcome] = field(default_factory=list)
    schedule_digest: str = ""
    fault_counts: dict[str, int] = field(default_factory=dict)
    #: Replication-layer activity during the run (failovers,
    #: partial_queries) — zeros for monolithic configs.
    replica_stats: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------ metrics
    @property
    def answered_count(self) -> int:
        return sum(1 for o in self.outcomes if o.answered)

    @property
    def success_rate(self) -> float:
        if not self.outcomes:
            raise EvaluationError("empty chaos run")
        return self.answered_count / len(self.outcomes)

    @property
    def min_coverage(self) -> float:
        """Worst shard coverage any answered question saw (1.0 when none)."""
        covered = [o.coverage for o in self.outcomes if o.answered]
        return min(covered) if covered else 1.0

    def degradation_mix(self) -> dict[str, int]:
        """How often each degradation rung fired, plus retry/clean tallies."""
        mix: dict[str, int] = {"clean": 0, "retried": 0, "failed": 0}
        for o in self.outcomes:
            if not o.answered:
                mix["failed"] += 1
                continue
            if o.attempts > 1:
                mix["retried"] += 1
            if not o.degraded and o.attempts == 1:
                mix["clean"] += 1
            for event in o.degraded:
                mix[event] = mix.get(event, 0) + 1
        return mix

    def results_digest(self) -> str:
        """SHA-256 over the canonical outcomes — byte-identical across
        runs with the same seed, config, and question set.

        The payload is frozen by the golden suite; partial answers
        already surface in it through the ``shard:partial`` degradation
        mark, so ``coverage`` stays out (the shard-fault sweep phase has
        its own coverage-bearing digest).
        """
        payload = json.dumps(
            [
                [o.qid, o.answered, o.answer, o.attempts, o.degraded, o.error]
                for o in self.outcomes
            ],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    # ------------------------------------------------------------ rendering
    def render(self, *, title: str = "") -> str:
        lines: list[str] = []
        if title:
            lines += [title, "-" * len(title)]
        c = self.fault_config
        lines.append(
            f"seed {self.seed} | mode {self.mode} | rates: transient {c.transient_rate:.0%}, "
            f"latency {c.latency_spike_rate:.0%}, truncate {c.truncation_rate:.0%}"
        )
        lines.append(
            f"answered {self.answered_count}/{len(self.outcomes)} "
            f"({self.success_rate:.1%})"
        )
        lines.append("degradation mix:")
        for event, n in sorted(self.degradation_mix().items()):
            lines.append(f"  {event:<28}{n:>4}")
        injected = {k: v for k, v in self.fault_counts.items() if k != "ok"}
        lines.append(f"injected faults: {injected}")
        if any(self.replica_stats.values()) or self.min_coverage < 1.0:
            s = self.replica_stats
            lines.append(
                f"replica serving: {s.get('failovers', 0)} failovers, "
                f"{s.get('partial_queries', 0)} partial queries, "
                f"min coverage {self.min_coverage:.2f}"
            )
        lines.append(f"schedule digest: {self.schedule_digest}")
        lines.append(f"results digest:  {self.results_digest()}")
        return "\n".join(lines)


def run_chaos_experiment(
    bundle: CorpusBundle,
    config: ReproConfig | None = None,
    *,
    seed: int,
    fault_config: FaultConfig,
    mode: str = "rag+rerank",
    questions: list[BenchmarkQuestion] | None = None,
) -> ChaosRun:
    """Answer every benchmark question under injected faults.

    Per-question pipeline failures (retry exhaustion, open breaker) are
    caught and recorded as unanswered outcomes; the sweep always
    completes.
    """
    config = config or ReproConfig(iterations_per_token=0)
    questions = questions if questions is not None else krylov_benchmark()
    injector = FaultInjector(seed, fault_config)
    # A fault injector disables the engine's answer cache, so every
    # question hits the chaos-wrapped hops and the fault schedule stays
    # a pure function of the seed; the index artifact is still shared.
    service = open_service(config, bundle=bundle, fault_injector=injector)
    run = ChaosRun(seed=seed, mode=mode, fault_config=fault_config)
    replica_counters = (
        "repro.replica.failovers",
        "repro.shard.partial_queries",
    )
    ambient = get_registry()
    before = {name: ambient.counter(name).value for name in replica_counters}
    for q in questions:
        try:
            result = service.answer(q.text, mode=mode)
        except ReproError as exc:
            run.outcomes.append(
                ChaosOutcome(
                    qid=q.qid,
                    answered=False,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
        else:
            run.outcomes.append(
                ChaosOutcome(
                    qid=q.qid,
                    answered=True,
                    answer=result.answer,
                    attempts=result.attempts,
                    degraded=[str(e) for e in result.degraded],
                    coverage=result.coverage,
                )
            )
    run.replica_stats = {
        name.rsplit(".", 1)[-1]: ambient.counter(name).value - before[name]
        for name in replica_counters
    }
    run.schedule_digest = injector.schedule_digest()
    run.fault_counts = injector.fault_counts()
    return run


# ---------------------------------------------------------------------------
# Robustness sweep: faults + overload + crash recovery in one run
# ---------------------------------------------------------------------------
@dataclass
class OverloadOutcome:
    """The admission ladder's behaviour under a synthetic burst."""

    factor: int
    total: int
    admitted: int = 0
    queued: int = 0
    shed: int = 0
    answered: int = 0
    #: Every shed item carried a positive retry_after hint.
    retry_after_ok: bool = True
    answers_digest: str = ""
    metrics_digest: str = ""
    error: str = ""


@dataclass
class ShardFaultOutcome:
    """Replicated shard serving under a seeded shard-outage schedule."""

    shards: int
    replicas: int
    fault_rate: float
    total: int = 0
    answered: int = 0
    #: Questions answered from fewer shards than the index holds.
    partial: int = 0
    failovers: int = 0
    min_coverage: float = 1.0
    schedule_digest: str = ""
    results_digest: str = ""
    error: str = ""


@dataclass
class RecoveryOutcome:
    """One seeded torn-write crash and what recovery salvaged."""

    records_written: int
    crash_record: int
    cut_at: int
    recovered: int = 0
    dropped_bytes: int = 0
    #: The recovered records equal the intact prefix, byte for byte.
    prefix_ok: bool = False
    reason: str = ""


@dataclass
class RobustnessRun:
    """Chaos faults, overload shedding, and crash recovery, one seed."""

    seed: int
    chaos: ChaosRun
    overload: OverloadOutcome
    recovery: RecoveryOutcome
    #: Added by the replication PR; None only for hand-built runs.
    shard_faults: ShardFaultOutcome | None = None

    def digest(self) -> str:
        """SHA-256 over every decision the sweep made (paths excluded):
        same seed and inputs → byte-identical digest."""
        o, r, s = self.overload, self.recovery, self.shard_faults
        payload = json.dumps(
            [
                self.chaos.results_digest(),
                self.chaos.schedule_digest,
                [o.factor, o.total, o.admitted, o.queued, o.shed, o.answered,
                 o.retry_after_ok, o.answers_digest, o.metrics_digest, o.error],
                [r.records_written, r.crash_record, r.cut_at, r.recovered,
                 r.dropped_bytes, r.prefix_ok, r.reason],
                None if s is None else [
                    s.shards, s.replicas, round(s.fault_rate, 6),
                    s.total, s.answered, s.partial, s.failovers,
                    round(s.min_coverage, 6),
                    s.schedule_digest, s.results_digest, s.error,
                ],
            ],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def render(self, *, title: str = "") -> str:
        lines = [self.chaos.render(title=title), ""]
        if self.shard_faults is not None:
            s = self.shard_faults
            lines.append(
                f"shard faults ({s.shards} shards × {s.replicas} replicas, "
                f"rate {s.fault_rate:.0%}): {s.answered}/{s.total} answered, "
                f"{s.failovers} failovers, {s.partial} partial, "
                f"min coverage {s.min_coverage:.2f}"
            )
        o = self.overload
        lines.append(
            f"overload {o.factor}x: {o.admitted} admitted ({o.queued} via queue), "
            f"{o.shed} shed of {o.total}; {o.answered} answered; "
            f"retry_after {'ok' if o.retry_after_ok else 'MISSING'}"
        )
        r = self.recovery
        lines.append(
            f"crash recovery: tore record {r.crash_record} at byte {r.cut_at} "
            f"of {r.records_written} written → {r.recovered} recovered, "
            f"{r.dropped_bytes} bytes dropped, "
            f"prefix {'intact' if r.prefix_ok else 'BROKEN'}"
        )
        lines.append(f"robustness digest: {self.digest()}")
        return "\n".join(lines)


def _run_overload_phase(
    bundle: CorpusBundle,
    config: ReproConfig,
    *,
    seed: int,
    factor: int,
    questions: list[BenchmarkQuestion],
    mode: str,
) -> OverloadOutcome:
    """Drive a burst at ``factor``× the admitted rate through admission."""
    rate, burst = 4.0, 4
    admission = AdmissionConfig(
        enabled=True,
        requests_per_second=rate,
        burst=burst,
        queue_depth=burst,
        queue_timeout_seconds=1.0,
    )
    cfg = replace(config, admission=admission)
    n = max(1, factor) * burst
    texts = [questions[i % len(questions)].text for i in range(n)]
    arrivals = [i / (max(1, factor) * rate) for i in range(n)]
    outcome = OverloadOutcome(factor=factor, total=n)
    registry = MetricsRegistry()
    try:
        service = open_service(cfg, bundle=bundle)
        with use_registry(registry):
            batch = service.answer_many(texts, mode=mode, seed=seed, arrivals=arrivals)
    except ReproError as exc:  # the sweep reports, never aborts
        outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome
    outcome.admitted = batch.admitted_count
    outcome.queued = batch.queued_count
    outcome.shed = batch.shed_count
    outcome.answered = batch.answered_count
    outcome.retry_after_ok = all(
        it.retry_after > 0 for it in batch.items if it.shed
    )
    outcome.answers_digest = batch.answers_digest()
    outcome.metrics_digest = registry.digest()
    return outcome


def _run_shard_fault_phase(
    bundle: CorpusBundle,
    config: ReproConfig,
    *,
    seed: int,
    questions: list[BenchmarkQuestion],
    mode: str,
    shard_fault_rate: float,
    replicas: int,
) -> ShardFaultOutcome:
    """Serve the benchmark while a seeded schedule kills shard primaries.

    The engine wraps every shard's primary replica at site ``shard:N``
    (see :meth:`QueryEngine._replica_fault_wrapper`); with a backup
    copy failover absorbs each outage, with a single copy
    the shard goes dark and answers degrade to partial coverage.
    Questions are answered sequentially so the fault schedule — and
    therefore the digest — is a pure function of the seed.
    """
    # Partial coverage needs a surviving shard to degrade to.
    num_shards = max(config.sharding.num_shards, 2)
    cfg = replace(
        config,
        sharding=replace(config.sharding, num_shards=num_shards),
        replication=replace(config.replication, replicas=replicas),
    )
    outcome = ShardFaultOutcome(
        shards=num_shards,
        replicas=replicas,
        fault_rate=shard_fault_rate,
        total=len(questions),
    )
    injector = FaultInjector(seed, FaultConfig(shard_fault_rate=shard_fault_rate))
    registry = MetricsRegistry()
    results: list[list] = []
    try:
        service = open_service(cfg, bundle=bundle, fault_injector=injector)
        with use_registry(registry):
            for q in questions:
                try:
                    result = service.answer(q.text, mode=mode)
                except ReproError as exc:
                    results.append([q.qid, False, "", f"{type(exc).__name__}: {exc}", 0.0])
                else:
                    outcome.answered += 1
                    coverage = round(result.coverage, 6)
                    if coverage < 1.0:
                        outcome.partial += 1
                    outcome.min_coverage = min(outcome.min_coverage, coverage)
                    results.append(
                        [q.qid, True, result.answer,
                         [str(e) for e in result.degraded], coverage]
                    )
    except ReproError as exc:  # the sweep reports, never aborts
        outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome
    outcome.failovers = registry.counter("repro.replica.failovers").value
    outcome.schedule_digest = injector.schedule_digest()
    payload = json.dumps(results, separators=(",", ":"))
    outcome.results_digest = hashlib.sha256(payload.encode()).hexdigest()
    return outcome


def _run_recovery_phase(
    *, seed: int, journal_dir: str | Path | None
) -> RecoveryOutcome:
    """Journal seeded records, tear one mid-write, recover the prefix."""
    rng = rng_for("chaos-crash", seed)
    n_records = 8 + int(rng.integers(0, 8))
    records = [
        {"seq": i, "note": f"chaos-crash-{seed}-{i}", "pad": "x" * int(rng.integers(4, 40))}
        for i in range(n_records)
    ]
    crash_record = int(rng.integers(1, n_records))
    frame = encode_json_record(records[crash_record])
    cut_at = int(rng.integers(1, len(frame)))
    outcome = RecoveryOutcome(
        records_written=n_records, crash_record=crash_record, cut_at=cut_at
    )

    def run_in(directory: Path) -> None:
        path = directory / f"chaos-{seed}.journal"
        injector = TornWriteInjector(record_index=crash_record, cut_at=cut_at)
        journal = Journal(path, fault=injector)
        try:
            for record in records:
                journal.append(record)
        except SimulatedCrashError:
            pass
        finally:
            journal.close()
        report = recover_journal(path)
        outcome.recovered = report.intact_count
        outcome.dropped_bytes = report.dropped_bytes
        outcome.reason = report.reason
        outcome.prefix_ok = report.records == records[:crash_record]

    if journal_dir is not None:
        Path(journal_dir).mkdir(parents=True, exist_ok=True)
        run_in(Path(journal_dir))
    else:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            run_in(Path(tmp))
    return outcome


def run_robustness_sweep(
    bundle: CorpusBundle,
    config: ReproConfig | None = None,
    *,
    seed: int,
    fault_config: FaultConfig,
    mode: str = "rag+rerank",
    overload_factor: int = 16,
    questions: list[BenchmarkQuestion] | None = None,
    journal_dir: str | Path | None = None,
    shard_fault_rate: float = 0.25,
    replicas: int = 2,
) -> RobustnessRun:
    """Chaos faults, shard outages, overload, and a torn-write crash.

    The four phases exercise the full robustness surface: injected hop
    faults (retries, degradation), a seeded shard-outage schedule
    against the replicated scatter (failover, partial
    coverage — skipped when ``shard_fault_rate`` is 0), admission
    shedding at ``overload_factor``× capacity, and journal recovery
    after a seeded torn write.  Everything digest-relevant is a pure
    function of the seed and inputs — :meth:`RobustnessRun.digest` is
    stable across runs.
    """
    config = config or ReproConfig(iterations_per_token=0)
    questions = questions if questions is not None else krylov_benchmark()
    chaos = run_chaos_experiment(
        bundle, config, seed=seed, fault_config=fault_config,
        mode=mode, questions=questions,
    )
    shard_faults = None
    if shard_fault_rate > 0:
        shard_faults = _run_shard_fault_phase(
            bundle, config, seed=seed, questions=questions, mode=mode,
            shard_fault_rate=shard_fault_rate, replicas=replicas,
        )
    overload = _run_overload_phase(
        bundle, config, seed=seed, factor=overload_factor,
        questions=questions, mode=mode,
    )
    recovery = _run_recovery_phase(seed=seed, journal_dir=journal_dir)
    return RobustnessRun(
        seed=seed, chaos=chaos, overload=overload, recovery=recovery,
        shard_faults=shard_faults,
    )

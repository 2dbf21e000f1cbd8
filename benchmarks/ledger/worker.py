"""One workload, one fresh interpreter: set-up, rounds, checks, metrics.

``run.py`` starts this file once per run (and a few more times with
``--setup-only`` to sample set-up time).  It drives the system only
through the public front door — ``open_service`` / ``open_pipeline``,
``ReproConfig.from_dict``, ``ingest_corpus``, ``krylov_benchmark``,
``BlindGrader``, ``MetricsRegistry`` — as a closed loop with one client:
the next request is sent when the previous reply has arrived.

The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import time

# Set-up time runs from here (the interpreter's own start, ~20 ms, is
# the only part of "process start to first answer" left out).
_T0 = time.perf_counter()

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys

from repro.api import open_pipeline, open_service
from repro.config import ReproConfig
from repro.corpus.builder import build_default_corpus
from repro.errors import ReproError
from repro.evaluation import BlindGrader, krylov_benchmark
from repro.index import clear_index_cache
from repro.ingest import ingest_corpus
from repro.observability import MetricsRegistry, set_registry
from repro.retrieval import ManualPageKeywordSearch

import probes
import spans
from workloads import BATCH_WORKERS, WORKLOADS, EditSequence, QuestionSource, krylov_questions

#: Repetitions of the 37 cached questions in the traced run's hit probe.
HIT_PROBE_REPS = 20
HIT_PROBE_BATCHES = 5


class Tally:
    """Operations attempted and failed per phase, plus gate violations."""

    def __init__(self) -> None:
        self.phases: dict[str, dict[str, int]] = {}
        self.violations: list[str] = []

    def count(self, phase: str, ok: bool) -> None:
        entry = self.phases.setdefault(phase, {"attempted": 0, "succeeded": 0, "failed": 0})
        entry["attempted"] += 1
        entry["succeeded" if ok else "failed"] += 1

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations.append(message)

    @property
    def attempted(self) -> int:
        return sum(p["attempted"] for p in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(p["failed"] for p in self.phases.values())


class AnswerCheck:
    """Within one epoch every answer to a question must be the same text.

    That covers rounds, batches, cache hits and traced against untraced
    rounds in one rule.  An ingest starts a new epoch: the corpus
    changed, so answers may.
    """

    def __init__(self, tally: Tally) -> None:
        self._tally = tally
        self.epochs: list[dict[str, str]] = [{}]

    def new_epoch(self) -> None:
        self.epochs.append({})

    def record(self, phase: str, question: str, outcome) -> None:
        """Count one ask; ``outcome`` is a PipelineResult, None or an error."""
        answer = getattr(outcome, "answer", None)
        ok = isinstance(answer, str) and bool(answer)
        if ok:
            first = self.epochs[-1].setdefault(question, answer)
            ok = first is answer or first == answer
            if not ok:
                self._tally.violations.append(
                    f"{phase}: answer to {question[:40]!r} changed within an epoch"
                )
        self._tally.count(phase, ok)

    def record_round(self, phase: str, questions: list[str], outcomes: list) -> None:
        for question, outcome in zip(questions, outcomes):
            self.record(phase, question, outcome)

    def digest(self) -> str:
        """Over every answer of every epoch, in epoch order."""
        return hashlib.sha256("".join(map(answers_digest, self.epochs)).encode()).hexdigest()


def answers_digest(answers: dict[str, str]) -> str:
    h = hashlib.sha256()
    for question in sorted(answers):
        h.update(question.encode())
        h.update(b"\x1f")
        h.update(answers[question].encode())
        h.update(b"\x1e")
    return h.hexdigest()


def sequential_round(ask, questions: list[str]):
    """Ask one at a time; returns per ask (wall s, cpu s, outcome)."""
    walls: list[float] = []
    cpus: list[float] = []
    outcomes: list = []
    clock, cpu_clock = time.perf_counter, time.process_time
    for question in questions:
        c0 = cpu_clock()
        t0 = clock()
        try:
            outcome = ask(question)
        except ReproError as exc:
            outcome = exc
        t1 = clock()
        cpus.append(cpu_clock() - c0)
        walls.append(t1 - t0)
        outcomes.append(outcome)
    return walls, cpus, outcomes


def keep_best(best: dict[str, float], questions: list[str], values: list[float]) -> None:
    """Per question, the lowest value seen so far."""
    for question, value in zip(questions, values):
        if value < best.get(question, float("inf")):
            best[question] = value


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in 0..1)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class Window:
    """Registry change between two snapshots, minus excluded stretches."""

    def __init__(self, before: dict, after: dict, excluded: list[tuple[dict, dict]] = ()) -> None:
        self._spans = [(before, after, 1), *((b, a, -1) for b, a in excluded)]

    def counter(self, name: str) -> int:
        return sum(
            sign * (a["counters"].get(name, 0) - b["counters"].get(name, 0))
            for b, a, sign in self._spans
        )

    def histogram(self, name: str) -> tuple[int, float]:
        """(observations, their sum) of a histogram over the window."""
        empty = {"count": 0, "sum": 0.0}
        count, total = 0, 0.0
        for b, a, sign in self._spans:
            hb, ha = b["histograms"].get(name, empty), a["histograms"].get(name, empty)
            count += sign * (ha["count"] - hb["count"])
            total += sign * (ha["sum"] - hb["sum"])
        return count, total


def share(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def grade_mean(grader: BlindGrader, answers: dict[str, str]) -> float:
    scores = [int(grader.grade(q, answers[q.text]).score) for q in krylov_benchmark()]
    return sum(scores) / len(scores)


def ask_all(tally: Tally, phase: str, ask, questions: list[str]) -> dict[str, str]:
    """Answers of ``ask`` to ``questions`` (a check pass, untimed)."""
    _lat, _cpu, outcomes = sequential_round(ask, questions)
    answers = {}
    for question, outcome in zip(questions, outcomes):
        tally.count(phase, hasattr(outcome, "answer"))
        answers[question] = getattr(outcome, "answer", "")
    return answers


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-file")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)

    # ------------------------------------------------------------ set-up
    registry = MetricsRegistry()
    # Process-wide, so builder threads report into it too.
    set_registry(registry)
    tally = Tally()
    check = AnswerCheck(tally)
    t0 = time.perf_counter()
    bundle = build_default_corpus()
    corpus_build_s = time.perf_counter() - t0
    source = QuestionSource(workload, bundle, args.seed)
    config = ReproConfig.from_dict(workload.config)
    t0 = time.perf_counter()
    service = open_service(config, bundle=bundle, registry=registry)
    open_service_s = time.perf_counter() - t0
    hot = workload.questions == "zipf"

    def warm(phase: str) -> None:
        # Krylov workloads return one first answer; the hot workload
        # fills its whole pool, which is what its users wait for.
        questions = source.pool if hot else source.pool[:1]
        check.record_round(phase, questions, sequential_round(service.answer, questions)[2])

    warm("setup")
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(
            json.dumps({"setup_s": setup_s, "attempted": tally.attempted, "failed": tally.failed})
        )
        return 0
    after_setup = registry.snapshot()

    # ------------------------------------------------------------ rounds
    edits = EditSequence(bundle, args.seed)
    recorder = spans.Recorder()
    ingest_ms: list[float] = []
    ingest_reports: list = []
    rewarms: list[tuple[dict, dict]] = []

    def ingest_edit() -> None:
        revised = edits.next()
        t0 = time.perf_counter()
        try:
            report = ingest_corpus(service.engine, revised)
        except ReproError:
            tally.count("ingest", False)
            return
        ingest_ms.append(1000.0 * (time.perf_counter() - t0))
        ingest_reports.append(report)
        tally.count("ingest", report.swapped and not report.noop)
        check.new_epoch()

    # Every timing is the best of its repetitions: the work is
    # deterministic, and on the reference box outside interference slows
    # a pure CPU loop by 20-60 % for seconds at a time — it only ever
    # adds time, so the floor is the number that repeats between runs,
    # and a change to the program moves the floor too.  For asks the
    # floor is kept per question, and the percentiles are over questions.
    ask_s: list[float] = []  # every untraced sequential ask
    best_wall: dict[str, float] = {}
    best_cpu: dict[str, float] = {}
    best_traced_wall: dict[str, float] = {}
    traced_asks = 0
    batch_qps: list[float] = []
    seq_index = batch_index = 0
    for event in workload.schedule(args.seconds, args.quick):
        # Every event starts from a collected heap.  A full collection
        # costs what the long-lived heap (corpus, index) weighs, not what
        # the event allocates; left alone it lands in one batch of 5000
        # hits and not in the next, and halves that batch's rate.
        gc.collect()
        if event == "edit":
            for _ in range(workload.edit_burst):
                ingest_edit()
            if hot:
                # The swap dropped every cached answer.  Refilling is
                # untimed and kept out of the registry window, so the
                # workload stays what its name says: hits only.
                before = registry.snapshot()
                warm("rewarm")
                rewarms.append((before, registry.snapshot()))
            continue
        if workload.prepare == "clear":
            service.invalidate_query_caches()
        elif workload.prepare == "ingest" and seq_index:
            ingest_edit()
        if event == "batch":
            questions = source.round("batch", batch_index)
            batch_index += 1
            t0 = time.perf_counter()
            batch = service.answer_many(questions, workers=BATCH_WORKERS, seed=args.seed)
            batch_qps.append(len(questions) / (time.perf_counter() - t0))
            for item in batch.items:
                check.record("batch", item.question, item.result)
            continue
        questions = source.round("seq", seq_index)
        traced_round = trace and seq_index % 2 == 0
        seq_index += 1
        if traced_round:
            # After an epoch swap the engine builds a new pipeline, so
            # the proxies go on per round, and come off after it.
            uninstall = spans.install(service.pipeline_for(), recorder)
            ask = recorder.wrap(service.answer, spans.ROOT, root=True)
        else:
            ask = service.answer
        walls, cpus, outcomes = sequential_round(ask, questions)
        if traced_round:
            uninstall()
            keep_best(best_traced_wall, questions, walls)
            traced_asks += len(walls)
        else:
            ask_s.extend(walls)
            keep_best(best_wall, questions, walls)
            keep_best(best_cpu, questions, cpus)
        check.record_round("sequential", questions, outcomes)
    rounds_window = Window(after_setup, registry.snapshot(), rewarms)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digests = {"answers": check.digest()}

    layer: dict[str, tuple[float, str]] = {}
    if trace:
        layer.update(hit_probe(service, registry, tally, check, args.quick))

    # ------------------------------------------------------------ correctness gate
    grader = BlindGrader(
        registry=bundle.registry,
        known_identifiers=ManualPageKeywordSearch(bundle).known_identifiers(),
    )
    krylov = krylov_questions()
    # The first sequential round (the warm-up, on the hot workload) saw
    # the unedited corpus, so this grade does not depend on the edits.
    first_epoch = check.epochs[0]
    tally.require(all(q in first_epoch for q in krylov), "a Krylov question was never answered")
    rubric_mean = grade_mean(grader, first_epoch) if not tally.violations else 0.0
    zero_burn = ReproConfig.from_dict({**workload.config, "iterations_per_token": 0})
    if workload.grade_modes:
        means = {
            mode: grade_mean(
                grader,
                ask_all(
                    tally, "graded", open_pipeline(zero_burn, bundle=bundle, mode=mode).answer, krylov
                ),
            )
            for mode in ("baseline", "rag", "rag+rerank")
        }
        tally.require(
            means["baseline"] < means["rag"] < means["rag+rerank"],
            f"rubric order baseline < rag < rag+rerank broken: {means}",
        )
        tally.require(
            means["rag+rerank"] == rubric_mean,
            f"service rubric {rubric_mean} != zero-burn pipeline {means['rag+rerank']}",
        )
        digests["rubric_by_mode"] = means
    if workload.prepare == "ingest":
        # Every edit must have re-embedded exactly one chunk through the
        # delta lane, and the delta-swapped engine must answer like one
        # built from scratch on the final corpus.
        embedded = rounds_window.counter("repro.ingest.chunks_embedded")
        tally.require(
            embedded == len(ingest_reports)
            and all(r.resolution == "delta" for r in ingest_reports),
            f"{embedded} chunks re-embedded over {len(ingest_reports)} one-document edits",
        )
        clear_index_cache()
        scratch = open_service(zero_burn, bundle=edits.bundle, registry=MetricsRegistry())
        digests["scratch"] = answers_digest(ask_all(tally, "scratch", scratch.answer, krylov))
        tally.require(
            digests["scratch"] == answers_digest(check.epochs[-1]),
            "delta-swapped engine answers differ from a from-scratch engine",
        )

    # ------------------------------------------------------------ metrics
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "ask_p50_ms": (1000.0 * statistics.median(best_wall.values()), "ms"),
        "ask_p90_ms": (1000.0 * percentile(list(best_wall.values()), 0.90), "ms"),
        "cpu_ms_per_ask": (1000.0 * statistics.mean(best_cpu.values()), "ms"),
        "batch_qps": (max(batch_qps), "1/s"),
        "ingest_ms": (min(ingest_ms), "ms"),
        "rubric_mean": (rubric_mean, "score"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if trace:
        layer.update(span_metrics(recorder, traced_asks, workload, zero_burn, bundle, krylov))
        layer.update(registry_metrics(rounds_window, ingest_reports))
        untraced_p50 = statistics.median(best_wall.values())
        layer.update(
            {
                "service.ask_p95_ms": (1000.0 * percentile(ask_s, 0.95), "ms"),
                "service.failed_share": (tally.failed / tally.attempted, "share"),
                "index.build_s": (open_service_s, "s"),
                "index.builds": (after_setup["counters"].get("repro.index.builds", 0), "count"),
                "corpus.build_ms": (1000.0 * corpus_build_s, "ms"),
                "bench.trace_overhead_pct": (
                    100.0
                    * (statistics.median(best_traced_wall.values()) - untraced_p50)
                    / untraced_p50,
                    "%",
                ),
            }
        )
        layer.update(probes.run(bundle, args.seed, args.quick))
        if args.trace_file:
            recorder.write_jsonl(args.trace_file)

    metrics = layer if trace else end_to_end
    print(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "quick": args.quick,
                "correct": not tally.violations and tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "violations": tally.violations,
                "phases": tally.phases,
                "samples": {
                    "asks": len(ask_s),
                    "traced_asks": traced_asks,
                    "questions": len(best_wall),
                    "batches": len(batch_qps),
                    "ingests": len(ingest_ms),
                },
                "repetitions": {"batch_qps": batch_qps, "ingest_ms": ingest_ms},
                "digests": digests,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def hit_probe(service, registry, tally: Tally, check: AnswerCheck, quick: bool) -> dict:
    """Time answer / answer_many on the 37 questions while they are cached."""
    questions = krylov_questions()
    reps = 2 if quick else HIT_PROBE_REPS
    # One untimed pass makes sure every one of them is cached.
    check.record_round("hit_probe", questions, sequential_round(service.answer, questions)[2])
    before = registry.snapshot()
    best_hit: dict[str, float] = {}
    for _ in range(reps):
        walls, _cpus, outcomes = sequential_round(service.answer, questions)
        keep_best(best_hit, questions, walls)
        check.record_round("hit_probe", questions, outcomes)
    per_item: list[float] = []
    many = questions * reps
    for _ in range(1 if quick else HIT_PROBE_BATCHES):
        t0 = time.perf_counter()
        batch = service.answer_many(many, workers=BATCH_WORKERS)
        per_item.append((time.perf_counter() - t0) / len(many))
        for item in batch.items:
            check.record("hit_probe", item.question, item.result)
    misses = Window(before, registry.snapshot()).counter("repro.engine.answer_cache.misses")
    tally.require(misses == 0, f"hit probe missed the answer cache {misses} times")
    return {
        "service.hit_us": (1e6 * statistics.median(best_hit.values()), "us"),
        "service.batch_us_per_item": (1e6 * min(per_item), "us"),
    }


def span_metrics(recorder, traced_asks: int, workload, zero_burn, bundle, krylov) -> dict:
    """Per traced ask: mean time inside each proxied collaborator."""
    totals = recorder.totals()

    def per_ask(name: str, key: str = "total_ns") -> float:
        return totals.get(name, {}).get(key, 0) / traced_asks

    complete_us = per_ask(spans.LLM) / 1e3
    if workload.config.get("iterations_per_token") == 0:
        synthesis_us = complete_us
    else:
        # Burn-on minus zero-burn: the same questions through a
        # zero-burn pipeline give the text-synthesis part alone.
        pipeline = open_pipeline(zero_burn, bundle=bundle)
        reference = spans.Recorder()
        spans.install(pipeline, reference)
        sequential_round(pipeline.answer, krylov)
        synthesis_us = reference.totals()[spans.LLM]["total_ns"] / len(krylov) / 1e3
    return {
        "llm.burn_ms": ((complete_us - synthesis_us) / 1e3, "ms"),
        "llm.synthesis_us": (synthesis_us, "us"),
        "llm.calls_per_ask": (per_ask(spans.LLM, "count"), "count"),
        "rerank.refine_us": (per_ask(spans.RERANK) / 1e3, "us"),
        "rerank.calls_per_ask": (per_ask(spans.RERANK, "count"), "count"),
        "retrieval.locate_us": (per_ask(spans.LOCATE) / 1e3, "us"),
        "retrieval.keyword_us": (per_ask(spans.KEYWORD) / 1e3, "us"),
        "service.request_us": (per_ask(spans.ROOT) / 1e3, "us"),
        "service.self_us": (per_ask(spans.ROOT, "self_ns") / 1e3, "us"),
    }


def registry_metrics(window: Window, reports: list) -> dict:
    """Program-reported counters (source: registry), over the rounds."""
    delta = window.counter

    def cache_share(cache: str) -> float:
        return share(delta(f"repro.engine.{cache}.hits"), delta(f"repro.engine.{cache}.misses"))

    def ingest_stage_ms(stage: str) -> float:
        count, total = window.histogram(f"repro.ingest.{stage}.duration_ms")
        return total / count if count else 0.0

    completions = delta("repro.llm.completions")
    attempts, attempt_sum = window.histogram("repro.pipeline.attempts")
    decided = sum(delta(f"repro.admission.{k}") for k in ("admitted", "queued", "shed"))
    batch_requests = delta("repro.engine.batch_requests")
    edits = len(reports)
    return {
        "llm.completion_tokens_per_ask": (
            delta("repro.llm.completion_tokens") / completions if completions else 0.0,
            "count",
        ),
        "llm.prompt_tokens_per_ask": (
            delta("repro.llm.prompt_tokens") / completions if completions else 0.0,
            "count",
        ),
        "pipeline.attempts_per_ask": (attempt_sum / attempts if attempts else 0.0, "count"),
        "replication.failovers": (delta("repro.replica.failovers"), "count"),
        "admission.shed_share": (
            delta("repro.admission.shed") / decided if decided else 0.0,
            "share",
        ),
        "engine.answer_cache_hit_share": (cache_share("answer_cache"), "share"),
        "engine.retrieval_cache_hit_share": (cache_share("retrieval_cache"), "share"),
        "engine.embedding_cache_hit_share": (cache_share("embedding_cache"), "share"),
        "engine.batch_dedupe_share": (
            delta("repro.engine.batch_deduped") / batch_requests if batch_requests else 0.0,
            "share",
        ),
        "ingest.chunks_embedded_per_edit": (
            delta("repro.ingest.chunks_embedded") / edits if edits else 0.0,
            "count",
        ),
        "ingest.delta_share": (
            sum(r.resolution == "delta" for r in reports) / edits if edits else 0.0,
            "share",
        ),
        "ingest.retained_retrieval_share": (
            share(
                delta("repro.ingest.retained_retrieval"),
                delta("repro.ingest.invalidated_retrieval"),
            ),
            "share",
        ),
        "ingest.invalidated_answers_per_edit": (
            delta("repro.ingest.invalidated_answers") / edits if edits else 0.0,
            "count",
        ),
        "ingest.resolve_ms": (ingest_stage_ms("resolve"), "ms"),
        "ingest.build_ms": (ingest_stage_ms("build"), "ms"),
        "ingest.diff_ms": (ingest_stage_ms("diff"), "ms"),
        "ingest.swap_ms": (ingest_stage_ms("swap"), "ms"),
    }


if __name__ == "__main__":
    sys.exit(main())

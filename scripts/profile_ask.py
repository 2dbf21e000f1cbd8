"""Profile the asks one ledger workload serves, on that workload's config.

Run from the repo root::

    PYTHONPATH=src python scripts/profile_ask.py --workload stack_zero_burn
    PYTHONPATH=src python scripts/profile_ask.py --workload paper_eval --sort cumulative --rounds 3
    PYTHONPATH=src python scripts/profile_ask.py --workload hot_repeat --rounds 200
    PYTHONPATH=src python scripts/profile_ask.py --workload ingest_churn
    PYTHONPATH=src python scripts/profile_ask.py --workload ingest_churn --batch
    PYTHONPATH=src python scripts/profile_ask.py --workload paper_eval --ingest --rounds 8

Opens a service on the config ``benchmarks/ledger/workloads.py`` gives
the workload and asks the 37 Krylov questions ``--rounds`` times over:
once untimed by the profiler, for the ask p50 (the ledger's rule: the
best time per question, the median over questions), and once under
``cProfile``.  The asks are the kind the workload makes, prepared before
each pass as its rounds are (``Workload.prepare``):

- ``clear`` (``paper_eval``, ``stack_zero_burn``): cold asks, the query
  caches cleared;
- ``ingest`` (``ingest_churn``): post-swap asks, the next one-document
  edit of the ledger's ``EditSequence`` (seed ``LEDGER_SEED``) applied
  through ``ingest_corpus`` — so the pass's first ask also builds the new
  cache generation's pipeline; the ingest itself is not timed;
- ``none`` (``hot_repeat``): answer-cache hits, the 37 questions answered
  once, untimed, before the first pass.

``--batch`` profiles ``answer_many`` instead, as the ledger times its
``batch_qps``: each of ``--rounds`` batch rounds is the ledger's own
(``QuestionSource.round("batch", i)``, ``BATCH_WORKERS`` workers) after
the same ``prepare`` — for ``ingest`` the new generation's pipeline build
falls inside the batch — run once unprofiled, for the best batch qps, and
once under ``cProfile``.  A ``none`` workload warms its whole question
pool first, as the ledger's set-up does.

``--ingest`` profiles ``ingest_corpus`` instead, over the ledger's
``EditSequence``: each of ``--rounds`` rounds applies one one-document
edit unprofiled (``gc.collect()`` first, as the ledger does) and the
next one under ``cProfile``.  It prints the best unprofiled ingest — the
ledger's ``ingest_ms`` rule — and the mean of each ``repro.ingest.*``
stage (resolve, build, diff, swap) over the unprofiled ingests.

Last, it prints ``peak_rss_mb``: the process's peak resident set at
exit (``ru_maxrss``, the ledger's rule), profiler and all, so a memory
cost is sized with the same script.

This sizes a perf issue — where the time of an ask goes — and claims
nothing: the profiler taxes every Python call and no native one, so a
gain is shown with alternating ledger pairs
(``benchmarks/ledger/README.md``), never with this table.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import pstats
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

from repro.api import open_service
from repro.config import ReproConfig
from repro.corpus import build_default_corpus
from repro.evaluation import krylov_benchmark
from repro.ingest import ingest_corpus
from repro.observability import MetricsRegistry, use_registry

LEDGER = Path(__file__).resolve().parent.parent / "benchmarks" / "ledger"
TABLE_ROWS = 30
#: The ledger's default ``--seed``: the edits an ``ingest`` workload's
#: passes follow, and the questions of a ``--batch`` round.
LEDGER_SEED = 11


def main() -> None:
    sys.path.insert(0, str(LEDGER))
    from workloads import BATCH_WORKERS, WORKLOADS, EditSequence, QuestionSource

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--sort", choices=("tottime", "cumulative"), default="tottime")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--batch", action="store_true", help="profile answer_many rounds")
    parser.add_argument("--ingest", action="store_true", help="profile one-document ingests")
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.batch and args.ingest:
        parser.error("--batch and --ingest profile different things: pick one")

    workload = WORKLOADS[args.workload]
    bundle = build_default_corpus()
    service = open_service(ReproConfig.from_dict(workload.config), bundle=bundle)
    edits = EditSequence(bundle, LEDGER_SEED)

    def prepare() -> None:
        if workload.prepare == "clear":
            service.invalidate_query_caches()
        elif workload.prepare == "ingest":
            ingest_corpus(service.engine, edits.next())

    profile = cProfile.Profile()
    workers: list[cProfile.Profile] = []

    def profile_thread(*_) -> None:
        # Before 3.12 a profile sees only the thread that enabled it, so
        # each pool thread ``answer_many`` starts enables its own on its
        # first event, merged into the table.  From 3.12 ``profile`` sees
        # every thread, and a second enabled profile raises.
        thread_profile = cProfile.Profile()
        workers.append(thread_profile)
        thread_profile.enable()

    per_thread = sys.version_info < (3, 12)

    kind = {"none": "answer-cache hits", "ingest": "post-swap asks"}.get(
        workload.prepare, "cold asks"
    )
    if args.ingest:
        timed = MetricsRegistry()
        ingest_ms = []
        for _ in range(args.rounds):
            revised = edits.next()
            gc.collect()
            with use_registry(timed):
                start = time.perf_counter()
                ingest_corpus(service.engine, revised)
                ingest_ms.append(1000.0 * (time.perf_counter() - start))
            revised = edits.next()
            gc.collect()
            with use_registry(MetricsRegistry()):
                profile.enable()
                ingest_corpus(service.engine, revised)
                profile.disable()
        stages = ", ".join(
            f"{name} {hist.total / hist.count:.2f}"
            for name in ("resolve", "build", "diff", "swap")
            if (hist := timed.histogram(f"repro.ingest.{name}.duration_ms")).count
        )
        print(
            f"{args.workload}: ingest_ms {min(ingest_ms):.2f} unprofiled (best of {args.rounds} "
            f"one-document edits; stage means, ms: {stages}); "
            f"below, {args.rounds} profiled ingests by {args.sort}"
        )
    elif args.batch:
        source = QuestionSource(workload, bundle, LEDGER_SEED)
        if workload.prepare == "none":
            for question in source.pool:
                service.answer(question)
        qps = []
        for index in range(args.rounds):
            batch = source.round("batch", index)
            prepare()
            start = time.perf_counter()
            service.answer_many(batch, workers=BATCH_WORKERS, seed=LEDGER_SEED)
            qps.append(len(batch) / (time.perf_counter() - start))
            prepare()
            if per_thread:
                threading.setprofile(profile_thread)
            profile.enable()
            try:
                service.answer_many(batch, workers=BATCH_WORKERS, seed=LEDGER_SEED)
            finally:
                profile.disable()
                if per_thread:
                    threading.setprofile(None)
        print(
            f"{args.workload}: batch_qps {max(qps):.0f} unprofiled (best of {args.rounds} "
            f"batches of {len(batch)} {kind}, {BATCH_WORKERS} workers); "
            f"below, {args.rounds} profiled batches, all threads, by {args.sort}"
        )
    else:
        questions = [question.text for question in krylov_benchmark()]
        if workload.prepare == "none":
            for question in questions:
                service.answer(question)
        best = dict.fromkeys(questions, float("inf"))
        for _ in range(args.rounds):
            prepare()
            for question in questions:
                start = time.perf_counter()
                service.answer(question)
                best[question] = min(best[question], time.perf_counter() - start)
            prepare()
            profile.enable()
            for question in questions:
                service.answer(question)
            profile.disable()
        print(
            f"{args.workload}: ask p50 {statistics.median(best.values()) * 1e6:.1f} µs unprofiled "
            f"(best of {args.rounds} per question, {len(questions)} {kind}); "
            f"below, {args.rounds * len(questions)} profiled {kind} by {args.sort}"
        )
    pstats.Stats(profile, *workers).sort_stats(args.sort).print_stats(TABLE_ROWS)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"{args.workload}: peak_rss_mb {peak_kib / 1024.0:.1f} (ru_maxrss at exit)")


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): stop without a
        # traceback, and point stdout at devnull so the interpreter's
        # flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)

"""Profile the asks one ledger workload serves, on that workload's config.

Run from the repo root::

    PYTHONPATH=src python scripts/profile_ask.py --workload stack_zero_burn
    PYTHONPATH=src python scripts/profile_ask.py --workload paper_eval --sort cumulative --rounds 3
    PYTHONPATH=src python scripts/profile_ask.py --workload hot_repeat --rounds 200
    PYTHONPATH=src python scripts/profile_ask.py --workload ingest_churn

Opens a service on the config ``benchmarks/ledger/workloads.py`` gives
the workload and asks the 37 Krylov questions ``--rounds`` times over:
once untimed by the profiler, for the ask p50 (the ledger's rule: the
best time per question, the median over questions), and once under
``cProfile``.  The asks are the kind the workload makes, prepared before
each pass as its rounds are (``Workload.prepare``):

- ``clear`` (``paper_eval``, ``stack_zero_burn``): cold asks, the query
  caches cleared;
- ``ingest`` (``ingest_churn``): post-swap asks, the next one-document
  edit of the ledger's ``EditSequence`` (seed ``EDIT_SEED``) applied
  through ``ingest_corpus`` — so the pass's first ask also builds the new
  cache generation's pipeline; the ingest itself is not timed;
- ``none`` (``hot_repeat``): answer-cache hits, the 37 questions answered
  once, untimed, before the first pass.

This sizes a perf issue — where the time of an ask goes — and claims
nothing: the profiler taxes every Python call and no native one, so a
gain is shown with alternating ledger pairs
(``benchmarks/ledger/README.md``), never with this table.
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import statistics
import sys
import time
from pathlib import Path

from repro.api import open_service
from repro.config import ReproConfig
from repro.corpus import build_default_corpus
from repro.evaluation import krylov_benchmark
from repro.ingest import ingest_corpus

LEDGER = Path(__file__).resolve().parent.parent / "benchmarks" / "ledger"
TABLE_ROWS = 30
#: The seed of the edits an ``ingest`` workload's passes follow (the
#: ledger's default ``--seed``).
EDIT_SEED = 11


def main() -> None:
    sys.path.insert(0, str(LEDGER))
    from workloads import WORKLOADS, EditSequence

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--sort", choices=("tottime", "cumulative"), default="tottime")
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    workload = WORKLOADS[args.workload]
    bundle = build_default_corpus()
    service = open_service(ReproConfig.from_dict(workload.config), bundle=bundle)
    questions = [question.text for question in krylov_benchmark()]
    edits = EditSequence(bundle, EDIT_SEED)

    def prepare() -> None:
        if workload.prepare == "clear":
            service.invalidate_query_caches()
        elif workload.prepare == "ingest":
            ingest_corpus(service.engine, edits.next())

    if workload.prepare == "none":
        for question in questions:
            service.answer(question)
    best = dict.fromkeys(questions, float("inf"))
    profile = cProfile.Profile()
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

    kind = {"none": "answer-cache hits", "ingest": "post-swap asks"}.get(
        workload.prepare, "cold asks"
    )
    print(
        f"{args.workload}: ask p50 {statistics.median(best.values()) * 1e6:.1f} µs unprofiled "
        f"(best of {args.rounds} per question, {len(questions)} {kind}); "
        f"below, {args.rounds * len(questions)} profiled {kind} by {args.sort}"
    )
    pstats.Stats(profile).sort_stats(args.sort).print_stats(TABLE_ROWS)


if __name__ == "__main__":
    try:
        main()
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): stop without a
        # traceback, and point stdout at devnull so the interpreter's
        # flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)

"""Command-line tools for the PETSc assistant stack.

The paper (Section III): "For developers, we could even provide command
line tools and integrated development environment (IDE) extensions to
facilitate various use cases."  This module is that CLI:

``python -m repro ask "question..."``
    Answer one question through the selected pipeline mode.

``python -m repro evaluate``
    Run the 37-question benchmark for one mode and print the histogram.

``python -m repro compare``
    Run all three modes and print the Fig. 6 comparison panels.

``python -m repro corpus --out DIR``
    Write the synthetic PETSc docs tree to disk.

``python -m repro casestudy {1,2}``
    Reproduce one of the paper's case studies (Figs. 7–8).

``python -m repro chaos --seed N --transient-rate R``
    Run the benchmark under seeded fault injection and report the
    answer success rate, degradation mix, and reproducibility digests.

``python -m repro metrics [--json]``
    Drive a small benchmark workload against a fresh metrics registry
    and print the resulting instruments plus deterministic digests
    (same seed → byte-identical output).

``python -m repro batch QUESTIONS.txt``
    Answer a file of questions (one per line, or a JSON array) through
    the batched query engine and print per-question outcomes plus
    aggregate cache-hit and throughput statistics.  With ``--rate`` the
    admission ladder (admit → queue → shed) protects the engine and the
    output reports admitted/queued/shed counts.

``python -m repro recover JOURNAL``
    Recover a crash-safe journal (history store or dead-letter queue),
    keeping the longest intact record prefix and truncating any torn
    tail left by a crash mid-append.

``python -m repro ingest --docs DIR``
    Run the unified ingestion lifecycle against an edited docs tree
    (write one with ``repro corpus --out DIR``, edit pages in place):
    on-disk edits are overlaid onto the corpus, the revised artifact is
    resolved (delta-from-parent when the embedding model supports it),
    the engine swaps onto the new epoch, and exactly the affected cache
    entries are invalidated.  An unedited tree is a detected no-op.
    Prints the :class:`~repro.ingest.IngestReport` summary as JSON.

All question-answering commands serve through the
:class:`~repro.service.ReproService` front door (see
:func:`repro.api.open_service`), over one cached index artifact, so a
multi-command process builds the index exactly once and every request —
single or batch — is served by the same scheduler.  The global
``--shards N`` flag partitions the index into N shards built in parallel
and served scatter-gather — answers are byte-identical at any N.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Sequence

from pathlib import Path

from repro.api import open_service
from repro.config import (
    AdmissionConfig,
    ReplicationConfig,
    ReproConfig,
    RetrievalConfig,
    ShardingConfig,
)
from repro.corpus import CorpusBuilder, build_default_corpus
from repro.durability import recover_journal, scan_journal
from repro.errors import ReproError
from repro.embeddings import EMBEDDING_MODEL_NAMES
from repro.evaluation import (
    BlindGrader,
    compare_modes,
    render_comparison,
    render_score_histogram,
    run_chaos_experiment,
    run_experiment,
    run_robustness_sweep,
)
from repro.history import InteractionStore
from repro.mail.appsscript import replay_dead_letters
from repro.evaluation.casestudies import CASE_STUDY_1_QID, CASE_STUDY_2_QID, run_case_study
from repro.evaluation.benchmark import krylov_benchmark
from repro.llm import CHAT_MODEL_NAMES
from repro.observability import MetricsRegistry, use_registry
from repro.resilience import FaultConfig, FaultInjector
from repro.retrieval import ManualPageKeywordSearch

_MODES = ("baseline", "rag", "rag+rerank")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PETSc AI assistant reproduction — command line tools",
    )
    parser.add_argument(
        "--model", default="gpt-4o-sim", choices=CHAT_MODEL_NAMES, help="chat model"
    )
    parser.add_argument(
        "--embedding", default="petsc-embed-large", choices=EMBEDDING_MODEL_NAMES,
        help="embedding model",
    )
    parser.add_argument(
        "--mode", default="rag+rerank", choices=_MODES, help="pipeline mode"
    )
    parser.add_argument(
        "--fast", action="store_true", help="disable the LLM latency simulation"
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="partition the index into N shards "
             "(answers are identical at any N)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ask = sub.add_parser("ask", help="answer one question")
    ask.add_argument("question", help="the question text")
    ask.add_argument("--show-contexts", action="store_true")
    ask.add_argument(
        "--trace", action="store_true",
        help="render the span tree of the invocation to stderr",
    )

    sub.add_parser("evaluate", help="run the benchmark for --mode")
    sub.add_parser("compare", help="run all three modes and print Fig. 6 panels")

    corpus = sub.add_parser("corpus", help="write the docs tree to disk")
    corpus.add_argument("--out", required=True, help="output directory")

    case = sub.add_parser("casestudy", help="reproduce a paper case study")
    case.add_argument("number", type=int, choices=(1, 2))

    chaos = sub.add_parser("chaos", help="run the benchmark under injected faults")
    chaos.add_argument("--seed", type=int, default=0, help="fault-schedule seed")
    chaos.add_argument(
        "--transient-rate", type=float, default=0.3,
        help="per-call probability of an injected transient error",
    )
    chaos.add_argument(
        "--latency-rate", type=float, default=0.0,
        help="per-call probability of an injected latency spike",
    )
    chaos.add_argument(
        "--truncate-rate", type=float, default=0.0,
        help="per-call probability of a truncated LLM reply",
    )
    chaos.add_argument(
        "--overload-factor", type=int, default=0,
        help="also run the robustness sweep: an overload burst at this "
             "multiple of admitted capacity plus a torn-write crash recovery "
             "(0 = classic chaos only)",
    )
    chaos.add_argument(
        "--shard-fault-rate", type=float, default=0.25,
        help="per-probe probability that a shard's primary replica fails "
             "(0 disables shard faults and the sweep's shard phase)",
    )
    chaos.add_argument(
        "--replicas", type=int, default=2,
        help="serving copies per shard for the replicated scatter "
             "(1 = single copy: shard faults degrade coverage instead "
             "of failing over)",
    )

    metrics = sub.add_parser(
        "metrics", help="run a workload and print the metrics registry"
    )
    metrics.add_argument("--json", action="store_true", help="machine-readable output")
    metrics.add_argument(
        "--questions", type=int, default=8,
        help="benchmark questions to drive through the pipeline",
    )
    metrics.add_argument("--seed", type=int, default=0, help="fault-schedule seed")
    metrics.add_argument(
        "--transient-rate", type=float, default=0.0,
        help="per-call probability of an injected transient error",
    )
    metrics.add_argument(
        "--shard-fault-rate", type=float, default=0.0,
        help="per-probe probability that a shard's primary replica fails",
    )
    metrics.add_argument(
        "--replicas", type=int, default=1,
        help="serving copies per shard; failover counters land in the "
             "measured registry",
    )

    batch = sub.add_parser(
        "batch", help="answer a file of questions through the batched engine"
    )
    batch.add_argument(
        "path", help="questions file: one per line, or a JSON array of strings"
    )
    batch.add_argument(
        "--workers", type=int, default=None,
        help="worker threads (default: engine config)",
    )
    batch.add_argument("--seed", type=int, default=0, help="batch seed (request ids derive from it)")
    batch.add_argument("--show-answers", action="store_true")
    batch.add_argument(
        "--rate", type=float, default=None,
        help="enable admission control at this many requests/second",
    )
    batch.add_argument(
        "--burst", type=int, default=None,
        help="token-bucket burst size (default: ceil of --rate)",
    )
    batch.add_argument(
        "--queue-depth", type=int, default=64,
        help="bounded queue depth before requests shed",
    )
    batch.add_argument(
        "--queue-timeout", type=float, default=4.0,
        help="max simulated seconds a request may wait queued",
    )
    batch.add_argument(
        "--arrival-interval", type=float, default=0.0,
        help="simulated seconds between request arrivals (0 = one burst)",
    )

    ingest = sub.add_parser(
        "ingest",
        help="ingest an edited docs tree through the unified write path",
    )
    ingest.add_argument(
        "--docs", default=None, metavar="DIR",
        help="docs tree with edits to overlay (from `repro corpus --out DIR`); "
             "omit to run a no-op ingest of the unchanged corpus",
    )
    ingest.add_argument(
        "--warm", type=int, default=0, metavar="N",
        help="answer the first N benchmark questions before ingesting, so the "
             "report shows scoped cache invalidation at work",
    )

    recover = sub.add_parser(
        "recover", help="recover a crash-safe journal, dropping any torn tail"
    )
    recover.add_argument("path", help="journal file to recover")
    recover.add_argument(
        "--kind", default="auto", choices=("auto", "history", "dead-letters", "raw"),
        help="journal flavor (auto sniffs the first record)",
    )
    recover.add_argument(
        "--dry-run", action="store_true",
        help="report what recovery would keep without truncating the file",
    )

    return parser


def _config(args: argparse.Namespace) -> ReproConfig:
    return ReproConfig(
        chat_model=args.model,
        retrieval=RetrievalConfig(embedding_model=args.embedding),
        iterations_per_token=0 if args.fast else None,
        sharding=ShardingConfig(num_shards=args.shards),
    )


def _grader(bundle) -> BlindGrader:
    keyword = ManualPageKeywordSearch(bundle)
    return BlindGrader(
        registry=bundle.registry, known_identifiers=keyword.known_identifiers()
    )


def cmd_ask(args: argparse.Namespace) -> int:
    service = open_service(_config(args))
    result = service.answer(args.question, mode=args.mode)
    print(result.answer)
    if args.show_contexts and result.contexts:
        print("\n-- contexts --", file=sys.stderr)
        for c in result.contexts:
            print(f"  {c.score:.3f}  {c.document.metadata.get('source')}", file=sys.stderr)
    resilience_note = f" | attempts {result.attempts}" if result.attempts > 1 else ""
    if result.degraded:
        resilience_note += f" | degraded: {','.join(result.degraded)}"
    if result.coverage < 1.0:
        resilience_note += f" | coverage {result.coverage:.2f}"
    print(
        f"\n[{result.mode} | {result.model} | rag {1000 * result.rag_seconds:.1f} ms | "
        f"llm {1000 * result.llm_seconds:.1f} ms{resilience_note}]",
        file=sys.stderr,
    )
    if args.trace and result.trace is not None:
        print("\n-- trace --", file=sys.stderr)
        print(result.trace.render(), file=sys.stderr)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    bundle = build_default_corpus()
    service = open_service(_config(args), bundle=bundle)
    run = run_experiment(service, _grader(bundle), mode=args.mode)
    print(render_score_histogram(run, title=f"{args.mode} ({args.model} + {args.embedding})"))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    bundle = build_default_corpus()
    grader = _grader(bundle)
    # One service serves all three modes from the same index artifact.
    service = open_service(_config(args), bundle=bundle)
    runs = {
        mode: run_experiment(service, grader, mode=mode) for mode in _MODES
    }
    print(render_comparison(compare_modes(runs["baseline"], runs["rag"]),
                            title="Fig. 6a — baseline vs RAG"))
    print()
    print(render_comparison(compare_modes(runs["baseline"], runs["rag+rerank"]),
                            title="Fig. 6b — baseline vs reranking-enhanced RAG"))
    print()
    print(render_comparison(compare_modes(runs["rag"], runs["rag+rerank"]),
                            title="Fig. 6c — RAG vs reranking-enhanced RAG"))
    return 0


def cmd_corpus(args: argparse.Namespace) -> int:
    root = CorpusBuilder().write_tree(args.out)
    n = sum(1 for _ in root.rglob("*.md"))
    print(f"wrote {n} Markdown files under {root}")
    return 0


def cmd_casestudy(args: argparse.Namespace) -> int:
    bundle = build_default_corpus()
    service = open_service(_config(args), bundle=bundle)
    qid = CASE_STUDY_1_QID if args.number == 1 else CASE_STUDY_2_QID
    res = run_case_study(qid, service, _grader(bundle))
    print(f"Case Study {args.number} (paper Fig. {6 + args.number})")
    print(res.render())
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    bundle = build_default_corpus()
    fault_config = FaultConfig(
        transient_rate=args.transient_rate,
        latency_spike_rate=args.latency_rate,
        truncation_rate=args.truncate_rate,
        shard_fault_rate=args.shard_fault_rate,
    )
    cfg = _config(args)
    cfg.replication = ReplicationConfig(replicas=args.replicas)
    title = f"chaos sweep — {args.mode} ({args.model})"
    if args.overload_factor > 0:
        sweep = run_robustness_sweep(
            bundle, cfg, seed=args.seed, fault_config=fault_config,
            mode=args.mode, overload_factor=args.overload_factor,
            shard_fault_rate=args.shard_fault_rate, replicas=args.replicas,
        )
        print(sweep.render(title=title))
        return 0
    run = run_chaos_experiment(
        bundle, cfg, seed=args.seed, fault_config=fault_config, mode=args.mode
    )
    print(run.render(title=title))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    bundle = build_default_corpus()
    injector = (
        FaultInjector(
            args.seed,
            FaultConfig(
                transient_rate=args.transient_rate,
                shard_fault_rate=args.shard_fault_rate,
            ),
        )
        if args.transient_rate > 0 or args.shard_fault_rate > 0
        else None
    )
    cfg = _config(args)
    # Failover counters land in the measured registry alongside the
    # workload's.
    cfg.replication = ReplicationConfig(replicas=args.replicas)
    # Open the engine *before* scoping the registry: index build /
    # cache counters vary with process history (first call builds,
    # later calls hit), and folding them into the measured registry
    # would break the same-workload digest-equality guarantee.
    service = open_service(cfg, bundle=bundle, fault_injector=injector)
    registry = MetricsRegistry()
    traces = []
    with use_registry(registry):
        for q in krylov_benchmark()[: args.questions]:
            try:
                result = service.answer(q.text, mode=args.mode)
            except ReproError:
                continue
            if result.trace is not None:
                traces.append(result.trace)
    span_counts: dict[str, int] = {}
    for trace in traces:
        for name, n in trace.span_counts().items():
            span_counts[name] = span_counts.get(name, 0) + n
    span_digest = hashlib.sha256(
        json.dumps([t.structure_digest() for t in traces]).encode()
    ).hexdigest()
    shards = service.engine.shard_summary()
    if args.json:
        payload = {
            "workload": {
                "mode": args.mode,
                "model": args.model,
                "questions": args.questions,
                "seed": args.seed,
                "transient_rate": args.transient_rate,
                "replicas": args.replicas,
                "shard_fault_rate": args.shard_fault_rate,
            },
            "digest": registry.digest(),
            "span_digest": span_digest,
            "spans": dict(sorted(span_counts.items())),
            "metrics": registry.deterministic_view(),
            "shards": shards,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(registry.render_text())
        print(
            f"\nshards ({shards['num_shards']}, "
            f"composite {shards['composite_digest'][:12]}):"
        )
        for row in shards["shards"]:
            print(
                f"  shard {row['shard']}: {row['chunks']:>4} chunks, "
                f"{row['vectors']:>4} vectors, {row['manual_pages']:>3} pages  "
                f"[{row['digest'][:12]}]  replicas={shards['replicas']}"
            )
        print(f"\nspans: {dict(sorted(span_counts.items()))}")
        print(f"metrics digest: {registry.digest()}")
        print(f"span digest:    {span_digest}")
    return 0


def _read_questions(path: str) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ReproError(f"cannot read questions file {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReproError(f"invalid JSON questions file {path}: {exc}") from exc
        if not isinstance(data, list) or not all(isinstance(q, str) for q in data):
            raise ReproError(f"JSON questions file {path} must be an array of strings")
        questions = [q.strip() for q in data if q.strip()]
    else:
        questions = [line.strip() for line in text.splitlines() if line.strip()]
    if not questions:
        raise ReproError(f"questions file {path} is empty")
    return questions


def cmd_batch(args: argparse.Namespace) -> int:
    questions = _read_questions(args.path)
    registry = MetricsRegistry()
    config = _config(args)
    arrivals = None
    if args.rate is not None:
        config.admission = AdmissionConfig(
            enabled=True,
            requests_per_second=args.rate,
            burst=args.burst if args.burst is not None else max(1, int(args.rate)),
            queue_depth=args.queue_depth,
            queue_timeout_seconds=args.queue_timeout,
        )
        arrivals = [i * args.arrival_interval for i in range(len(questions))]
    service = open_service(config, registry=registry)
    batch = service.answer_many(
        questions, mode=args.mode, workers=args.workers, seed=args.seed,
        arrivals=arrivals,
    )
    print(batch.render(show_answers=args.show_answers))
    print("cache stats:")
    for cache in ("answer_cache", "retrieval_cache", "embedding_cache"):
        hits = registry.counter(f"repro.engine.{cache}.hits").value
        misses = registry.counter(f"repro.engine.{cache}.misses").value
        total = hits + misses
        rate = f"{hits / total:.1%}" if total else "n/a"
        print(f"  {cache:<18}{hits:>6} hits / {misses:>6} misses  ({rate})")
    # Sheds are the admission layer doing its job, not a failure; the
    # exit code reflects only requests that reached the engine.
    return 0 if batch.answered_count == batch.admitted_count else 1


def cmd_ingest(args: argparse.Namespace) -> int:
    from repro.corpus.builder import overlay_tree
    from repro.ingest import ingest_corpus

    bundle = build_default_corpus()
    service = open_service(_config(args), bundle=bundle)
    for q in krylov_benchmark()[: args.warm]:
        service.answer(q.text, mode=args.mode)
    revised = overlay_tree(bundle, args.docs) if args.docs else bundle
    report = ingest_corpus(service.engine, revised)
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    if report.noop:
        print("corpus unchanged: no-op ingest, serving state untouched",
              file=sys.stderr)
    else:
        print(
            f"epoch {report.epoch} | resolved via {report.resolution} | "
            f"embedded {report.delta.get('embedded', 0)} of "
            f"{report.delta.get('total', 0)} chunks",
            file=sys.stderr,
        )
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if not path.is_file():
        raise ReproError(f"no journal at {path}")
    kind = args.kind
    if kind == "auto":
        first = scan_journal(path).records[:1]
        if first and "interaction_id" in first[0]:
            kind = "history"
        elif first and "op" in first[0]:
            kind = "dead-letters"
        else:
            kind = "raw"
    truncate = not args.dry_run
    if kind == "history":
        store, report = InteractionStore.recover(path, truncate=truncate)
        print(f"history journal: {len(store)} interactions recovered")
    elif kind == "dead-letters":
        report = recover_journal(path, truncate=truncate)
        depth = len(replay_dead_letters(report.records))
        print(f"dead-letter journal: {report.intact_count} ops recovered, "
              f"queue depth {depth}")
    else:
        report = recover_journal(path, truncate=truncate)
        print(f"journal: {report.intact_count} records recovered")
    if report.truncated:
        action = "would drop" if args.dry_run else "dropped"
        print(
            f"torn tail: {action} {report.dropped_bytes} bytes at offset "
            f"{report.intact_bytes} ({report.reason})"
        )
    else:
        print("journal clean: nothing to drop")
    print(json.dumps(report.summary(), indent=2, sort_keys=True))
    return 0


_COMMANDS = {
    "ask": cmd_ask,
    "batch": cmd_batch,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "corpus": cmd_corpus,
    "casestudy": cmd_casestudy,
    "chaos": cmd_chaos,
    "ingest": cmd_ingest,
    "metrics": cmd_metrics,
    "recover": cmd_recover,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

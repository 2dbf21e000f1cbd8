"""The staged ingestion lifecycle: one write path for the knowledge base.

:func:`ingest_corpus` is the one way the content a live
:class:`~repro.engine.QueryEngine` serves changes: plan the shards of a
corpus revision, resolve the target artifact (memory → disk → build
over the lineage parent, all inside the index layer), diff it against
the artifact the engine is serving, and swap the engine onto the new
epoch, carrying forward exactly the unaffected cache entries.  A no-op
ingest (same corpus, same config) touches nothing: no epoch advance, no
cache churn, no disk writes — the serving digest is byte-identical
before and after.

Every stage reports through :func:`repro.observability.stage` under
``repro.ingest.*`` metrics, so operators see chunk/diff/build/swap
timing and the re-embed counters that prove a one-paragraph edit did
not re-embed a shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.corpus.builder import CorpusBundle
from repro.index import CATALOG, plan_shards
from repro.ingest.delta import diff_chunks
from repro.observability.stage import stage

if TYPE_CHECKING:
    from repro.engine.engine import QueryEngine


@dataclass
class IngestReport:
    """What one ingest run did, stage by stage.

    ``resolution`` names how the target artifact was obtained:
    ``noop`` (already serving it), the lane the resolver reported for
    this call — ``memory``/``disk`` (cache hits), ``delta`` (a build
    that copied the lineage parent's rows for unchanged chunks) or
    ``full`` (a build that embedded every chunk).
    """

    digest: str
    previous_digest: str
    epoch: int
    swapped: bool
    noop: bool
    resolution: str
    delta: dict = field(default_factory=dict)
    invalidation: dict = field(default_factory=dict)

    def summary(self) -> dict:
        return {
            "digest": self.digest,
            "previous_digest": self.previous_digest,
            "epoch": self.epoch,
            "swapped": self.swapped,
            "noop": self.noop,
            "resolution": self.resolution,
            "delta": dict(self.delta),
            "invalidation": dict(self.invalidation),
        }


def ingest_corpus(engine: "QueryEngine", bundle: CorpusBundle) -> IngestReport:
    """Run the full ingestion lifecycle for a corpus revision.

    Resolves the artifact the engine *should* be serving for
    ``bundle`` under its current config, swaps the engine onto it
    (advancing the epoch) and carries forward the unaffected cache entries.
    Safe to call with an unchanged corpus: the run is detected as a
    no-op before any build or cache work happens.
    """
    registry = engine._metrics()
    registry.counter("repro.ingest.runs").inc()
    previous = engine.artifact

    with stage("ingest:resolve", metric="repro.ingest.resolve", registry=registry):
        plan = plan_shards(bundle, engine.config)
    if plan.composite == previous.digest:
        registry.counter("repro.ingest.noops").inc()
        return IngestReport(
            digest=previous.digest,
            previous_digest=previous.digest,
            epoch=engine.epoch,
            swapped=False,
            noop=True,
            resolution="noop",
        )

    with stage("ingest:build", metric="repro.ingest.build", registry=registry):
        artifact, resolution = CATALOG.resolve(plan, engine.config)

    with stage("ingest:diff", metric="repro.ingest.diff", registry=registry):
        delta = diff_chunks(
            previous.chunks,
            artifact.chunks,
            parent_digest=previous.digest,
            target_digest=artifact.digest,
            moved=artifact.embedding.moved_since(previous.embedding),
        )

    with stage("ingest:swap", metric="repro.ingest.swap", registry=registry):
        swapped = engine.swap_artifact(artifact, delta)

    # What this call published, not the engine re-read: another ingest
    # may have swapped since.
    published, invalidation = swapped or (engine.generation, {})
    return IngestReport(
        digest=artifact.digest,
        previous_digest=previous.digest,
        epoch=published.epoch,
        swapped=swapped is not None,
        noop=False,
        resolution=resolution,
        delta=delta.summary(),
        invalidation=invalidation,
    )

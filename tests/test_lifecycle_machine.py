"""Stateful model checking of the ingest-and-ask lifecycle.

A hypothesis ``RuleBasedStateMachine`` drives one ``open_service`` over
a small synthetic corpus through asks, batches with duplicates, ingests
(an edit, an add, a remove or a no-op), the same revision ingested
twice, a second service on the same config ingesting its own revision
(one shared lineage), and a raced pair of ingests diffed from one
parent.  The model is the service's document dict; the reference is
the from-scratch artifact of that dict, resolved through a private
:class:`~repro.index.IndexCatalog` so the process catalog under test is
never touched (DESIGN §12.4).

After every step:

* every answer a rule saw equals the reference pipeline's answer — the
  text and each context's ``(doc_id, score)``;
* no exception escapes: with no faults injected and no admission
  pressure, even a typed ``ReproError`` is a failure;
* ``engine.epoch`` never goes down;
* the shards a step delta-built account for every chunk:
  ``embedded + reused == len(chunks)`` summed over them;
* each service serves the reference digest, and every shard matrix is
  ``np.array_equal`` to the reference build's.

Tier-1 runs a fixed, derandomized budget.  ``--hypothesis-profile
lifecycle-random`` (registered in ``tests/conftest.py``) runs random
seeds with five times the examples.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.api import open_service
from repro.corpus.builder import CorpusBundle
from repro.corpus.facts import FactRegistry
from repro.index import CATALOG, IndexCatalog, clear_index_cache, plan_shards
from repro.ingest import diff_chunks, ingest_corpus
from repro.observability import MetricsRegistry, get_registry, use_registry
from repro.pipeline.rag import pipeline_from_artifact
from tests.conftest import LIFECYCLE_EXAMPLES
from tests.test_ingest import _WORDS, _cfg, _long_doc, _page, _texts

STEPS = 20
QUESTIONS = (
    "How does GMRES restart?",
    "What residual tolerance does the Krylov solver use?",
    "Which preconditioner is Jacobi?",
    "What does the monitor report on breakdown?",
)
MODES = ("rag", "rag+rerank")

_revisions = st.tuples(
    st.sampled_from(["edit", "add", "remove", "noop"]), st.integers(0, 50), _texts
)


def _scored(result) -> tuple:
    return result.answer, [(c.doc_id, c.score) for c in result.contexts]


class LifecycleMachine(RuleBasedStateMachine):
    def __init__(self, cfg):
        super().__init__()
        clear_index_cache()
        self.cfg = cfg
        self.facts = FactRegistry()
        self.docs = {
            d.metadata["source"]: d
            for d in [_long_doc("krylov solver"), *(_page(i, w) for i, w in enumerate(_WORDS[:5]))]
        }
        self.next_slot = len(self.docs)
        self.service = open_service(cfg, bundle=self._bundle(self.docs))
        #: The second service and its model, once its rule has run.
        self.other = None
        self.other_docs: dict = {}
        self.epochs = {id(self.service): 0}
        self.references: dict = {}
        self.pipelines: dict = {}
        #: Every shard object seen, by ``id`` (held, so no id is reused): a
        #: rebuild is a new object, even under a digest seen before.
        self.known = {id(s): s for s in self.service.engine.artifact.shards}
        #: Artifacts this step resolved besides the ones the services serve.
        self.resolved: list = []
        self.counted = self._chunks_counted()

    # ------------------------------------------------------------ the model
    def _bundle(self, docs: dict) -> CorpusBundle:
        return CorpusBundle(self.facts, list(docs.values()))

    def _revise(self, docs: dict, revision) -> dict:
        op, pick, body = revision
        docs = dict(docs)
        victim = sorted(docs)[pick % len(docs)]
        if op == "edit":
            docs[victim] = (
                _long_doc(body) if victim == "guide.md" else _page(int(victim[7:-3]), body)
            )
        elif op == "add":
            docs[f"pages/p{self.next_slot}.md"] = _page(self.next_slot, body)
            self.next_slot += 1
        elif op == "remove" and len(docs) > 2:
            del docs[victim]
        return docs

    def _reference(self, docs: dict):
        plan = plan_shards(self._bundle(docs), self.cfg)
        if plan.composite not in self.references:
            self.references[plan.composite] = IndexCatalog().resolve(plan, self.cfg)[0]
        return self.references[plan.composite]

    def _check_answer(self, result, docs: dict, question: str, mode: str) -> None:
        reference = self._reference(docs)
        key = (reference.digest, mode)
        if key not in self.pipelines:
            self.pipelines[key] = pipeline_from_artifact(reference, self.cfg, mode=mode)
        assert _scored(result) == _scored(self.pipelines[key].answer(question))

    def _ask_all(self) -> None:
        for mode in MODES:
            for question in QUESTIONS:
                got = self.service.answer(question, mode=mode)
                self._check_answer(got, self.docs, question, mode)

    @staticmethod
    def _chunks_counted() -> int:
        registry = get_registry()
        return (
            registry.counter("repro.ingest.chunks_embedded").value
            + registry.counter("repro.ingest.chunks_reused").value
        )

    # --------------------------------------------------------------- rules
    @rule(question=st.sampled_from(QUESTIONS), mode=st.sampled_from(MODES))
    def ask(self, question, mode):
        self._check_answer(self.service.answer(question, mode=mode), self.docs, question, mode)

    @rule(
        picks=st.lists(st.sampled_from(QUESTIONS), min_size=2, max_size=6).map(
            lambda qs: qs + qs[:1]  # at least one duplicate
        ),
        mode=st.sampled_from(MODES),
    )
    def batch(self, picks, mode):
        batch = self.service.answer_many(picks, mode=mode)
        assert [item.question for item in batch.items] == picks
        for item in batch.items:
            assert item.answered, item.error
            self._check_answer(item.result, self.docs, item.question, mode)

    @rule(revision=_revisions)
    def ingest(self, revision):
        docs = self._revise(self.docs, revision)
        before = self.service.engine.artifact.digest
        report = ingest_corpus(self.service.engine, self._bundle(docs))
        self.docs = docs
        assert report.noop == (report.digest == before)
        assert report.swapped == (not report.noop)

    @rule(revision=_revisions)
    def ingest_the_same_revision_twice(self, revision):
        docs = self._revise(self.docs, revision)
        engine = self.service.engine
        first = ingest_corpus(engine, self._bundle(docs))
        again = ingest_corpus(engine, self._bundle(docs))
        self.docs = docs
        assert again.noop and not again.swapped
        assert (again.digest, again.epoch) == (first.digest, engine.epoch)

    @rule(revision=_revisions, question=st.sampled_from(QUESTIONS))
    def second_service_ingests(self, revision, question):
        """Another service on the same config: one catalog, one lineage."""
        if self.other is None:
            self.other_docs = dict(self.docs)
            self.other = open_service(self.cfg, bundle=self._bundle(self.other_docs))
            self.epochs[id(self.other)] = 0
            # Opening may build (the live entry moved on since the
            # primary's artifact was published), and the ingest below
            # swaps this engine off it.
            self.resolved.append(self.other.engine.artifact)
        docs = self._revise(self.other_docs, revision)
        ingest_corpus(self.other.engine, self._bundle(docs))
        self.other_docs = docs
        got = self.other.answer(question, mode="rag")
        self._check_answer(got, self.other_docs, question, "rag")

    @rule(first=_revisions, second=_revisions)
    def raced_ingest(self, first, second):
        """Revision A is resolved and diffed from the live artifact; a
        whole ingest of B lands and serves asks; then A's delta swaps."""
        engine = self.service.engine
        live = engine.artifact
        a_docs = self._revise(self.docs, first)
        a, _lane = CATALOG.resolve(plan_shards(self._bundle(a_docs), self.cfg), self.cfg)
        delta = diff_chunks(
            live.chunks,
            a.chunks,
            parent_digest=live.digest,
            target_digest=a.digest,
            moved=a.embedding.moved_since(live.embedding),
        )
        self.resolved.append(a)
        self.docs = self._revise(self.docs, second)
        ingest_corpus(engine, self._bundle(self.docs))
        self.resolved.append(engine.artifact)
        self._ask_all()  # B's generation holds entries when A lands
        engine.swap_artifact(a, delta)
        self.docs = a_docs
        self._ask_all()

    # ---------------------------------------------------------- invariants
    def _served(self):
        yield self.service, self.docs
        if self.other is not None:
            yield self.other, self.other_docs

    @invariant()
    def epochs_never_go_down(self):
        for service, _docs in self._served():
            assert service.engine.epoch >= self.epochs[id(service)]
            self.epochs[id(service)] = service.engine.epoch

    @invariant()
    def delta_builds_account_for_every_chunk(self):
        artifacts = [*self.resolved, *(s.engine.artifact for s, _docs in self._served())]
        shards = {id(s): s for a in artifacts for s in a.shards}.values()
        built = [s for s in shards if id(s) not in self.known]
        delta_built = [s for s in built if s.parent_digest is not None]
        counted = self._chunks_counted()
        assert counted - self.counted == sum(len(s.chunks) for s in delta_built)
        self.counted = counted
        self.known.update((id(s), s) for s in built)
        self.resolved.clear()

    @invariant()
    def serving_equals_a_scratch_build(self):
        for service, docs in self._served():
            served, reference = service.engine.artifact, self._reference(docs)
            assert served.digest == reference.digest
            for shard, ref in zip(served.shards, reference.shards, strict=True):
                assert [c.doc_id for c in shard.chunks] == [c.doc_id for c in ref.chunks]
                assert np.array_equal(shard.store.matrix, ref.store.matrix)


def _machine_settings() -> settings:
    if settings.default is settings.get_profile("lifecycle-random"):
        return settings(settings.default, stateful_step_count=STEPS)
    return settings(
        max_examples=LIFECYCLE_EXAMPLES,
        stateful_step_count=STEPS,
        derandomize=True,
        deadline=None,
    )


@pytest.mark.parametrize("embedding", ["petsc-embed-small", "petsc-embed-large"])
@pytest.mark.parametrize(("shards", "replicas"), [(1, 1), (4, 2)], ids=["1x1", "4x2"])
def test_lifecycle_matches_the_reference_model(shards, replicas, embedding):
    cfg = _cfg(shards, replicas=replicas, embedding=embedding)
    try:
        with use_registry(MetricsRegistry()):
            run_state_machine_as_test(lambda: LifecycleMachine(cfg), settings=_machine_settings())
    finally:
        clear_index_cache()

"""Tests for the question↔fact relevance model and hallucination generator."""

from __future__ import annotations

import pytest

from repro.api import open_service
from repro.corpus import build_default_corpus
from repro.corpus.facts import Fact, default_registry
from repro.llm.hallucination import HallucinationGenerator
from repro.llm.parametric import ParametricKnowledge
from repro.llm.relevance import RelevanceModel


@pytest.fixture(scope="module")
def rel(registry):
    return RelevanceModel(registry)


@pytest.fixture(scope="module")
def halluc(registry):
    return HallucinationGenerator(registry)


class TestRelevanceScoring:
    def test_identifier_mention_scores_high(self, rel, registry):
        fact = registry.fact("ksplsqr.rectangular")
        on = rel.score(fact, "Tell me about KSPLSQR for my problem")
        off = rel.score(fact, "Tell me about multigrid smoothers")
        assert on > off

    def test_prefix_stripped_solver_names(self, rel, registry):
        fact = registry.fact("preonly.check")
        s = rel.score(fact, "I ran with -ksp_type preonly and got a wrong answer")
        assert s > 0.9

    def test_paraphrase_without_identifiers(self, rel, registry):
        fact = registry.fact("mf.shell")
        s = rel.score(
            fact,
            "Can we solve without assembling the matrix, supplying only a routine "
            "that applies the operator?",
        )
        assert s > 0.35

    def test_generic_topic_weighs_less_than_specific(self, rel):
        assert rel.topic_weight("KSP") < rel.topic_weight("KSPLSQR")

    def test_multiword_topic_substring(self, rel, registry):
        fact = registry.fact("ksplsqr.rectangular")
        s = rel.score(fact, "how do I solve a least squares fitting problem?")
        assert s > 1.0


class TestRelevanceSelection:
    def test_select_orders_by_score(self, rel, registry):
        facts = [registry.fact("ksplsqr.rectangular"), registry.fact("pcgamg.amg")]
        picked = rel.select(facts, "Can KSPLSQR handle rectangular least squares systems?")
        assert picked[0].fact.fact_id == "ksplsqr.rectangular"

    def test_select_empty_when_nothing_relevant(self, rel, registry):
        facts = [registry.fact("pcgamg.amg")]
        assert rel.select(facts, "how do I bake sourdough bread") == []

    def test_max_facts_cap(self, rel, registry):
        facts = list(registry.facts.values())
        picked = rel.select(facts, "how do I control KSP convergence tolerances?", max_facts=3)
        assert len(picked) <= 3

    def test_relative_floor_prunes_tail(self, rel, registry):
        facts = list(registry.facts.values())
        strict = rel.select(facts, "What does KSPLSQR do?", relative=0.5)
        loose = rel.select(facts, "What does KSPLSQR do?", relative=0.0, min_score=0.35)
        assert len(strict) <= len(loose)

    def test_deterministic_tiebreak(self, rel, registry):
        facts = list(registry.facts.values())
        a = [sf.fact.fact_id for sf in rel.select(facts, "KSP tolerances?")]
        b = [sf.fact.fact_id for sf in rel.select(facts, "KSP tolerances?")]
        assert a == b


class TestLateFacts:
    """A fact registered after the model was built is scored, recalled
    and served like any other — no table is keyed on the ids of the day."""

    QUESTION = "What does KSPSolve do?"

    @staticmethod
    def _late(registry, fact_id="ksp.late"):
        # A second fact over a sentence the corpus already holds.
        held = registry.fact("ksp.solve_sequence")
        return Fact(fact_id, held.statement, ("KSPSolve",), ("KSPSolve",))

    def test_a_late_fact_is_scored_on_its_own_statement(self):
        registry = default_registry()
        rel = RelevanceModel(registry)
        late = registry.add_fact(self._late(registry))
        assert rel.score(late, self.QUESTION) > 0.9
        picked = rel.select(list(registry.facts.values()), self.QUESTION)
        assert "ksp.late" in [sf.fact.fact_id for sf in picked]
        # An id bound to another fact is scored on what it now says.
        rebound = Fact("ksp.late", "PCGAMG coarsens by smoothed aggregation.", ("PCGAMG",), ("PCGAMG",))
        registry.facts["ksp.late"] = rebound
        assert rel.score(rebound, "how does PCGAMG coarsen?") > rel.score(rebound, self.QUESTION)
        assert rel.score(rebound, self.QUESTION) == RelevanceModel(registry).score(rebound, self.QUESTION)

    def test_one_question_analysis_serves_several_selections(self, rel, registry):
        facts = list(registry.facts.values())
        features = rel.question_features(self.QUESTION)
        assert rel.select(facts, features) == rel.select(facts, self.QUESTION)
        assert rel.select(facts[::2], features, max_facts=3) == rel.select(
            facts[::2], self.QUESTION, max_facts=3
        )

    def test_parametric_recall_sees_the_registry_as_it_is_now(self):
        registry = default_registry()
        knowledge = ParametricKnowledge(registry, model_name="m", knowledge_rate=0.5)
        fresh = ParametricKnowledge(registry, model_name="m", knowledge_rate=0.5)
        before = knowledge.known_facts()
        assert before == [f for fid, f in registry.facts.items() if fresh.knows(fid)]
        assert knowledge.known_facts() is not before  # callers may keep the list
        everything = ParametricKnowledge(registry, model_name="m", knowledge_rate=1.0)
        assert len(everything.known_facts()) == len(registry.facts)
        late = registry.add_fact(self._late(registry))
        assert everything.known_facts()[-1] is late
        assert knowledge.known_facts() == [
            f for fid, f in registry.facts.items()
            if ParametricKnowledge(registry, model_name="m", knowledge_rate=0.5).knows(fid)
        ]
        rebound = self._late(registry, "ksp.abstraction")
        registry.facts["ksp.abstraction"] = rebound
        assert everything.known_facts()[0] is rebound
        del registry.facts["ksp.late"]
        assert late not in everything.known_facts() and not everything.knows("ksp.late")

    def test_through_the_front_door(self, fast_config):
        """Raised ``KeyError('ksp.late')`` from ``_paraphrase_score`` — not a
        ``ReproError``, so it went past the degradation ladder too."""
        bundle = build_default_corpus()
        service = open_service(fast_config, bundle=bundle)
        before = service.answer(self.QUESTION)
        model = service.pipeline_for("rag+rerank").chat_model
        late = model.registry.add_fact(self._late(model.registry))
        try:
            service.invalidate_query_caches()
            after = service.answer(self.QUESTION)
            assert not after.degraded
            assert late.statement in after.answer and late.statement not in before.answer
            assert late in model.registry.facts_in(after.prompt)
            assert (late in model.knowledge.known_facts()) is model.knowledge.knows("ksp.late")
        finally:
            # The artifact, and so its registry, is shared by the process.
            del model.registry.facts["ksp.late"]
            service.invalidate_query_caches()


class TestHallucination:
    def test_kspburb_uses_registered_fabrication(self, halluc, registry):
        text, falsehood = halluc.fabricate("KSPBurb", model_name="gpt-4o-sim")
        assert falsehood is not None and falsehood.false_id == "false.kspburb"
        assert registry.falsehood("false.kspburb") in registry.detect(text)[1]

    def test_unregistered_identifier_gets_template(self, halluc):
        text, falsehood = halluc.fabricate("KSPZorp", model_name="gpt-4o-sim")
        assert falsehood is None
        assert "KSPZorp" in text

    def test_fabrication_deterministic(self, halluc):
        a, _ = halluc.fabricate("KSPZorp", model_name="m")
        b, _ = halluc.fabricate("KSPZorp", model_name="m")
        assert a == b

    def test_topical_falsehood_matches_topic(self, halluc):
        f = halluc.topical_falsehood(
            "why does GMRES memory stay constant with restart?", model_name="m"
        )
        assert f is not None
        assert "KSPGMRES" in f.topics or "memory" in [t.lower() for t in f.topics]

    def test_topical_falsehood_none_for_offtopic(self, halluc):
        assert halluc.topical_falsehood("how do I cook pasta", model_name="m") is None

    def test_fabrications_never_returned_as_topical(self, halluc, registry):
        """Fabrication falsehoods only surface for explicitly named APIs."""
        for q in ("how do I monitor residuals?", "how do I do a direct solve?"):
            f = halluc.topical_falsehood(q, model_name="m")
            if f is not None:
                assert not f.fabrication

"""Unit tests for the fact registry and detection semantics."""

from __future__ import annotations

import pytest

from repro.corpus.facts import Fact, Falsehood, FactRegistry, default_registry
from repro.errors import CorpusError


def make_fact(**kw):
    defaults = dict(
        fact_id="test.fact",
        statement="KSPLSQR solves rectangular least squares problems.",
        signature=("KSPLSQR", "rectangular"),
        topics=("KSPLSQR",),
    )
    defaults.update(kw)
    return Fact(**defaults)


def asserts(signed, text):
    """Whether ``text`` asserts ``signed``, read through a registry that
    holds only it (detection has one entry point: the registry)."""
    reg = FactRegistry()
    if isinstance(signed, Fact):
        reg.add_fact(signed)
    else:
        reg.add_falsehood(signed)
    facts, falsehoods = reg.detect(text)
    return signed in facts + falsehoods


class TestFact:
    def test_signature_must_occur_in_statement(self):
        with pytest.raises(CorpusError):
            make_fact(signature=("NotThere",))

    def test_empty_signature_rejected(self):
        with pytest.raises(CorpusError):
            make_fact(signature=())

    def test_appears_in_positive(self):
        f = make_fact()
        assert asserts(f, "Use KSPLSQR for rectangular systems.")

    def test_appears_in_case_sensitive_identifier(self):
        f = make_fact()
        assert not asserts(f, "use ksplsqr for rectangular systems.")

    def test_appears_in_word_boundary(self):
        f = make_fact(signature=("KSPLSQR",))
        assert not asserts(f, "KSPLSQRX is something else")

    def test_sentence_scoping(self):
        f = make_fact()
        # Terms split across two sentences must NOT count.
        text = "KSPLSQR is a solver. Other matrices are rectangular."
        assert not asserts(f, text)

    def test_sentence_scoping_bullets(self):
        f = make_fact()
        text = "- KSPLSQR is a solver\n- some matrices are rectangular"
        assert not asserts(f, text)

    def test_same_sentence_counts(self):
        f = make_fact()
        assert asserts(f, "Note that KSPLSQR handles rectangular matrices fine.")


class TestFalsehood:
    def test_fabrication_flag(self):
        x = Falsehood(
            false_id="false.x",
            statement="KSPBurb is a block Richardson method.",
            signature=("KSPBurb",),
            fabrication=True,
        )
        assert x.fabrication
        assert asserts(x, "They said KSPBurb is a block Richardson method.")

    def test_bad_signature(self):
        with pytest.raises(CorpusError):
            Falsehood(false_id="f", statement="abc", signature=("missing",))


class TestFactRegistry:
    def test_duplicate_fact_rejected(self):
        reg = FactRegistry()
        reg.add_fact(make_fact())
        with pytest.raises(CorpusError):
            reg.add_fact(make_fact())

    def test_unknown_lookup(self):
        with pytest.raises(CorpusError):
            FactRegistry().fact("nope")
        with pytest.raises(CorpusError):
            FactRegistry().falsehood("nope")

    def test_facts_in(self):
        reg = FactRegistry()
        reg.add_fact(make_fact())
        found = reg.facts_in("KSPLSQR supports rectangular matrices.")
        assert [f.fact_id for f in found] == ["test.fact"]

    def test_statement_helper(self):
        reg = FactRegistry()
        reg.add_fact(make_fact())
        assert "KSPLSQR" in reg.statement("test.fact")


class TestDefaultRegistry:
    def test_builds_without_error(self, registry):
        assert len(registry.facts) >= 80
        assert len(registry.falsehoods) >= 15

    def test_every_fact_self_detects(self, registry):
        for fact in registry.facts.values():
            assert fact in registry.facts_in(fact.statement), fact.fact_id

    def test_every_falsehood_self_detects(self, registry):
        for f in registry.falsehoods.values():
            assert f in registry.detect(f.statement)[1], f.false_id

    def test_no_fact_triggers_falsehood(self, registry):
        """True statements must not be detected as falsehoods."""
        for fact in registry.facts.values():
            hits = registry.detect(fact.statement)[1]
            assert not hits, f"{fact.fact_id} triggers {[h.false_id for h in hits]}"

    def test_no_falsehood_triggers_fact(self, registry):
        """Wrong statements must not be detected as true facts."""
        for false in registry.falsehoods.values():
            hits = registry.facts_in(false.statement)
            assert not hits, f"{false.false_id} triggers {[h.fact_id for h in hits]}"

    def test_kspburb_is_fabrication(self, registry):
        assert registry.falsehood("false.kspburb").fabrication

    def test_facts_have_topics(self, registry):
        for fact in registry.facts.values():
            assert fact.topics, fact.fact_id

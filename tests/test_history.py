"""Tests for the interaction history store and blind scoring."""

from __future__ import annotations

import pytest

from repro.durability import reopen_journal
from repro.errors import HistoryError
from repro.history import BlindScoringSession, Interaction, InteractionStore, ScoreRecord


def make_interaction(store, q="How do I set tolerances?", a="Use KSPSetTolerances().", **kw):
    rec = Interaction(
        interaction_id=store.new_id(),
        question=q,
        answer=a,
        timestamp=kw.pop("timestamp", 1000.0),
        **kw,
    )
    return store.add(rec)


class TestScoreRecord:
    def test_valid_range(self):
        ScoreRecord(scorer="alice", score=4)
        with pytest.raises(HistoryError):
            ScoreRecord(scorer="alice", score=5)
        with pytest.raises(HistoryError):
            ScoreRecord(scorer="", score=3)


class TestInteractionStore:
    def test_add_and_get(self):
        store = InteractionStore()
        rec = make_interaction(store)
        assert store.get(rec.interaction_id) is rec
        assert len(store) == 1

    def test_duplicate_id_rejected(self):
        store = InteractionStore()
        rec = make_interaction(store)
        with pytest.raises(HistoryError):
            store.add(rec)

    def test_unknown_get(self):
        with pytest.raises(HistoryError):
            InteractionStore().get("int-999999")

    def test_search_by_text(self):
        store = InteractionStore()
        make_interaction(store, q="GMRES restart question", a="answer")
        make_interaction(store, q="nullspace question", a="answer")
        hits = store.search("gmres restart")
        assert len(hits) == 1

    def test_search_filters(self):
        store = InteractionStore()
        a = make_interaction(store, chat_model="gpt-4o-sim", mode="rag")
        make_interaction(store, chat_model="llama-3-8b-sim", mode="baseline")
        assert store.search(chat_model="gpt-4o-sim") == [a]
        assert store.search(mode="baseline")[0].chat_model == "llama-3-8b-sim"

    def test_search_min_score(self):
        store = InteractionStore()
        rec = make_interaction(store)
        make_interaction(store)
        store.add_score(rec.interaction_id, ScoreRecord(scorer="a", score=4))
        hits = store.search(min_mean_score=3.0)
        assert hits == [rec]

    def test_human_answers(self):
        store = InteractionStore()
        store.record_human_answer("q?", "expert answer", developer="barry")
        hits = store.search(human_only=True)
        assert len(hits) == 1
        assert "developer:barry" in hits[0].tags

    def test_double_scoring_rejected(self):
        store = InteractionStore()
        rec = make_interaction(store)
        store.add_score(rec.interaction_id, ScoreRecord(scorer="a", score=3))
        with pytest.raises(HistoryError):
            store.add_score(rec.interaction_id, ScoreRecord(scorer="a", score=4))

    def test_mean_score(self):
        store = InteractionStore()
        rec = make_interaction(store)
        assert rec.mean_score() is None
        store.add_score(rec.interaction_id, ScoreRecord(scorer="a", score=2))
        store.add_score(rec.interaction_id, ScoreRecord(scorer="b", score=4))
        assert rec.mean_score() == 3.0

    def test_as_documents_thresholds(self):
        store = InteractionStore()
        good = make_interaction(store, q="good q")
        bad = make_interaction(store, q="bad q")
        store.add_score(good.interaction_id, ScoreRecord(scorer="a", score=4))
        store.add_score(bad.interaction_id, ScoreRecord(scorer="a", score=1))
        docs = store.as_documents(min_mean_score=3.0)
        assert len(docs) == 1
        assert "good q" in docs[0].text
        assert docs[0].metadata["doc_type"] == "history"

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "history.journal"
        store = InteractionStore()
        reopen_journal(store, path, fsync=False)
        rec = make_interaction(store, chat_model="gpt-4o-sim", mode="rag")
        store.add_score(rec.interaction_id, ScoreRecord(scorer="a", score=3, incorrect_spans=[], comment="ok"))
        store.journal.close()
        loaded, _ = InteractionStore.recover(path)
        assert len(loaded) == 1
        rec2 = loaded.get(rec.interaction_id)
        assert rec2.scores[0].scorer == "a"
        # Counter continues after the highest recovered id.
        assert loaded.new_id() != rec.interaction_id

    def test_record_pipeline_result(self, baseline_pipeline):
        store = InteractionStore()
        result = baseline_pipeline.answer("What is KSP?")
        rec = store.record_pipeline_result(result, embedding_model="none")
        assert rec.mode == "baseline"
        assert rec.question == "What is KSP?"


class TestBlindScoring:
    def test_blinded_items_hide_provenance(self):
        store = InteractionStore()
        make_interaction(store, chat_model="gpt-4o-sim", mode="rag")
        session = BlindScoringSession(store, scorer="alice")
        items = session.pending_items()
        assert len(items) == 1
        assert not hasattr(items[0], "chat_model")

    def test_submit_and_disappear(self):
        store = InteractionStore()
        rec = make_interaction(store)
        session = BlindScoringSession(store, scorer="alice")
        session.submit(rec.interaction_id, 3, comment="fine")
        assert session.pending_items() == []
        assert rec.scores[0].score == 3

    def test_span_validation(self):
        store = InteractionStore()
        rec = make_interaction(store, a="the answer text")
        session = BlindScoringSession(store, scorer="alice")
        with pytest.raises(HistoryError):
            session.submit(rec.interaction_id, 2, incorrect_spans=["not present"])
        session.submit(rec.interaction_id, 2, correct_spans=["answer text"])

    def test_order_deterministic_per_scorer(self):
        store = InteractionStore()
        for i in range(10):
            make_interaction(store, q=f"q{i}", timestamp=float(i))
        a1 = [i.item_id for i in BlindScoringSession(store, scorer="a").pending_items()]
        a2 = [i.item_id for i in BlindScoringSession(store, scorer="a").pending_items()]
        b = [i.item_id for i in BlindScoringSession(store, scorer="b").pending_items()]
        assert a1 == a2
        assert a1 != b  # different scorers see different orders

    def test_empty_scorer_rejected(self):
        with pytest.raises(HistoryError):
            BlindScoringSession(InteractionStore(), scorer="")

"""Tests for the agentic memory prototype."""

from __future__ import annotations

import pytest

from repro.agentmem import AgentMemory
from repro.errors import HistoryError


class TestAgentMemory:
    def test_remember_keeps_the_episode(self):
        mem = AgentMemory()
        ep = mem.remember("GMRES restart question", "restart answer", timestamp=1.0)
        assert mem.episodes == [ep] and ep.answer == "restart answer"

    def test_capacity_bounded(self):
        mem = AgentMemory(short_term_capacity=5)
        for i in range(20):
            mem.remember(f"question {i} about solvers", f"a{i}", timestamp=float(i))
        assert len(mem.episodes) <= 5

    def test_consolidation_creates_notes(self):
        mem = AgentMemory(consolidation_threshold=3)
        for i in range(3):
            mem.remember(f"preconditioner question {i}", f"answer {i}", timestamp=float(i))
        mem.consolidate()
        assert any("precondition" in t for n in mem.notes for t in n.topic_terms)

    def test_consolidation_tracks_latest(self):
        mem = AgentMemory(consolidation_threshold=2)
        mem.remember("nullspace q one", "old answer", timestamp=1.0)
        mem.remember("nullspace q two", "new answer", timestamp=2.0)
        mem.consolidate()
        notes = mem.recall("a nullspace question")
        assert notes and "new answer" in notes[0].summary

    def test_recall_empty_when_unrelated(self):
        mem = AgentMemory(consolidation_threshold=2)
        mem.remember("gmres a", "x", timestamp=1.0)
        mem.remember("gmres b", "y", timestamp=2.0)
        mem.consolidate()
        assert mem.recall("completely unrelated cooking recipe") == []

    def test_note_refresh_not_duplicate(self):
        mem = AgentMemory(consolidation_threshold=2)
        for i in range(4):
            mem.remember(f"chebyshev question {i}", f"a{i}", timestamp=float(i))
        mem.consolidate()
        n1 = len(mem.notes)
        mem.consolidate()
        assert len(mem.notes) == n1

    def test_invalid_params(self):
        with pytest.raises(HistoryError):
            AgentMemory(short_term_capacity=0)
        with pytest.raises(HistoryError):
            AgentMemory(consolidation_threshold=1)

"""Unit tests for timing and RNG utilities."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import derive_seed, rng_for, stable_hash
from repro.utils.timing import StageTimer, TimingStats


class TestTimingStats:
    def test_from_samples(self):
        st_ = TimingStats.from_samples([1.0, 2.0, 3.0])
        assert st_.minimum == 1.0
        assert st_.maximum == 3.0
        assert st_.average == 2.0
        assert st_.count == 3
        assert st_.total == 6.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            TimingStats.from_samples([])

    def test_as_row_rounds(self):
        st_ = TimingStats.from_samples([0.4444, 3.1111])
        assert st_.as_row(2) == (0.44, 3.11, round((0.4444 + 3.1111) / 2, 2))


class TestStageTimer:
    def test_record_and_stats(self):
        t = StageTimer()
        t.record("rag", 0.5)
        t.record("rag", 1.5)
        s = t.stats("rag")
        assert s.average == 1.0

    def test_negative_rejected(self):
        t = StageTimer()
        with pytest.raises(ValueError):
            t.record("x", -1.0)

    def test_unknown_stage(self):
        with pytest.raises(KeyError):
            StageTimer().stats("nope")


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("KSPSolve") == stable_hash("KSPSolve")

    def test_namespace_decorrelates(self):
        assert stable_hash("x", "a") != stable_hash("x", "b")

    @given(st.text(max_size=100))
    def test_in_64bit_range(self, s):
        h = stable_hash(s)
        assert 0 <= h < (1 << 64)

    def test_derive_seed_order_sensitive(self):
        assert derive_seed("a", "b") != derive_seed("b", "a")

    def test_rng_for_reproducible(self):
        a = rng_for("seed", 1).random(5)
        b = rng_for("seed", 1).random(5)
        assert (a == b).all()

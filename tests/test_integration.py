"""Cross-module integration tests pinning the paper's headline claims."""

from __future__ import annotations

import pytest

from repro.api import open_service
from repro.evaluation import compare_modes, krylov_benchmark, run_experiment


@pytest.fixture(scope="module")
def runs(bundle, fast_config, grader):
    # A fresh service per mode: no answer-cache hits, and no first pass
    # served from the retrieval cache an earlier mode warmed, so every
    # run is timed cold.
    qs = krylov_benchmark()
    return {
        mode: run_experiment(
            open_service(fast_config, bundle=bundle), grader, mode=mode, questions=qs
        )
        for mode in ("baseline", "rag", "rag+rerank")
    }


class TestPaperShape:
    """The qualitative claims of Section V must hold on the full benchmark."""

    def test_rag_beats_baseline(self, runs):
        assert runs["rag"].mean_score() > runs["baseline"].mean_score() + 1.0

    def test_rerank_beats_rag(self, runs):
        assert runs["rag+rerank"].mean_score() >= runs["rag"].mean_score()

    def test_fig6b_no_negative_impact(self, runs):
        """Reranking-enhanced RAG never scores below baseline (paper: no
        negative impact observed on any question's score)."""
        cmp_ = compare_modes(runs["baseline"], runs["rag+rerank"])
        assert cmp_.worsened == []

    def test_fig6b_improves_majority(self, runs):
        cmp_ = compare_modes(runs["baseline"], runs["rag+rerank"])
        assert len(cmp_.improved) >= 25  # paper: 25 of 37

    def test_rerank_final_distribution(self, runs):
        """Paper: score 4 for 33/37 and 3 for the rest; ours must be all
        3s and 4s with a strong majority of 4s."""
        hist = runs["rag+rerank"].score_histogram()
        assert hist[0] == hist[1] == hist[2] == 0
        assert hist[4] >= 24

    def test_fig6c_rerank_improves_over_rag(self, runs):
        cmp_ = compare_modes(runs["rag"], runs["rag+rerank"])
        assert len(cmp_.improved) >= 2
        assert cmp_.worsened == []

    def test_fig6c_has_plus_three_jumps(self, runs):
        """Paper: two questions improved by 3 points under reranking."""
        cmp_ = compare_modes(runs["rag"], runs["rag+rerank"])
        assert len(cmp_.improvements_of(3)) >= 2

    def test_kspburb_hallucination_fixed_by_rag(self, runs):
        base = runs["baseline"].scores()["Q01"]
        rerank = runs["rag+rerank"].scores()["Q01"]
        assert base == 0   # confident fabrication, paper scored it 0
        assert rerank == 4  # grounded refusal

    def test_latency_ordering(self, runs):
        """RAG stage must be far cheaper than the (simulated) LLM stage
        even with the latency burn disabled, and rerank adds RAG time."""
        rag_t = runs["rag"].rag_stats()
        rerank_t = runs["rag+rerank"].rag_stats()
        assert rag_t is not None and rerank_t is not None
        # One cold wall-clock pass per mode: every rerank ask pays a first
        # pass too, and interference only ever adds time, so the floors
        # are compared, not the averages.
        assert rerank_t.minimum > rag_t.minimum


class TestDeterminism:
    def test_full_run_reproducible(self, service, grader):
        qs = krylov_benchmark()[:6]
        a = run_experiment(service, grader, questions=qs).scores()
        b = run_experiment(service, grader, questions=qs).scores()
        assert a == b


class TestPublicApi:
    def test_top_level_imports(self):
        import repro

        assert repro.__version__
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None or name == "__version__"

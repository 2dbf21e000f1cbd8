"""Tests for rubric, benchmark, grader, experiments, and reporting."""

from __future__ import annotations

import pytest

from repro.errors import EvaluationError
from repro.evaluation import (
    RUBRIC,
    BenchmarkQuestion,
    BlindGrader,
    Score,
    compare_modes,
    krylov_benchmark,
    render_comparison,
    render_latency_table,
    render_score_histogram,
    run_experiment,
)
from repro.evaluation.benchmark import validate_benchmark
from repro.evaluation.experiments import ExperimentRun
from repro.utils.timing import TimingStats


class TestRubric:
    def test_labels(self):
        assert set(RUBRIC) == set(Score)
        assert "Nonsensical" in RUBRIC[Score(0)]
        assert "Ideal" in RUBRIC[Score(4)]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            Score(5)

    def test_ordering(self):
        assert Score.IDEAL > Score.CORRECT > Score.MINOR_INACCURACIES


class TestBenchmark:
    def test_exactly_37_questions(self):
        assert len(krylov_benchmark()) == 37

    def test_gold_facts_resolve(self, registry):
        validate_benchmark(registry)

    def test_one_nonexistent_probe(self):
        kinds = [q.kind for q in krylov_benchmark()]
        assert kinds.count("nonexistent") == 1

    def test_standard_needs_key_facts(self):
        with pytest.raises(EvaluationError):
            BenchmarkQuestion(qid="QX", text="t")

    def test_invalid_kind(self):
        with pytest.raises(EvaluationError):
            BenchmarkQuestion(qid="QX", text="t", kind="weird")


class TestGraderStandard:
    @pytest.fixture()
    def question(self, registry):
        return BenchmarkQuestion(
            qid="QT", text="Can KSP solve rectangular systems?",
            key_facts=("ksplsqr.rectangular", "ksplsqr.no_invert"),
            extra_facts=("ksplsqr.normal_equiv",),
        )

    def test_ideal_answer(self, grader, registry, question):
        answer = "\n\n".join(registry.statement(f) for f in question.all_facts())
        assert grader.grade(question, answer).score == Score.IDEAL

    def test_correct_without_extras(self, grader, registry, question):
        answer = "\n\n".join(registry.statement(f) for f in question.key_facts)
        g = grader.grade(question, answer)
        assert g.score == Score.CORRECT
        assert g.extra_missing == ("ksplsqr.normal_equiv",)

    def test_half_coverage(self, grader, registry, question):
        g = grader.grade(question, registry.statement("ksplsqr.rectangular"))
        assert g.score == Score.MINOR_INACCURACIES

    def test_falsehood_scores_one(self, grader, registry, question):
        answer = (
            registry.statement("ksplsqr.rectangular")
            + "\n\n"
            + registry.falsehood("false.lsqr_square_only").statement
        )
        g = grader.grade(question, answer)
        assert g.score == Score.INCORRECT
        assert "false.lsqr_square_only" in g.falsehoods

    def test_pure_fabrication_scores_zero(self, grader, registry, question):
        answer = registry.falsehood("false.kspburb").statement
        g = grader.grade(question, answer)
        assert g.score == Score.NONSENSICAL

    def test_off_topic_scores_one(self, grader, registry, question):
        g = grader.grade(question, registry.statement("pcgamg.amg"))
        assert g.score == Score.INCORRECT

    def test_generic_fabrication_detected(self, grader, question):
        g = grader.grade(question, "KSPQuux is a new solver that handles this.")
        assert "KSPQuux" in g.fabrications

    def test_non_string_rejected(self, grader, question):
        with pytest.raises(EvaluationError):
            grader.grade(question, None)  # type: ignore[arg-type]


class TestGraderNonexistent:
    @pytest.fixture()
    def question(self):
        return next(q for q in krylov_benchmark() if q.kind == "nonexistent")

    def test_refusal_is_ideal(self, grader, question):
        g = grader.grade(question, "There is no PETSc function or object named KSPBurb.")
        assert g.score == Score.IDEAL
        assert g.refusal

    def test_fabrication_is_nonsensical(self, grader, registry, question):
        g = grader.grade(question, registry.falsehood("false.kspburb").statement)
        assert g.score == Score.NONSENSICAL

    def test_neither_is_incorrect(self, grader, question):
        g = grader.grade(question, "It configures the solver in some way.")
        assert g.score == Score.INCORRECT


class TestExperiments:
    @pytest.fixture(scope="class")
    def subset(self):
        return krylov_benchmark()[:5]

    def test_run_experiment(self, service, grader, subset):
        run = run_experiment(service, grader, mode="baseline", questions=subset)
        assert len(run.outcomes) == 5
        assert run.mode == "baseline"
        assert set(run.scores()) == {q.qid for q in subset}
        assert sum(run.score_histogram().values()) == 5
        assert 0 <= run.mean_score() <= 4

    def test_compare(self, service, grader, subset):
        base = run_experiment(service, grader, mode="baseline", questions=subset)
        new = run_experiment(service, grader, questions=subset)
        cmp_ = compare_modes(base, new)
        assert len(cmp_.deltas) == 5
        assert set(cmp_.improved) | set(cmp_.worsened) | set(cmp_.unchanged) == set(cmp_.deltas)

    def test_compare_mismatched_rejected(self, service, grader):
        a = run_experiment(service, grader, mode="baseline", questions=krylov_benchmark()[:2])
        b = run_experiment(service, grader, mode="baseline", questions=krylov_benchmark()[2:4])
        with pytest.raises(EvaluationError):
            compare_modes(a, b)

    def test_timing_collected(self, service, grader, subset):
        run = run_experiment(service, grader, questions=subset)
        assert run.rag_stats() is not None
        assert run.llm_stats().count == 5

    def test_baseline_has_no_rag_stats(self, service, grader, subset):
        run = run_experiment(service, grader, mode="baseline", questions=subset)
        assert run.rag_stats() is None

    def test_empty_mean_rejected(self):
        with pytest.raises(EvaluationError):
            ExperimentRun(mode="x", model="y").mean_score()


class TestReporting:
    def test_render_comparison(self, service, grader):
        subset = krylov_benchmark()[:3]
        base = run_experiment(service, grader, mode="baseline", questions=subset)
        new = run_experiment(service, grader, questions=subset)
        text = render_comparison(compare_modes(base, new), title="Fig 6x")
        assert "Fig 6x" in text
        assert "improved:" in text
        for q in subset:
            assert q.qid in text

    def test_render_histogram(self, service, grader):
        run = run_experiment(service, grader, mode="baseline", questions=krylov_benchmark()[:3])
        text = render_score_histogram(run, title="baseline")
        assert "score 4" in text and "mean score" in text

    def test_render_latency_table(self):
        rag = TimingStats.from_samples([0.16, 0.44, 3.11])
        rerank = TimingStats.from_samples([0.48, 1.05, 5.71])
        llm_a = TimingStats.from_samples([2.74, 9.56, 16.47])
        llm_b = TimingStats.from_samples([2.28, 9.63, 15.62])
        text = render_latency_table(rag, rerank, llm_a, llm_b)
        assert "RAG time" in text and "LLM response" in text
        assert "multiplies RAG time" in text

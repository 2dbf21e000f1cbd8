"""Experiment runner: evaluate pipelines over the benchmark and compare modes."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import EvaluationError
from repro.evaluation.benchmark import BenchmarkQuestion, krylov_benchmark
from repro.evaluation.grader import BlindGrader, GradedAnswer
from repro.pipeline.rag import PipelineResult
from repro.utils.timing import StageTimer, TimingStats


@dataclass
class QuestionOutcome:
    question: BenchmarkQuestion
    result: PipelineResult
    grade: GradedAnswer


@dataclass
class ExperimentRun:
    """All outcomes of one pipeline mode over the benchmark."""

    mode: str
    model: str
    outcomes: list[QuestionOutcome] = field(default_factory=list)
    timer: StageTimer = field(default_factory=StageTimer)

    def scores(self) -> dict[str, int]:
        return {o.question.qid: int(o.grade.score) for o in self.outcomes}

    def score_histogram(self) -> dict[int, int]:
        hist = {s: 0 for s in range(5)}
        for o in self.outcomes:
            hist[int(o.grade.score)] += 1
        return hist

    def mean_score(self) -> float:
        if not self.outcomes:
            raise EvaluationError("empty experiment run")
        return sum(int(o.grade.score) for o in self.outcomes) / len(self.outcomes)

    def rag_stats(self) -> TimingStats | None:
        try:
            return self.timer.stats("rag")
        except KeyError:
            return None

    def llm_stats(self) -> TimingStats:
        return self.timer.stats("llm")


@dataclass
class ModeComparison:
    """Per-question deltas between two modes (the Fig. 6 data)."""

    base_mode: str
    new_mode: str
    deltas: dict[str, int] = field(default_factory=dict)
    base_scores: dict[str, int] = field(default_factory=dict)
    new_scores: dict[str, int] = field(default_factory=dict)

    @property
    def improved(self) -> list[str]:
        return sorted(q for q, d in self.deltas.items() if d > 0)

    @property
    def worsened(self) -> list[str]:
        return sorted(q for q, d in self.deltas.items() if d < 0)

    @property
    def unchanged(self) -> list[str]:
        return sorted(q for q, d in self.deltas.items() if d == 0)

    def max_improvement(self) -> int:
        return max(self.deltas.values(), default=0)

    def improvements_of(self, points: int) -> list[str]:
        return sorted(q for q, d in self.deltas.items() if d == points)


def run_experiment(
    service,
    grader: BlindGrader,
    *,
    questions: list[BenchmarkQuestion] | None = None,
    mode: str | None = None,
) -> ExperimentRun:
    """Run every benchmark question through ``service`` and grade blind.

    ``service`` is a :class:`~repro.service.ReproService` (the front
    door — every question runs the full request lifecycle); ``mode``
    selects the pipeline mode, defaulting to the service's own.
    """
    mode = service.resolve_mode(mode)
    questions = questions if questions is not None else krylov_benchmark()
    run = ExperimentRun(mode=mode, model=service.model_name(mode))
    for q in questions:
        result = service.answer(q.text, mode=mode)
        grade = grader.grade(q, result.answer)
        run.outcomes.append(QuestionOutcome(question=q, result=result, grade=grade))
        if mode != "baseline":
            run.timer.record("rag", result.rag_seconds)
        run.timer.record("llm", result.llm_seconds)
    return run


def compare_modes(base: ExperimentRun, new: ExperimentRun) -> ModeComparison:
    """Per-question score deltas: ``new - base``."""
    base_scores = base.scores()
    new_scores = new.scores()
    if set(base_scores) != set(new_scores):
        raise EvaluationError(
            "cannot compare runs over different question sets: "
            f"{sorted(set(base_scores) ^ set(new_scores))}"
        )
    return ModeComparison(
        base_mode=base.mode,
        new_mode=new.mode,
        deltas={q: new_scores[q] - base_scores[q] for q in base_scores},
        base_scores=base_scores,
        new_scores=new_scores,
    )

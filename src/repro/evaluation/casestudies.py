"""The paper's two case studies (Figs. 7 and 8).

Case study 1 — the non-square / rectangular matrix question: plain RAG
fails to surface the "KSP can also be used to solve least squares
problems, using, for example, KSPLSQR" passage; reranking-enhanced RAG
retrieves it and the answer recommends KSPLSQR.

Case study 2 — the preallocation-diagnostic question: plain RAG misses
the paragraph about ``-info`` printing preallocation success during
matrix assembly; the model hallucinates an imaginary runtime option,
while reranking-enhanced RAG retrieves the paragraph.

``run_case_study`` executes one question under both configurations and
reports the retrieved contexts, the answers, the blind grades, and the
context overlap (the paper observed only one common context out of four
in case study 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import EvaluationError
from repro.evaluation.benchmark import BenchmarkQuestion, krylov_benchmark
from repro.evaluation.grader import BlindGrader, GradedAnswer
from repro.pipeline.rag import PipelineResult

#: The benchmark questions the paper's case studies correspond to.
CASE_STUDY_1_QID = "Q02"
CASE_STUDY_2_QID = "Q03"

#: The critical passages the reranker must surface (paper quotes).
CASE_STUDY_1_MARKER = "KSPLSQR"
CASE_STUDY_2_MARKER = "-info"


@dataclass
class CaseStudyResult:
    """Side-by-side comparison of RAG vs reranking-enhanced RAG."""

    question: BenchmarkQuestion
    rag: PipelineResult
    rerank: PipelineResult
    rag_grade: GradedAnswer
    rerank_grade: GradedAnswer
    marker: str = ""
    common_contexts: list[str] = field(default_factory=list)

    def marker_in_rag_context(self) -> bool:
        return any(self.marker in c.document.text for c in self.rag.contexts)

    def marker_in_rerank_context(self) -> bool:
        return any(self.marker in c.document.text for c in self.rerank.contexts)

    def render(self) -> str:
        lines = [
            f"Question ({self.question.qid}): {self.question.text}",
            "",
            f"--- LLM with RAG (score {int(self.rag_grade.score)}) ---",
            self.rag.answer,
            "",
            f"--- LLM with reranking-enhanced RAG (score {int(self.rerank_grade.score)}) ---",
            self.rerank.answer,
            "",
            f"critical passage {self.marker!r}: "
            f"in RAG context = {self.marker_in_rag_context()}, "
            f"in rerank context = {self.marker_in_rerank_context()}",
            f"contexts in common: {len(self.common_contexts)} of "
            f"{len(self.rerank.contexts)}",
        ]
        return "\n".join(lines)


def run_case_study(qid: str, service, grader: BlindGrader) -> CaseStudyResult:
    """Execute one case-study question under both configurations: one
    :class:`~repro.service.ReproService` serves the ``rag`` and the
    ``rag+rerank`` run through the request lifecycle."""
    try:
        question = next(q for q in krylov_benchmark() if q.qid == qid)
    except StopIteration:
        raise EvaluationError(f"unknown benchmark question {qid!r}") from None

    marker = {
        CASE_STUDY_1_QID: CASE_STUDY_1_MARKER,
        CASE_STUDY_2_QID: CASE_STUDY_2_MARKER,
    }.get(qid, "")

    rag_result = service.answer(question.text, mode="rag")
    rerank_result = service.answer(question.text, mode="rag+rerank")
    rag_ids = {c.doc_id for c in rag_result.contexts}
    common = [
        str(c.document.metadata.get("source", ""))
        for c in rerank_result.contexts
        if c.doc_id in rag_ids
    ]
    return CaseStudyResult(
        question=question,
        rag=rag_result,
        rerank=rerank_result,
        rag_grade=grader.grade(question, rag_result.answer),
        rerank_grade=grader.grade(question, rerank_result.answer),
        marker=marker,
        common_contexts=common,
    )

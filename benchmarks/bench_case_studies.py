"""E6/E7 — case studies 1 and 2 (paper Figs. 7 and 8).

Case study 1: the rectangular/non-square matrix question — the
reranking-enhanced RAG surfaces the "KSP can also be used to solve least
squares problems, using, for example, KSPLSQR" passage and recommends
KSPLSQR.

Case study 2: the preallocation-diagnostic question — the critical
``-info`` paragraph is retrieved by the reranking-enhanced pipeline.
"""

from __future__ import annotations

from repro.config import ReproConfig
from repro.evaluation.casestudies import (
    CASE_STUDY_1_QID,
    CASE_STUDY_2_QID,
    run_case_study,
)
from repro.api import open_service


def _service(bundle):
    return open_service(ReproConfig(iterations_per_token=0), bundle=bundle)


def test_case_study_1_ksplsqr(benchmark, bundle, grader):
    service = _service(bundle)

    def run():
        return run_case_study(CASE_STUDY_1_QID, service, grader)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("Case Study 1 (paper Fig. 7)")
    print(res.render())

    assert res.marker_in_rerank_context()
    assert "KSPLSQR" in res.rerank.answer
    assert int(res.rerank_grade.score) >= 3
    assert int(res.rerank_grade.score) >= int(res.rag_grade.score)


def test_case_study_2_info_option(benchmark, bundle, grader):
    service = _service(bundle)

    def run():
        return run_case_study(CASE_STUDY_2_QID, service, grader)

    res = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("Case Study 2 (paper Fig. 8)")
    print(res.render())

    assert res.marker_in_rerank_context()
    assert "-info" in res.rerank.answer
    assert int(res.rerank_grade.score) >= 3
    assert int(res.rerank_grade.score) >= int(res.rag_grade.score)

"""Evaluation: rubric, benchmark, blind grader, experiments, reporting.

Reproduces the paper's Section V: a 37-question benchmark on Krylov
methods, blind-scored 0–4 (Table I), comparing the GPT-4o-class baseline
against RAG and reranking-enhanced RAG (Figs. 6a–6c), plus the latency
measurements of Table II and the two case studies (Figs. 7–8).
"""

from repro.evaluation.rubric import RUBRIC, Score
from repro.evaluation.benchmark import BenchmarkQuestion, krylov_benchmark
from repro.evaluation.chaos import (
    ChaosOutcome,
    ChaosRun,
    OverloadOutcome,
    RecoveryOutcome,
    RobustnessRun,
    run_chaos_experiment,
    run_robustness_sweep,
)
from repro.evaluation.grader import BlindGrader, GradedAnswer
from repro.evaluation.experiments import (
    ExperimentRun,
    ModeComparison,
    compare_modes,
    run_experiment,
)
from repro.evaluation.reporting import (
    render_comparison,
    render_score_histogram,
    render_latency_table,
)

__all__ = [
    "RUBRIC",
    "Score",
    "BenchmarkQuestion",
    "krylov_benchmark",
    "ChaosOutcome",
    "ChaosRun",
    "OverloadOutcome",
    "RecoveryOutcome",
    "RobustnessRun",
    "run_chaos_experiment",
    "run_robustness_sweep",
    "BlindGrader",
    "GradedAnswer",
    "ExperimentRun",
    "ModeComparison",
    "compare_modes",
    "run_experiment",
    "render_comparison",
    "render_score_histogram",
    "render_latency_table",
]

"""repro — reproduction of "AI Assistants to Enhance and Exploit the
PETSc Knowledge Base" (ICPP 2025).

The package provides the complete assistant stack the paper describes,
over a synthetic PETSc documentation corpus and deterministic simulated
models (no network access required):

>>> from repro import open_workflow
>>> wf = open_workflow()                       # rag+rerank by default
>>> answer = wf.ask("What does KSPBurb do?")   # grounded refusal
>>> "no PETSc function" in answer.answer
True

Main entry points
-----------------
``open_service``              the serving front door: ReproConfig →
                              ReproService (one admission, cache and
                              scheduler path for every consumer)
``open_engine``               ReproConfig → QueryEngine (scatter-gather
                              over N shards × R replicas, 1 × 1 by default)
``ReproConfig``               root config nesting every subsystem's knobs
``build_default_corpus``      the synthetic PETSc knowledge base
``open_workflow``             corpus → RAG(+rerank) → LLM → postprocess
``open_pipeline``             the bare pipeline in baseline/rag/rag+rerank mode
``open_support_system``       the full Discord/mailing-list topology (Fig. 5)
``krylov_benchmark``          the 37-question evaluation set
``run_experiment``            grade a pipeline over the benchmark
"""

from repro.config import (
    EngineConfig,
    ReplicationConfig,
    ReproConfig,
    RetrievalConfig,
    ShardingConfig,
)
from repro.corpus import build_default_corpus
from repro.engine import QueryEngine
from repro.index import IndexArtifact, get_or_build_index
from repro.ingest import CorpusDelta, IngestReport, ingest_corpus
from repro.api import (
    open_engine,
    open_pipeline,
    open_service,
    open_support_system,
    open_workflow,
)
from repro.service import ReproService
from repro.pipeline import AugmentedWorkflow, RAGPipeline
from repro.evaluation import (
    BlindGrader,
    compare_modes,
    krylov_benchmark,
    run_experiment,
)

__version__ = "1.2.0"

__all__ = [
    "EngineConfig",
    "ReplicationConfig",
    "ReproConfig",
    "RetrievalConfig",
    "ShardingConfig",
    "build_default_corpus",
    "IndexArtifact",
    "QueryEngine",
    "ReproService",
    "CorpusDelta",
    "IngestReport",
    "get_or_build_index",
    "ingest_corpus",
    "open_engine",
    "open_pipeline",
    "open_service",
    "open_support_system",
    "open_workflow",
    "AugmentedWorkflow",
    "RAGPipeline",
    "BlindGrader",
    "compare_modes",
    "krylov_benchmark",
    "run_experiment",
    "__version__",
]

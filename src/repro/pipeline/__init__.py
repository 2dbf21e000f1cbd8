"""The augmented PETSc LLM workflow (paper Fig. 3).

Box 1 — locate material: vector RAG search + PETSc keyword search.
Box 2 — refine: reranking K candidates down to L.
Box 3 — the LLM call.
Box 4 — postprocess the Markdown output.

:class:`RAGPipeline` covers boxes 1–3 (with per-stage timing, which is
what Table II reports); :class:`AugmentedWorkflow` adds box 4 and the
shared interaction history.
"""

from repro.pipeline.rag import PipelineResult, RAGPipeline
from repro.pipeline.types import DegradationEvent, PipelineMode
from repro.pipeline.workflow import AugmentedWorkflow

__all__ = [
    "RAGPipeline",
    "PipelineResult",
    "PipelineMode",
    "DegradationEvent",
    "AugmentedWorkflow",
]

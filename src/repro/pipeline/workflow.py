"""The full augmented workflow: boxes 1–4 plus shared history (Fig. 3)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.corpus.builder import CorpusBundle
from repro.history import InteractionStore
from repro.pipeline.rag import PipelineResult
from repro.pipeline.types import PipelineMode
from repro.service import ReproService
from repro.postprocess import check_code_block, extract_code_blocks, render_html
from repro.postprocess.codecheck import CodeCheckResult


@dataclass
class WorkflowAnswer:
    """A pipeline result plus box-4 postprocessing artifacts."""

    result: PipelineResult
    html: str
    code_checks: list[CodeCheckResult]
    interaction_id: str | None = None

    @property
    def answer(self) -> str:
        return self.result.answer

    @property
    def all_code_ok(self) -> bool:
        return all(c.ok for c in self.code_checks)


class AugmentedWorkflow:
    """End-to-end question answering with postprocessing and history.

    One instance owns the corpus, the service it asks (in a chosen
    mode), the interaction store, and the identifier set used for code
    checking.
    """

    def __init__(
        self,
        bundle: CorpusBundle,
        service: ReproService,
        *,
        mode: str | PipelineMode | None = None,
        store: InteractionStore | None = None,
        embedding_model: str = "",
        record_history: bool = True,
        record_traces: bool = True,
    ) -> None:
        self.bundle = bundle
        #: The request front door every question goes through.
        self.service = service
        self.mode = service.resolve_mode(mode)
        self.store = store if store is not None else InteractionStore()
        self.embedding_model = embedding_model
        self.record_history = record_history
        self.record_traces = record_traces
        self._known = frozenset(bundle.manual_page_names)

    def feed_history_into_rag(self, *, min_mean_score: float = 3.0) -> int:
        """Index vetted past interactions into the RAG database.

        This is the paper's Fig. 3 dotted arrow from "Shared histories"
        back into box 1: question/answer pairs whose blind scores cleared
        ``min_mean_score`` become retrievable documents, so the assistant
        learns from its vetted answers.  Returns the number of documents
        added (idempotent: already-indexed interactions are skipped by
        the store's doc-id dedupe).
        """
        retriever = self.service.pipeline_for(self.mode).retriever
        if retriever is None:
            return 0
        docs = self.store.as_documents(min_mean_score=min_mean_score)
        # One write path: the insertion rides the ingest delta lane,
        # which applies the documents to the serving store and scopes
        # cache invalidation to exactly the entries the new material
        # can affect.
        from repro.ingest.lifecycle import apply_documents

        report = apply_documents(self.service.engine, docs, store=retriever.store)
        return len(report.added_ids)

    def ask(self, question: str, *, tags: list[str] | None = None) -> WorkflowAnswer:
        """Answer a question; postprocess and (optionally) record it."""
        result = self.service.answer(question, mode=self.mode)
        html = render_html(result.answer)
        checks = [
            check_code_block(blk, known_identifiers=self._known)
            for blk in extract_code_blocks(result.answer)
        ]
        interaction_id: str | None = None
        if self.record_history:
            rec = self.store.record_pipeline_result(
                result,
                embedding_model=self.embedding_model,
                tags=tags,
                include_trace=self.record_traces,
            )
            interaction_id = rec.interaction_id
        return WorkflowAnswer(
            result=result, html=html, code_checks=checks, interaction_id=interaction_id
        )

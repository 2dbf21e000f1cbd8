"""The full augmented workflow: boxes 1–4 plus shared history (Fig. 3)."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.corpus.builder import CorpusBundle
from repro.history import InteractionStore
from repro.ingest.lifecycle import ingest_corpus
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
    interaction_id: str

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
    ) -> None:
        self.bundle = bundle
        #: The request front door every question goes through.
        self.service = service
        self.mode = service.resolve_mode(mode)
        self.store = store if store is not None else InteractionStore()
        self.embedding_model = embedding_model
        self._known = frozenset(bundle.manual_page_names)

    def feed_history_into_rag(self, *, min_mean_score: float = 3.0) -> int:
        """Ingest vetted past interactions into the RAG database.

        This is the paper's Fig. 3 dotted arrow from "Shared histories"
        back into box 1: question/answer pairs whose blind scores cleared
        ``min_mean_score`` become ``history/<interaction-id>`` sources of
        the corpus, so the assistant learns from its vetted answers.  A
        feed is an ingest: the engine swaps onto the index of the revised
        corpus, which this workflow then holds as :attr:`bundle`, so the
        fed material serves every mode and survives later ingests of that
        bundle.  Returns the number of new sources; with none, nothing is
        touched.
        """
        held = {doc.metadata.get("source") for doc in self.bundle.documents}
        fresh = [
            doc
            for doc in self.store.as_documents(min_mean_score=min_mean_score)
            if doc.metadata["source"] not in held
        ]
        if not fresh:
            return 0
        revised = replace(self.bundle, documents=[*self.bundle.documents, *fresh])
        ingest_corpus(self.service.engine, revised)
        self.bundle = revised
        return len(fresh)

    def ask(self, question: str, *, tags: list[str] | None = None) -> WorkflowAnswer:
        """Answer a question, postprocess it and record it."""
        result = self.service.answer(question, mode=self.mode)
        html = render_html(result.answer)
        checks = [
            check_code_block(blk, known_identifiers=self._known)
            for blk in extract_code_blocks(result.answer)
        ]
        rec = self.store.record_pipeline_result(
            result, embedding_model=self.embedding_model, tags=tags
        )
        return WorkflowAnswer(
            result=result, html=html, code_checks=checks, interaction_id=rec.interaction_id
        )

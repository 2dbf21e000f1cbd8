"""PETSc-specific keyword search (paper Section III-C).

"Whenever a word in the query has a PETSc manual page associated with
it, for example KSPSolve, the manual page is added to the material that
RAG has found."  This retriever scans the query for PETSc-style
identifiers (CamelCase API names and ``-option_keys``) and returns the
matching manual pages.
"""

from __future__ import annotations

from typing import Mapping

from repro.context import RequestContext, read_question
from repro.corpus.builder import CorpusBundle
from repro.documents import Document
from repro.retrieval.base import RetrievedDocument, Retriever
from repro.utils.textproc import code_tokens


class ManualPageKeywordSearch(Retriever):
    """Exact manual-page lookup for identifiers mentioned in the query.

    Accepts either a full :class:`CorpusBundle` or a plain mapping of
    ``page name -> Document`` (the shape an
    :class:`~repro.index.IndexArtifact` stores), so the keyword path can
    be rebuilt from a cached artifact without the corpus in memory.
    """

    name = "keyword"

    def __init__(self, source: "CorpusBundle | Mapping[str, Document]") -> None:
        pages = getattr(source, "manual_page_names", source)
        self._pages: dict[str, Document] = dict(pages)
        # Option keys resolve to the page whose Options section mentions them.
        self._option_index: dict[str, Document] = {}
        for doc in self._pages.values():
            for tok in code_tokens(doc.text):
                if tok.startswith("-"):
                    self._option_index.setdefault(tok, doc)

    def known_identifiers(self) -> frozenset[str]:
        """All identifiers the corpus knows: page names and option keys."""
        return frozenset(self._pages) | frozenset(self._option_index)

    def lookup(self, identifier: str) -> Document | None:
        """The manual page for an exact identifier, if any."""
        if identifier.startswith("-"):
            return self._option_index.get(identifier)
        return self._pages.get(identifier)

    def retrieve(
        self, query: str, *, k: int = 8, ctx: "RequestContext | None" = None
    ) -> list[RetrievedDocument]:
        hits: list[RetrievedDocument] = []
        seen: set[str] = set()
        for ident in read_question(query, ctx).idents:
            page = self.lookup(ident)
            if page is not None and page.doc_id not in seen:
                seen.add(page.doc_id)
                # Exact identifier match is maximal-confidence retrieval.
                hits.append(RetrievedDocument(document=page, score=1.0, origin="keyword"))
            if len(hits) >= k:
                break
        return hits

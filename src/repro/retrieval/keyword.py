"""PETSc-specific keyword search (paper Section III-C).

"Whenever a word in the query has a PETSc manual page associated with
it, for example KSPSolve, the manual page is added to the material that
RAG has found."  This retriever scans the query for PETSc-style
identifiers (CamelCase API names and ``-option_keys``) and returns the
matching manual pages.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from repro.context import RequestContext, read_question
from repro.corpus.builder import CorpusBundle
from repro.documents import Document
from repro.retrieval.base import RetrievedDocument, Retriever
from repro.utils.textproc import code_tokens

#: Manual pages whose option keys the process keeps (least recently read
#: dropped first); several times the corpus's 117.
_PAGE_MEMO_SIZE = 1024


@lru_cache(maxsize=_PAGE_MEMO_SIZE)
def _option_keys(text: str) -> tuple[str, ...]:
    """The distinct option keys (``-ksp_rtol``) a manual page's text
    mentions, in order of first mention, kept by the page text.

    A pure function of the page, so nothing clears it: the retriever a
    new cache generation builds scans only the pages an edit wrote.
    """
    return tuple(dict.fromkeys(tok for tok in code_tokens(text) if tok.startswith("-")))


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
            for key in _option_keys(doc.text):
                self._option_index.setdefault(key, doc)

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

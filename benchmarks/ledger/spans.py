"""The ledger's own span recorder, used only by ``--trace 1`` runs.

Spans are recorded from outside the program: :func:`install` swaps a
:class:`Timed` proxy onto the public collaborator attributes of a
pipeline (``chat_model``, ``retriever``, ``priority_retrievers``,
``reranker``).  A proxy delegates every call to the object it wraps and
records one span per call, so the real pipeline runs and its answers
are byte-identical to an untraced run.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable

#: span name per (pipeline attribute, method) the proxies record.
LLM = "llm.complete"
LOCATE = "retrieval.locate"
KEYWORD = "retrieval.keyword"
RERANK = "rerank.refine"
ROOT = "service.answer"


class Recorder:
    """In-memory spans: (id, name, start_ns, end_ns, parent id, request id)."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int | None, int | None]] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        # One open-span stack per thread: batch workers record their own
        # spans without seeing the coordinator's.
        self._local = threading.local()

    def wrap(self, fn: Callable, name: str, *, root: bool = False) -> Callable:
        """``fn`` with a span around every call; ``root`` starts a request."""
        spans, ids, requests, local = self.spans, self._ids, self._requests, self._local
        clock = time.perf_counter_ns

        def timed(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent, request = stack[-1] if stack else (None, None)
            if root:
                request = next(requests)
            span_id = next(ids)
            stack.append((span_id, request))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent, request))

        return timed

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for span_id, name, start, end, parent, request in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )

    def totals(self) -> dict[str, dict]:
        """Per span name: call count, total and self nanoseconds.

        Self time is a span's duration minus the time its children
        cover.  Children of one span run one after another on the
        parent's thread, so their coverage is the sum of their durations.
        """
        covered: dict[int, int] = defaultdict(int)
        for _id, _name, start, end, parent, _request in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"count": 0, "total_ns": 0, "self_ns": 0})
        for span_id, name, start, end, _parent, _request in self.spans:
            entry = out[name]
            entry["count"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - covered.get(span_id, 0)
        return dict(out)


class Timed:
    """Delegating proxy that records a span around the named methods."""

    def __init__(self, target: object, recorder: Recorder, methods: dict[str, str]) -> None:
        self._target = target
        for method, span_name in methods.items():
            setattr(self, method, recorder.wrap(getattr(target, method), span_name))

    def __getattr__(self, attr: str):
        return getattr(self._target, attr)


def install(pipeline, recorder: Recorder) -> Callable[[], None]:
    """Proxy the pipeline's collaborators; returns the undo function."""
    original = (
        pipeline.chat_model,
        pipeline.retriever,
        list(pipeline.priority_retrievers),
        pipeline.reranker,
    )
    chat, retriever, priority, reranker = original
    pipeline.chat_model = Timed(chat, recorder, {"complete": LLM})
    if retriever is not None:
        pipeline.retriever = Timed(retriever, recorder, {"retrieve": LOCATE})
    pipeline.priority_retrievers = [
        Timed(r, recorder, {"retrieve": KEYWORD}) for r in priority
    ]
    if reranker is not None:
        pipeline.reranker = Timed(reranker, recorder, {"rerank": RERANK})

    def uninstall() -> None:
        (
            pipeline.chat_model,
            pipeline.retriever,
            pipeline.priority_retrievers,
            pipeline.reranker,
        ) = original

    return uninstall

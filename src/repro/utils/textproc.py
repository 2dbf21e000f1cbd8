"""Text processing primitives shared across the retrieval stack.

The tokenizer here is deliberately simple and deterministic: retrieval,
embeddings, BM25, rerankers, and the simulated LLM all share one
definition of a "token" so that lexical signals line up across stages.

PETSc identifiers such as ``KSPSetType`` or ``-ksp_monitor`` are kept
intact as single tokens (case preserved in :func:`code_tokens`) because
manual-page keyword search depends on exact identifier matching.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

# A compact English stopword list.  Kept small on purpose: technical
# queries are short and over-aggressive stopword removal hurts recall.
STOPWORDS: frozenset[str] = frozenset(
    """
    a an the and or but if then else of in on at by for with to from as is
    are was were be been being am do does did doing have has had having it
    its this that these those there here he she they them his her their i
    you we us our your my me so not no yes can could should would will
    shall may might must what which who whom how when where why whether
    about into over under again further once because while during both
    each few more most other some such only own same than too very s t
    don now exactly actually really simply certainly definitely basically
    just also
    """.split()
)

# Words that look like PETSc identifiers: CamelCase starting with a known
# class prefix, or option-database keys starting with '-'.
_PETSC_IDENT_RE = re.compile(
    r"""
    (?:(?<![A-Za-z0-9_-])-[a-z][a-z0-9_]*_[a-z0-9_]+)  # option key, e.g. -ksp_rtol
    | (?:(?<![A-Za-z0-9_])[A-Z][A-Za-z0-9]*[A-Z][A-Za-z0-9]*)  # CamelCase API, e.g. KSPSolve
    """,
    re.VERBOSE,
)

#: Identifier shapes that belong to PETSc's API namespaces.  Concepts that
#: merely look CamelCase (BiCGStab, OpenMP) are not API identifiers.
_PETSC_API_RE = re.compile(
    r"^(?:(?:KSP|PC|Mat|Vec|SNES|TS|DM|IS|Petsc)[A-Za-z0-9_]+|-[a-z][a-z0-9_]*_[a-z0-9_]+)$"
)


def is_petsc_api_identifier(token: str) -> bool:
    """Whether ``token`` has the shape of a PETSc API name or option key."""
    return _PETSC_API_RE.match(token) is not None

_WORD_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_\-]*")

_SENTENCE_RE = re.compile(r"(?<=[.!?])\s+(?=[A-Z0-9`\"'(])")

_WS_RE = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Collapse whitespace and strip the ends.

    Normalization is intentionally *not* lowercasing: identifier case is
    meaningful in this corpus and is handled per-consumer.
    """
    return _WS_RE.sub(" ", text).strip()


_CAMEL_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z]+|[a-z]+|[0-9]+")

_COMPOUND_SPLIT_RE = re.compile(r"[-_]")


def _subtokens(raw: str) -> list[str]:
    """Component tokens of a compound: hyphen, underscore, CamelCase parts.

    ``KSPGetConvergedReason`` → ``ksp, converged, reason`` (+ ``get`` is a
    stopword-length fragment and survives only if ≥3 chars);
    ``-ksp_converged_reason`` → ``ksp, converged, reason``;
    ``low-memory`` → ``low, memory``.
    """
    parts: list[str] = []
    for piece in _COMPOUND_SPLIT_RE.split(raw):
        if not piece:
            continue
        camel = _CAMEL_RE.findall(piece)
        if len(camel) > 1:
            parts.extend(c.lower() for c in camel if len(c) >= 3)
        elif piece != raw:
            parts.append(piece.lower())
    return [p for p in parts if p not in STOPWORDS]


def tokenize(text: str) -> list[str]:
    """Lowercased word tokens with stopwords removed.

    This is the shared tokenization for embeddings, BM25, and relevance.
    Compound tokens are kept whole *and* split into their parts —
    hyphenated words ("low-memory" → ``low``, ``memory``), option keys
    ("-ksp_converged_reason" → ``converged``, ``reason``), and CamelCase
    API names ("KSPGetConvergedReason" → ``ksp``, ``converged``,
    ``reason``) — so natural-language questions match API-heavy prose.
    """
    out: list[str] = []
    for m in _WORD_RE.finditer(text):
        raw = m.group(0)
        tok = raw.lower()
        if tok in STOPWORDS:
            continue
        out.append(tok)
        out.extend(_subtokens(raw))
    return out


def tokenize_with_stopwords(text: str) -> list[str]:
    """Lowercased word tokens, stopwords retained (for proximity scoring)."""
    return [m.group(0).lower() for m in _WORD_RE.finditer(text)]


def code_tokens(text: str) -> list[str]:
    """Case-preserving tokens that look like PETSc identifiers.

    Used by manual-page keyword search: ``"What does KSPSolve do?"`` →
    ``["KSPSolve"]``.  Option keys keep their leading dash.
    """
    return [m.group(0) for m in _PETSC_IDENT_RE.finditer(text)]


def word_ngrams(tokens: Iterable[str], n: int) -> Iterator[tuple[str, ...]]:
    """Yield contiguous word n-grams from a token sequence."""
    if n < 1:
        raise ValueError(f"n-gram order must be >= 1, got {n}")
    toks = list(tokens)
    for i in range(len(toks) - n + 1):
        yield tuple(toks[i : i + n])


def sentences(text: str) -> list[str]:
    """Split text into sentences with a lightweight punctuation heuristic.

    Line breaks are sentence boundaries too — Markdown bullets and code
    lines must not merge into one "sentence", or signature-based fact
    detection would see terms from different statements as co-occurring.
    """
    out: list[str] = []
    for line in text.splitlines():
        line = normalize_text(line)
        if not line:
            continue
        out.extend(s.strip() for s in _SENTENCE_RE.split(line) if s.strip())
    return out


_SUFFIXES: tuple[str, ...] = (
    "ization", "ations", "ation", "ences", "ence", "ances", "ance",
    "ements", "ement", "ments", "ment", "ings", "ing", "ions", "ion",
    "ities", "ity", "ures", "ure", "ness", "ives", "ive", "ally", "ly",
    "ers", "er", "ies", "ed", "es", "s",
)


@lru_cache(maxsize=16384)  # the corpus vocabulary is a few thousand tokens
def stem(token: str) -> str:
    """A crude suffix-stripping stemmer for relevance matching.

    Far weaker than Porter, but enough to unify the inflection pairs that
    matter in solver questions: converged/convergence, failed/failure,
    iteration/iterative, preconditioner/preconditioning.  Identifiers and
    short tokens pass through unchanged.
    """
    if len(token) <= 4 or not token.islower():
        return token
    for suffix in _SUFFIXES:
        if token.endswith(suffix):
            base = token[: -len(suffix)]
            if len(base) >= 3:
                if suffix == "ies":
                    return base + "y"
                return base
    # Final-e drop unifies pairs like solve/solver (the latter loses its
    # 'er' above) without a full Porter implementation.
    if token.endswith("e") and len(token) > 4:
        return token[:-1]
    return token


def stemmed_tokens(text: str) -> list[str]:
    """Stemmed, lowercased, stopword-filtered tokens."""
    return [stem(t) for t in tokenize(text)]


#: Distinct texts whose stem sets the process keeps (least recently read
#: dropped first); several times the corpus's 188 chunks, 117 manual
#: pages and 84 fact statements.
_STEM_MEMO_SIZE = 4096


@lru_cache(maxsize=_STEM_MEMO_SIZE)
def stem_set(text: str) -> frozenset[str]:
    """The set of :func:`stemmed_tokens` of a corpus text, kept by the text.

    Only corpus-side text is read through it — chunks, manual pages, fact
    statements — never a question, so a cold ask stays cold in the
    question.  A set is a pure function of its text: no ingest, registry
    or engine can make an entry stale, and nothing clears it, so a new
    cache generation stems only the texts an edit wrote.  It iterates in
    hash order; only membership and counts may reach a weight or a score.
    """
    return frozenset(stemmed_tokens(text))


class QuestionReading:
    """One question read once: what retrieval, rerank and the model each
    used to derive from its text for themselves.

    A request carries one (:attr:`repro.context.RequestContext.question`)
    and a stage accepts it in place of the text.  Each view is derived
    on first use and is a tuple, so stages share it safely; it belongs
    to the request and is never kept by question, so a cold ask stays
    cold.
    """

    def __init__(self, text: str) -> None:
        self.text = text

    @classmethod
    def of(cls, question: "str | QuestionReading") -> "QuestionReading":
        return question if isinstance(question, cls) else cls(question)

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        """:func:`tokenize` of the text."""
        return tuple(tokenize(self.text))

    @cached_property
    def stems(self) -> tuple[str, ...]:
        """:func:`stemmed_tokens` of the text."""
        return tuple(stem(t) for t in self.tokens)

    @cached_property
    def idents(self) -> tuple[str, ...]:
        """:func:`code_tokens` of the text."""
        return tuple(code_tokens(self.text))

"""The compiled text-analysis tables against the per-call code they replaced.

Fact detection, rerank features and fact relevance each derive static
things once (per registry, per chunk, per question).  The functions in
the first section are the *old* per-call implementations, kept here as
references: the production code must agree with them exactly.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import re
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import open_service
from repro.config import ReproConfig, RetrievalConfig
from repro.context import RequestContext, read_question
from repro.corpus import facts as facts_module
from repro.corpus.builder import chunk_corpus
from repro.corpus.facts import Fact, FactRegistry, Falsehood, default_registry
from repro.errors import CorpusError, ModelError
from repro.documents import Document
from repro.embeddings import create_embedding_model
from repro.evaluation.benchmark import krylov_benchmark
from repro.index import clear_index_cache
from repro.ingest import ingest_corpus
from repro.llm import parametric as parametric_module
from repro.llm import registry as model_registry
from repro.llm import relevance as relevance_module
from repro.llm import tokens as tokens_module
from repro.llm.relevance import RelevanceModel
from repro.llm.tokens import count_tokens
from repro.observability import MetricsRegistry
from repro.prompts import RAG_SYSTEM_PROMPT, parse_rag_prompt
from repro.rerank import FlashrankLiteReranker, NvidiaSimReranker
from repro.rerank import scoring
from repro.retrieval import keyword as keyword_module
from repro.utils import textproc
from repro.utils.textproc import (
    QuestionReading,
    code_tokens,
    sentences,
    stem,
    stemmed_tokens,
    tokenize,
    tokenize_with_stopwords,
    word_ngrams,
)
from repro.vectorstore.store import top_k_hits

# --------------------------------------------------------------------- references
_IDENT_RE = re.compile(r"^[A-Z][A-Za-z0-9_]*$|^-[a-z][a-z0-9_]*$")


def ref_contains_term(text: str, text_lower: str, term: str) -> bool:
    if _IDENT_RE.match(term):
        return re.search(rf"(?<![A-Za-z0-9_]){re.escape(term)}(?![A-Za-z0-9_])", text) is not None
    return (
        re.search(rf"(?<![a-z0-9_]){re.escape(term.lower())}(?![a-z0-9_])", text_lower)
        is not None
    )


def ref_appears_in(signature: tuple[str, ...], text: str) -> bool:
    """Per-term ``re.search`` over the text, then a sentence split per signature."""
    tl = text.lower()
    if not all(ref_contains_term(text, tl, term) for term in signature):
        return False
    for sent in sentences(text):
        sl = sent.lower()
        if all(ref_contains_term(sent, sl, term) for term in signature):
            return True
    return False


def ref_detect(registry: FactRegistry, text: str) -> tuple[list[str], list[str]]:
    return (
        [f.fact_id for f in registry.facts.values() if ref_appears_in(f.signature, text)],
        [f.false_id for f in registry.falsehoods.values() if ref_appears_in(f.signature, text)],
    )


_TOKENISH_RE = re.compile(r"[A-Za-z0-9]+|[^\sA-Za-z0-9]")


def ref_count_tokens(text: str) -> int:
    """Each alphanumeric run measured in Python, five characters a token."""
    n = 0
    for piece in _TOKENISH_RE.findall(text):
        n += max(1, (len(piece) + 4) // 5) if piece.isalnum() else 1
    return n


#: The lexicon scan itself, without the memo in front of it.
ref_concept = scoring._concept.__wrapped__


def ref_pair_score(sc: scoring.InteractionScorer, query: str, text: str) -> float:
    """One (query, text) pair with every feature derived from scratch
    (coverage summed in sorted term order)."""
    q_terms = set(stemmed_tokens(query))
    d_stems = stemmed_tokens(text)
    d_terms = set(d_stems)
    d_concepts = {g for g in (ref_concept(t) for t in d_terms) if g is not None}
    coverage = 0.0
    if q_terms:
        total = hit = 0.0
        for t in sorted(q_terms):
            w = sc.idf.get(t, sc.default_idf)
            total += w
            if t in d_terms:
                hit += w
            else:
                gid = ref_concept(t)
                if gid is not None and gid in d_concepts:
                    hit += 0.7 * w
        if total > 0:
            coverage = (hit / total) * (0.4 + 1.2 * (hit / (hit + 6.0)))
    s = sc.w_coverage * coverage
    idents = set(code_tokens(query))
    s += sc.w_identifier * (sum(1 for i in idents if i in text) / len(idents) if idents else 0.0)
    q_bigrams = set(word_ngrams([stem(t) for t in tokenize_with_stopwords(query)], 2))
    d_bigrams = set(word_ngrams([stem(t) for t in tokenize_with_stopwords(text)], 2))
    s += sc.w_bigram * (len(q_bigrams & d_bigrams) / len(q_bigrams) if q_bigrams else 0.0)
    if sc.w_proximity:
        s += sc.w_proximity * sc._proximity(q_terms, d_stems)
    s -= sc.w_focus * sc._focus(text)
    return s


def ref_build_idf(documents: list[Document]) -> dict[str, float]:
    """Smoothed IDF with every document stemmed again."""
    df: dict[str, int] = {}
    for doc in documents:
        for t in set(stemmed_tokens(doc.text)):
            df[t] = df.get(t, 0) + 1
    n = max(len(documents), 1)
    return {t: math.log((1 + n) / (1 + c)) + 1.0 for t, c in df.items()}


def ref_topic_score(rel: RelevanceModel, fact: Fact, question: str) -> float:
    """Every topic lower-cased and stemmed again for every question."""
    q_lower = question.lower()
    q_stems = set(stemmed_tokens(question))
    q_idents = set(code_tokens(question))
    s = 0.0
    for topic in fact.topics:
        tl = topic.lower()
        w = rel.topic_weight(topic)
        if topic in q_idents:
            s += 1.3 * w
        elif " " in tl:
            if tl in q_lower:
                s += 1.3 * w
        elif stem(tl) in q_stems or tl in q_stems:
            s += 1.0 * w
        elif tl.startswith("-") and stem(tl.lstrip("-")) in q_stems:
            s += 1.0 * w
        else:
            for prefix in relevance_module._PREFIXES:
                rest = tl[len(prefix):]
                if tl.startswith(prefix) and len(rest) >= 2 and stem(rest) in q_stems:
                    s += 1.0 * w
                    break
    return s


def ref_paraphrase_score(rel: RelevanceModel, fact: Fact, question: str) -> float:
    """The statement's IDF overlap with the question, summed in sorted
    stem order, over the question's IDF mass."""
    idf, default = rel._analysis.token_idf, rel._analysis.max_token_idf
    q_stems = set(stemmed_tokens(question))
    shared = q_stems & set(stemmed_tokens(fact.statement))
    if not shared:
        return 0.0
    num = sum(idf.get(t, default) for t in sorted(shared))
    den = sum(idf.get(t, default) for t in sorted(q_stems))
    return num / den if den > 0 else 0.0


def ref_score(rel: RelevanceModel, fact: Fact, question: str) -> float:
    """One fact scored on its own, as the model's per-fact loop did."""
    return ref_topic_score(rel, fact, question) + 3.2 * ref_paraphrase_score(rel, fact, question)


def ref_select(
    rel: RelevanceModel,
    facts: list[Fact],
    question: str,
    *,
    max_facts: int,
    min_score: float,
    relative: float,
) -> list[tuple[Fact, float]]:
    """Every fact scored, sorted, then cut: the floor after the sort."""
    scored = [(fact, ref_score(rel, fact, question)) for fact in facts]
    scored.sort(key=lambda pair: (-pair[1], pair[0].fact_id))
    if not scored or scored[0][1] < min_score:
        return []
    floor = max(min_score, relative * scored[0][1]) if relative > 0 else min_score
    return [pair for pair in scored if pair[1] >= floor][:max_facts]


# --------------------------------------------------------------------- fact detection
_REGISTRY = default_registry()
_SIGNED = [*_REGISTRY.facts.values(), *_REGISTRY.falsehoods.values()]
_STATEMENTS = [x.statement for x in _SIGNED]
_TERMS = sorted({t for x in _SIGNED for t in x.signature})
_PHRASES = [t for t in _TERMS if " " in t]

_terms = st.sampled_from(_TERMS)
_statements = st.sampled_from(_STATEMENTS)
_fragments = st.one_of(
    _statements,
    # case flips: identifiers must stop matching, words must not
    _statements.map(str.lower),
    _statements.map(str.upper),
    _statements.map(str.swapcase),
    # bare terms, so a signature can be scattered over sentences
    _terms,
    # glue on either side: KSP / KSPSetOperators, -ksp_monitor /
    # -ksp_monitor_true_residual, normal / normal equations, -pc_type /
    # -pc_type lu
    st.builds(
        lambda term, tail: term + tail,
        _terms,
        st.sampled_from(["SetOperators", "_true_residual", "X", "s", "0", "-", " lu", " equations"]),
    ),
    st.builds(
        lambda head, term: head + term, st.sampled_from(["K", "x", "_", "-", "9", "Pre"]), _terms
    ),
    # multi-word terms broken by a newline, a double space or a tab
    st.builds(
        lambda phrase, gap: phrase.replace(" ", gap),
        st.sampled_from(_PHRASES),
        st.sampled_from(["\n", "  ", "\t", " \n "]),
    ),
    st.builds(
        lambda signed, gap: signed.statement.replace(" ", gap),
        st.sampled_from([x for x in _SIGNED if any(" " in t for t in x.signature)]),
        st.sampled_from(["\n", "  "]),
    ),
)
_joiners = st.sampled_from([" ", "  ", ". ", ".\n", "\n", "\n\n- ", "! ", "? ", ", ", ""])
_texts = st.lists(st.tuples(_fragments, _joiners), min_size=1, max_size=8).map(
    lambda parts: "".join(fragment + joiner for fragment, joiner in parts)
)


def _detected(registry: FactRegistry, text: str) -> tuple[list[str], list[str]]:
    facts, falsehoods = registry.detect(text)
    return [f.fact_id for f in facts], [f.false_id for f in falsehoods]


class TestMatcherAgainstReference:
    def test_every_corpus_chunk(self, bundle):
        registry = bundle.registry
        chunks = chunk_corpus(bundle, include_mail=True)
        assert len(chunks) > 200
        tagged = 0
        for chunk in chunks:
            expected = ref_detect(registry, chunk.text)
            assert _detected(registry, chunk.text) == expected
            assert [f.fact_id for f in registry.facts_in(chunk.text)] == expected[0]
            assert chunk.metadata.get("facts", "") == ",".join(sorted(expected[0]))
            assert chunk.metadata.get("falsehoods", "") == ",".join(sorted(expected[1]))
            tagged += bool(expected[0] or expected[1])
        assert tagged > 50

    @given(_texts)
    @settings(max_examples=300, deadline=None)
    def test_assembled_texts(self, text):
        expected = ref_detect(_REGISTRY, text)
        assert _detected(_REGISTRY, text) == expected

    @pytest.mark.parametrize(
        "signature, text, asserted",
        [
            (("KSP",), "call KSPSetOperators() first", False),
            (("KSP",), "the KSP object", True),
            (("KSP",), "the ksp object", False),
            (("-ksp_monitor",), "run with -ksp_monitor_true_residual", False),
            (("-ksp_monitor",), "run with -ksp_monitor.", True),
            (("-ksp_monitor",), "run with --ksp_monitor", True),
            (("normal",), "the normal equations", True),
            (("normal equations",), "a normal equation", False),
            (("normal equations",), "The Normal Equations are formed", True),
            (("-pc_type lu",), "use -pc_type lu here", True),
            (("-pc_type lu",), "use -pc_type lum here", False),
            (("-pc_type", "-pc_type lu"), "use -pc_type lu here", True),
            # The whole-text check sees the text as written ...
            (("least squares",), "least\nsquares", False),
            (("least squares",), "least  squares", False),
            # ... the sentence check sees it whitespace-normalised, and
            # both must hold.
            (("least squares", "KSPLSQR"), "KSPLSQR does least  squares. Also least squares.", True),
            (("KSPLSQR", "rectangular"), "KSPLSQR is a solver. Some are rectangular.", False),
            (("KSPLSQR", "rectangular"), "KSPLSQR is a solver.\nrectangular ones too", False),
            (("KSPLSQR", "rectangular"), "So KSPLSQR takes RECTANGULAR ones.", True),
        ],
    )
    def test_named_cases(self, signature, text, asserted):
        statement = " ".join(signature)
        fact = Fact(fact_id="t", statement=statement, signature=signature)
        assert ref_appears_in(signature, text) is asserted
        registry = FactRegistry()
        registry.add_fact(fact)
        assert bool(registry.facts_in(text)) is asserted

    def test_facts_added_after_a_scan_are_detected(self):
        registry = FactRegistry()
        registry.add_fact(Fact(fact_id="a", statement="KSPLSQR here", signature=("KSPLSQR",)))
        assert [f.fact_id for f in registry.facts_in("KSPLSQR and PCGAMG")] == ["a"]
        registry.add_fact(Fact(fact_id="b", statement="PCGAMG here", signature=("PCGAMG",)))
        assert [f.fact_id for f in registry.facts_in("KSPLSQR and PCGAMG")] == ["a", "b"]
        # ``facts`` is a public dict: a direct write is detected as well.
        registry.facts["c"] = Fact(fact_id="c", statement="and here", signature=("and",))
        assert [f.fact_id for f in registry.facts_in("KSPLSQR and PCGAMG")] == ["a", "b", "c"]

    def test_grader_detection_matches_reference(self, service, grader):
        for question in krylov_benchmark()[:12]:
            if question.kind != "standard":
                continue
            answer = service.answer(question.text).answer
            graded = grader.grade(question, answer)
            facts, falsehoods = ref_detect(grader.registry, answer)
            found = set(graded.key_found + graded.extra_found)
            wanted = set(question.key_facts + question.extra_facts)
            assert found == wanted & set(facts)
            assert list(graded.falsehoods) == sorted(falsehoods)


# --------------------------------------------------------------------- line by line
#: Everything ``str.splitlines`` breaks a line on.
_LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_breaks = st.sampled_from(_LINE_BREAKS)


@pytest.fixture(scope="module")
def corpus_lines(chunks):
    return sorted({line for chunk in chunks for line in chunk.text.splitlines() if line.strip()})


@pytest.fixture(scope="module")
def results(rag_pipeline, rerank_pipeline):
    """The result of every Krylov question, rag then rag+rerank."""
    return [
        pipeline.answer(question.text)
        for pipeline in (rag_pipeline, rerank_pipeline)
        for question in krylov_benchmark()
    ]


@pytest.fixture(scope="module")
def prompts(results):
    """The rendered prompt of each of ``results``."""
    return [result.prompt for result in results]


@pytest.fixture(scope="module")
def contexts(prompts):
    """What the model reads fact signatures in: each prompt's context block."""
    return [parse_rag_prompt(prompt).context for prompt in prompts]


def _gapped(text: str, phrase: str, gap: str) -> str:
    """``text`` with the blanks inside each occurrence of ``phrase`` widened to ``gap``."""
    return re.sub(re.escape(phrase), lambda m: m.group().replace(" ", gap), text, flags=re.I)


class TestLineScanEqualsWholeText:
    """Detection reads a text line by line (DESIGN §15, fifth invariant);
    ``ref_detect`` reads it whole.  Same facts, same falsehoods, same order."""

    def test_every_context_and_every_chunk(self, registry, contexts, chunks):
        assert len(contexts) == 2 * len(krylov_benchmark())
        for text in [*contexts, *(chunk.text for chunk in chunks)]:
            assert _detected(registry, text) == ref_detect(registry, text)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_corpus_lines_under_every_separator(self, corpus_lines, data):
        line = st.one_of(st.sampled_from(corpus_lines), _statements, st.sampled_from(["", "  ", "\t"]))
        parts = data.draw(st.lists(st.tuples(line, _breaks), min_size=1, max_size=10))
        text = "".join(part + sep for part, sep in parts)
        expected = ref_detect(_REGISTRY, text)
        assert _detected(_REGISTRY, text) == expected
        # Shuffled: what a line holds does not depend on its neighbours.
        random.Random(len(text)).shuffle(parts)
        text = "".join(part + sep for part, sep in parts)
        assert _detected(_REGISTRY, text) == ref_detect(_REGISTRY, text)

    @pytest.mark.parametrize("sep", _LINE_BREAKS)
    def test_terms_at_the_first_and_last_character_of_a_line(self, sep):
        # Word characters on either side of the break: a line break is
        # outside both boundary classes, so the term still stands alone.
        for term in _TERMS:
            text = f"x{sep}{term}{sep}x"
            fact = Fact(fact_id="t", statement=term, signature=(term,))
            assert ref_appears_in(fact.signature, text) is True
            registry = FactRegistry()
            registry.add_fact(fact)
            assert registry.facts_in(text) == [fact]
        text = sep.join(f"x{sep}{x.statement}{sep}9" for x in _SIGNED)
        assert _detected(_REGISTRY, text) == ref_detect(_REGISTRY, text)
        assert len(_detected(_REGISTRY, text)[0]) == len(_REGISTRY.facts)

    @pytest.mark.parametrize("gap", ["  ", "\t", " \t "])
    @pytest.mark.parametrize("phrase", _PHRASES)
    def test_widened_blanks_inside_each_phrase(self, phrase, gap):
        """The ``least  squares`` case, for all ten multi-word terms."""
        assert len(_PHRASES) == 10
        owners = [x for x in _SIGNED if phrase in x.signature]
        assert owners
        for owner in owners:
            owner_id = getattr(owner, "fact_id", None) or owner.false_id
            widened = _gapped(owner.statement, phrase, gap)
            assert widened != owner.statement
            # In a sentence (normalised), not in the line as written.
            ids = _detected(_REGISTRY, widened)
            assert ids == ref_detect(_REGISTRY, widened)
            assert owner_id not in ids[0] + ids[1]
            # Written in one line, together only in another line's sentence.
            for sep in _LINE_BREAKS:
                for text in (widened + sep + phrase, phrase.upper() + sep + widened):
                    ids = _detected(_REGISTRY, text)
                    assert ids == ref_detect(_REGISTRY, text)
                    assert owner_id in ids[0] + ids[1]

    @pytest.mark.parametrize(
        "signature, text, asserted",
        [
            # written in line 2, with KSPLSQR only in line 1's sentence
            (("least squares", "KSPLSQR"), "KSPLSQR does least  squares.\nAlso least squares.", True),
            (("least squares", "KSPLSQR"), "KSPLSQR does least  squares.\nAlso least\tsquares.", False),
            # written in the text, but never in one sentence
            (("KSPLSQR", "rectangular"), "KSPLSQR\u2028rectangular", False),
            (("KSPLSQR", "rectangular"), "KSPLSQR\x0brectangular KSPLSQR", True),
            # a phrase a sentence split cuts: written, in no sentence
            (("solver. some",), "A solver. Some are rectangular.", False),
            (("solver. some",), "A solver. some are rectangular.", True),
            (("KSP",), "", False),
            (("KSP",), "\n\n", False),
        ],
    )
    def test_named_cases(self, signature, text, asserted):
        fact = Fact(fact_id="t", statement=" ".join(signature), signature=signature)
        assert ref_appears_in(signature, text) is asserted
        registry = FactRegistry()
        registry.add_fact(fact)
        assert bool(registry.facts_in(text)) is asserted
        assert bool(registry.facts_in(text)) is asserted  # from the memo

    @pytest.mark.parametrize("term", ["", "least\nsquares", "KSP\n", "\u2028x"])
    def test_a_term_must_be_one_line(self, term):
        """The premise of the line decomposition, enforced at the door."""
        with pytest.raises(CorpusError, match="line break"):
            Fact(fact_id="t", statement=f"x {term} y", signature=(term,))
        with pytest.raises(CorpusError, match="line break"):
            Falsehood(false_id="t", statement=f"x {term} y", signature=("x", term))


class _Counted:
    """Counts calls to a function it stands in for."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.fn(*args)


@pytest.fixture
def scan_work(monkeypatch):
    """(pattern searches, ``sentences()`` calls) made by fact detection."""
    found_in = facts_module._Term.found_in
    searches = _Counted(found_in)
    monkeypatch.setattr(
        facts_module._Term, "found_in", lambda term, *args: searches(term, *args)
    )
    splits = _Counted(facts_module.sentences)
    monkeypatch.setattr(facts_module, "sentences", splits)
    return searches, splits


class TestLineScanMemo:
    def test_a_text_read_again_does_no_work(self, contexts, scan_work):
        searches, splits = scan_work
        registry = default_registry()
        first = [_detected(registry, text) for text in contexts]
        assert searches.calls > 0 and splits.calls > 0
        # Only a line that holds a term is split, and each distinct line
        # once: 483 of the 2,355 lines the 37 rag+rerank contexts hold.
        rerank = contexts[len(contexts) // 2:]
        fresh = default_registry()
        searches.calls = splits.calls = 0
        for text in rerank:
            fresh.facts_in(text)
        lines = [line for text in rerank for line in text.splitlines()]
        assert 0 < splits.calls <= len(set(lines)) < len(lines) // 2
        searches.calls = splits.calls = 0
        assert [_detected(registry, text) for text in contexts] == first
        assert (searches.calls, splits.calls) == (0, 0)

    def test_nothing_goes_stale_when_the_registry_changes(self, scan_work):
        searches, _ = scan_work
        text = "KSPLSQR and PCGAMG.\nA wrong claim about PCJACOBI here"
        registry = FactRegistry()
        registry.add_fact(Fact(fact_id="a", statement="KSPLSQR here", signature=("KSPLSQR",)))
        assert _detected(registry, text) == (["a"], [])
        searches.calls = 0
        assert _detected(registry, text) == (["a"], [])
        assert searches.calls == 0  # both lines are memoised
        # ... and each of these is judged on lines read before it existed.
        registry.add_fact(Fact(fact_id="b", statement="PCGAMG here", signature=("PCGAMG",)))
        assert _detected(registry, text) == (["a", "b"], [])
        registry.add_falsehood(
            Falsehood(false_id="x", statement="wrong PCJACOBI", signature=("wrong", "PCJACOBI"))
        )
        assert _detected(registry, text) == (["a", "b"], ["x"])
        registry.facts["c"] = Fact(fact_id="c", statement="and here", signature=("and",))
        registry.falsehoods["y"] = Falsehood(false_id="y", statement="a claim", signature=("claim",))
        assert _detected(registry, text) == (["a", "b", "c"], ["x", "y"])
        # An id bound to another signature is judged on the new one.
        registry.facts["a"] = Fact(fact_id="a", statement="KSPCG here", signature=("KSPCG",))
        registry.falsehoods["x"] = Falsehood(
            false_id="x", statement="wrong PCGAMG", signature=("wrong", "PCGAMG")
        )
        assert _detected(registry, text) == (["b", "c"], ["y"])
        assert _detected(registry, text + "\nKSPCG") == (["a", "b", "c"], ["y"])
        assert _detected(registry, text) == ref_detect(registry, text)

    def test_memo_is_bounded_and_keeps_no_text(self, monkeypatch):
        monkeypatch.setattr(facts_module, "_LINE_MEMO_SIZE", 8)
        registry = FactRegistry()
        registry.add_fact(Fact(fact_id="a", statement="KSPLSQR is least squares",
                               signature=("KSPLSQR", "least squares")))
        lines = [f"KSPLSQR does least squares, run {i}. KSPLSQR again" for i in range(24)]
        for line in lines:
            assert _detected(registry, line) == (["a"], [])
        table = registry._terms
        info = table.read_line.cache_info()
        assert (info.currsize, info.maxsize, info.misses) == (8, 8, 24)
        assert _detected(registry, "\n".join(lines)) == (["a"], [])
        assert table.read_line.cache_info().currsize == 8
        own = {id(term) for term in table.terms}
        for line in lines:
            written, per_sentence = record = table.read_line(line, len(table.terms))
            assert type(record) is tuple and type(per_sentence) is tuple
            assert written == {"KSPLSQR", "least squares"}
            assert per_sentence == (written, {"KSPLSQR"})
            for held in (written, *per_sentence):
                assert type(held) is frozenset
                assert {id(term) for term in held} <= own

    def test_worker_threads_share_one_cold_memo(self, service):
        questions = [q.text for q in krylov_benchmark()]
        service.invalidate_query_caches()
        sequential = [service.answer(q).answer for q in questions]
        # The registry the model reads with is the index artifact's.
        table = service.pipeline_for("rag+rerank").chat_model.registry._terms
        assert table.read_line.cache_info().currsize > 400
        service.invalidate_query_caches()
        table.read_line.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            batch = service.answer_many(questions, workers=4, seed=0)
        finally:
            sys.setswitchinterval(interval)
        assert [result.answer for result in batch.results] == sequential
        assert table.read_line.cache_info().currsize > 400


@pytest.fixture
def pattern_runs(monkeypatch):
    """Runs of the token pattern, counted from an empty line memo."""
    runs = _Counted(tokens_module._TOKEN_RE.findall)
    monkeypatch.setattr(tokens_module, "_TOKEN_RE", types.SimpleNamespace(findall=runs))
    tokens_module._count_short_line.cache_clear()
    return runs


class TestTokenCount:
    """``count_tokens`` sums its lines' counts, each distinct line counted
    once behind a bounded memo, and lets the pattern take a run five
    characters at a time; the reference reads the text whole and measures
    each run in Python."""

    def test_every_chunk_and_every_prompt(self, chunks, prompts):
        for text in [*(chunk.text for chunk in chunks), *prompts]:
            assert count_tokens(text) == ref_count_tokens(text) > 0

    def test_usage_of_every_answer(self, results):
        system = ref_count_tokens(RAG_SYSTEM_PROMPT)
        assert len(results) == 2 * len(krylov_benchmark())
        for result in results:
            usage = result.completion.usage
            assert usage.prompt_tokens == system + ref_count_tokens(result.prompt)
            assert usage.completion_tokens == ref_count_tokens(result.completion.text)

    @given(st.text(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_any_text(self, text):
        assert count_tokens(text) == ref_count_tokens(text)

    @given(st.text(alphabet="aZ09_-. \n\u00e9\u00b2\u00df\u0416\u4e2d\u0660", max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_long_runs_and_non_ascii_alphanumerics(self, text):
        assert count_tokens(text) == ref_count_tokens(text)

    @given(st.text(alphabet="aZ09_. " + "".join(_LINE_BREAKS), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_every_line_break_splitlines_honours(self, text):
        assert count_tokens(text) == ref_count_tokens(text)

    @pytest.mark.parametrize("line_break", _LINE_BREAKS)
    def test_a_run_that_straddles_a_line_break_is_two_runs(self, line_break):
        text = "abcdefg" + line_break + "hij"
        assert count_tokens(text) == ref_count_tokens(text) == 3

    @pytest.mark.parametrize("length", range(0, 23))
    def test_a_run_is_one_token_per_five_characters_rounded_up(self, length):
        assert count_tokens("a" * length) == ref_count_tokens("a" * length) == -(-length // 5)

    def test_a_line_counted_before_is_not_read_again(self, prompts, pattern_runs):
        prompt = prompts[-1]
        lines = prompt.split("\n")
        assert count_tokens(prompt) == ref_count_tokens(prompt)
        assert 1 < pattern_runs.calls == len(set(lines)) < len(lines)
        pattern_runs.calls = 0
        assert count_tokens(prompt) == ref_count_tokens(prompt)
        assert pattern_runs.calls == 0
        lines[len(lines) // 2] += " KSPBurb"
        edited = "\n".join(lines)
        assert count_tokens(edited) == ref_count_tokens(edited) == ref_count_tokens(prompt) + 2
        assert pattern_runs.calls == 1

    def test_an_over_long_line_is_counted_and_never_kept(self, pattern_runs):
        memo = tokens_module._count_short_line
        limit = tokens_module._LINE_MEMO_MAX_CHARS
        kept, too_long = "ab " * (limit // 3), "ab " * (limit // 3 + 1)
        assert len(kept) <= limit < len(too_long)
        text = f"short\n{too_long}\n{kept}"
        for _ in range(2):
            assert count_tokens(text) == ref_count_tokens(text)
        assert pattern_runs.calls == 4  # the over-long line twice, the other two once
        assert memo.cache_info().currsize == 2

    def test_the_memo_is_bounded(self, pattern_runs):
        memo = tokens_module._count_short_line
        size = tokens_module._LINE_MEMO_SIZE
        text = "\n".join(f"line {i}" for i in range(size + 100))
        assert count_tokens(text) == ref_count_tokens(text)
        info = memo.cache_info()
        assert (info.currsize, info.maxsize, info.misses) == (size, size, size + 100)

    def test_a_prompt_past_the_context_window_fails_at_the_front_door(
        self, bundle, fast_config, rerank_pipeline, monkeypatch
    ):
        """``ModelError`` through ``ReproService.answer``: the count in the
        message is the reference count of the prompt that was sent."""
        question = krylov_benchmark()[0].text
        sent = rerank_pipeline.answer(question)
        needed = ref_count_tokens(RAG_SYSTEM_PROMPT) + ref_count_tokens(sent.prompt)
        persona = model_registry._PERSONAS[fast_config.chat_model]

        def ask(context_window):
            monkeypatch.setitem(
                model_registry._PERSONAS,
                persona.name,
                dataclasses.replace(persona, context_window=context_window),
            )
            registry = MetricsRegistry()
            service = open_service(fast_config, bundle=bundle, registry=registry)
            try:
                return service.answer(question).answer
            finally:
                failures = registry.counter("repro.pipeline.failures").value
                assert failures == (0 if context_window >= needed else 1)

        assert ask(needed) == sent.answer
        message = (
            rf"prompt of {needed} tokens exceeds {persona.name} context window \({needed - 1}\)"
        )
        with pytest.raises(ModelError, match=message):
            ask(needed - 1)


# --------------------------------------------------------------------- one reading per request
class TestQuestionReading:
    """A request reads its question once; each stage used to."""

    @given(st.one_of(_texts, st.text(max_size=80)))
    @settings(max_examples=200, deadline=None)
    def test_a_reading_is_what_each_stage_derived_itself(self, text):
        reading = QuestionReading(text)
        assert reading.tokens == tuple(tokenize(text))
        assert reading.stems == tuple(stemmed_tokens(text))
        assert reading.idents == tuple(code_tokens(text))
        assert QuestionReading.of(reading) is reading
        assert QuestionReading.of(text).text == text

    def test_stages_given_a_reading_answer_as_given_the_text(self, registry, chunks):
        rel = RelevanceModel(registry)
        scorer = FlashrankLiteReranker(chunks)._scorer
        texts = [chunk.text for chunk in chunks[::9]]
        models = [
            create_embedding_model("petsc-embed-large", corpus_texts=texts),
            create_embedding_model("petsc-embed-small"),
        ]
        for question in [q.text for q in krylov_benchmark()] + ["", "-ksp_type preonly?"]:
            reading = QuestionReading(question)
            assert rel.question_features(reading) == rel.question_features(question)
            assert scorer.score_batch(reading, texts).tolist() == [
                ref_pair_score(scorer, question, text) for text in texts
            ]
            for model in models:
                given = model.embed_query(question, tokens=reading.tokens)
                assert given.tobytes() == model.embed_query(question).tobytes()
                assert given.tobytes() == model.embed_documents([question])[0].tobytes()

    def test_only_the_text_it_was_made_of_gets_the_request_s_reading(self):
        ctx = RequestContext.create(registry=MetricsRegistry())
        assert read_question("What is KSPCG?", ctx).text == "What is KSPCG?"
        assert ctx.question is None  # stages read; only the pipeline sets
        ctx.question = QuestionReading("What is KSPCG?")
        assert read_question("What is " + "KSPCG?", ctx) is ctx.question
        # Revision guidance folded into the model's question, a direct call:
        for text, given in [("What is KSPCG? be brief", ctx), ("What is KSPCG?", None)]:
            fresh = read_question(text, given)
            assert fresh is not ctx.question and fresh.text == text

    def test_a_cold_ask_reads_its_question_once(self, bundle, fast_config, monkeypatch):
        reads = {"words": [], "idents": []}

        def recording(pattern, into):
            def finditer(text):
                into.append(text)
                return pattern.finditer(text)

            return types.SimpleNamespace(finditer=finditer)

        service = open_service(fast_config, bundle=bundle, registry=MetricsRegistry())
        questions = [q.text for q in krylov_benchmark()[:6]]
        expected = [service.answer(question).answer for question in questions]
        service.invalidate_query_caches()
        monkeypatch.setattr(textproc, "_WORD_RE", recording(textproc._WORD_RE, reads["words"]))
        monkeypatch.setattr(
            textproc, "_PETSC_IDENT_RE", recording(textproc._PETSC_IDENT_RE, reads["idents"])
        )
        assert [service.answer(question).answer for question in questions] == expected
        for question in questions:
            # Words: the shared tokens, and rerank's stopword-keeping pass.
            assert reads["words"].count(question) == 2
            assert reads["idents"].count(question) == 1


# --------------------------------------------------------------------- rerank features
@pytest.fixture(scope="module")
def chunk_texts(chunks):
    return [c.text for c in chunks]


@pytest.fixture(scope="module", params=[FlashrankLiteReranker, NvidiaSimReranker])
def scorer(request, chunks):
    return request.param(chunks)._scorer


def _memo_misses() -> dict[str, int]:
    """Misses so far of the three corpus-text memos."""
    memos = {
        "stems": textproc.stem_set,
        "features": scoring._doc_features,
        "option keys": keyword_module._option_keys,
    }
    return {name: memo.cache_info().misses for name, memo in memos.items()}


class TestRerankFeatures:
    def test_batch_is_score_per_text_and_both_equal_the_reference(self, scorer, chunk_texts):
        for question in krylov_benchmark():
            texts = chunk_texts[:: 1 + len(question.text) % 5][:24]
            batch = scorer.score_batch(question.text, texts).tolist()
            assert batch == [scorer.score(question.text, t) for t in texts]
            assert batch == [ref_pair_score(scorer, question.text, t) for t in texts]

    def test_empty_query_and_empty_batch(self, scorer):
        assert scorer.score_batch("anything", []).shape == (0,)
        assert scorer.score("", "KSPLSQR") == ref_pair_score(scorer, "", "KSPLSQR")

    def test_doc_cache_is_keyed_on_text_and_bounded(self):
        """One memo for the process, whatever scorer reads it."""
        memo, size = scoring._doc_features, scoring._DOC_MEMO_SIZE
        texts = [f"gmres restart bound check {i}" for i in range(size + 10)]
        before = memo.cache_info()
        scoring.InteractionScorer().score_batch("gmres restart", texts)
        info = memo.cache_info()
        assert (info.currsize, info.maxsize, info.misses - before.misses) == (size, size, size + 10)
        # Another scorer, an equal string that is another object: a hit.
        other = scoring.InteractionScorer(w_proximity=0.3)
        equal = texts[-1][:4] + texts[-1][4:]
        assert equal is not texts[-1]
        assert other.score("gmres restart", equal) == ref_pair_score(other, "gmres restart", equal)
        assert memo.cache_info().hits == info.hits + 1
        # Features come back for the text asked about, whatever was evicted.
        assert other.score("gmres restart", texts[0]) == ref_pair_score(other, "gmres restart", texts[0])
        assert memo.cache_info().misses == info.misses + 1

    def test_stem_memo_is_bounded(self):
        memo, size = textproc.stem_set, textproc._STEM_MEMO_SIZE
        before = memo.cache_info()
        for i in range(size + 10):
            assert memo(f"stem bound check {i}") == {"stem", "bound", "check", str(i)}
        info = memo.cache_info()
        assert (info.currsize, info.maxsize, info.misses - before.misses) == (size, size, size + 10)

    def test_memo_values_are_immutable(self, bundle, chunk_texts):
        for text in chunk_texts:
            features = scoring._doc_features(text)
            assert isinstance(features, tuple) and type(features.stems) is tuple
            for held in (features.terms, features.concepts, features.bigrams):
                assert type(held) is frozenset
            assert features.stems == tuple(stemmed_tokens(text))
            assert type(textproc.stem_set(text)) is frozenset
            assert textproc.stem_set(text) == features.terms == set(stemmed_tokens(text))
        for page in bundle.manual_page_names.values():
            keys = keyword_module._option_keys(page.text)
            assert type(keys) is tuple
            assert keys == tuple(dict.fromkeys(t for t in code_tokens(page.text) if t[0] == "-"))

    def test_no_question_enters_and_nothing_clears_it(self, bundle):
        """Once every chunk and page has been read, asks miss no memo —
        cold ones included — and neither ``invalidate_query_caches()`` nor
        an ingest's swap drops an entry."""
        from tests.test_ingest import _revision_note

        cfg = ReproConfig(
            iterations_per_token=0, retrieval=RetrievalConfig(embedding_model="petsc-embed-small")
        )
        questions = [q.text for q in krylov_benchmark()]
        clear_index_cache()
        try:
            service = open_service(cfg, bundle=bundle, registry=MetricsRegistry())
            artifact = service.engine.artifact
            corpus = sorted(
                {c.text for c in artifact.chunks} | {p.text for p in artifact.manual_pages.values()}
            )
            service.pipeline_for().reranker.score_pairs("", corpus)
            read = _memo_misses()
            for question in questions:
                service.answer(question)
            service.invalidate_query_caches()
            for question in questions:
                service.answer(question + " Briefly.")
            assert _memo_misses() == read
            ingest_corpus(
                service.engine, _revision_note(bundle, "manualpages/KSPGMRES.md", "-memo-check")
            )
            service.answer(questions[0])
            wrote = _memo_misses()
            assert wrote != read  # the new generation read the page the edit wrote
            textproc.stem_set(corpus[0])
            service.pipeline_for().reranker.score_pairs("", corpus)
            for page in artifact.manual_pages.values():
                keyword_module._option_keys(page.text)
            assert _memo_misses() == wrote
        finally:
            clear_index_cache()

    def test_four_threads_on_a_cold_memo(self, chunks, chunk_texts):
        questions = [q.text for q in krylov_benchmark()]
        texts = chunk_texts[::4]
        textproc.stem_set.cache_clear()
        scoring._doc_features.cache_clear()
        got: dict[tuple[int, str], tuple] = {}

        def work(index: int) -> None:
            for cls in (FlashrankLiteReranker, NvidiaSimReranker):
                sc = cls(chunks)._scorer
                got[index, cls.name] = (sc.idf, [sc.score_batch(q, texts).tolist() for q in questions])

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        idf = ref_build_idf(chunks)
        for cls in (FlashrankLiteReranker, NvidiaSimReranker):
            sc = cls(chunks)._scorer
            want = [[ref_pair_score(sc, q, t) for t in texts] for q in questions]
            for index in range(4):
                assert got[index, cls.name] == (idf, want)

    def test_scores_do_not_depend_on_the_hash_seed(self):
        """Coverage sums float IDF weights; in set order the last bits
        would follow ``PYTHONHASHSEED``."""
        script = (
            "import hashlib\n"
            "from repro.corpus import build_default_corpus\n"
            "from repro.corpus.builder import chunk_corpus\n"
            "from repro.evaluation.benchmark import krylov_benchmark\n"
            "from repro.rerank import FlashrankLiteReranker\n"
            "chunks = chunk_corpus(build_default_corpus())\n"
            "texts = [c.text for c in chunks]\n"
            "rr = FlashrankLiteReranker(chunks)\n"
            "h = hashlib.sha256()\n"
            "for q in krylov_benchmark():\n"
            "    h.update(repr(rr.score_pairs(q.text, texts)).encode())\n"
            "print(h.hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = set()
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=120, check=True,
            )
            digests.add(done.stdout.strip())
        assert len(digests) == 1, digests


# --------------------------------------------------------------------- top-k order
class TestSortHits:
    @given(st.lists(st.tuples(st.integers(0, 30), st.sampled_from([0.1, 0.25, 0.5, 0.75])), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_order_is_score_then_doc_id(self, pairs):
        docs = [Document(text=f"chunk {n}") for n, _ in pairs]
        scores = np.array([score for _, score in pairs])
        expected = sorted(zip(docs, scores.tolist()), key=lambda pair: (-pair[1], pair[0].doc_id))
        for k in range(1, len(docs) + 1):
            hits = top_k_hits(scores, docs, k)
            assert [(d.doc_id, s) for d, s in hits] == [(d.doc_id, s) for d, s in expected[:k]]


# --------------------------------------------------------------------- fact relevance
#: The ledger's hot-pool question templates (``benchmarks/ledger/workloads.py``).
_LEDGER_TEMPLATES = (
    "What does {ident} do?",
    "How do I use {ident} in my PETSc code?",
    "When should I choose {ident}?",
    "What should I know before using {ident}?",
)
_REL = RelevanceModel(_REGISTRY)
_FACTS = list(_REGISTRY.facts.values())
_TOPICS = sorted({t for f in _FACTS for t in f.topics})
_PHRASE_TOPICS = [t for t in _TOPICS if " " in t]
_OPTION_KEYS = [t for t in _TOPICS if t.startswith("-")]
#: Solver names as users write them: ``preonly`` for KSPPREONLY, ``ilu`` for PCILU.
_UNPREFIXED = sorted(
    {
        t.lower()[len(prefix):]
        for t in _TOPICS
        for prefix in relevance_module._PREFIXES
        if t.lower().startswith(prefix) and len(t) - len(prefix) >= 2
    }
)
_question_words = st.one_of(
    st.sampled_from(_TOPICS),
    st.sampled_from(_TOPICS).map(str.lower),
    st.sampled_from(_OPTION_KEYS),
    st.sampled_from(_OPTION_KEYS).map(lambda key: key.lstrip("-")),
    st.sampled_from(_UNPREFIXED),
    st.sampled_from(_PHRASE_TOPICS),
    st.sampled_from(_PHRASE_TOPICS).map(str.upper),
    st.sampled_from(["how", "do", "I", "the", "with", "and", "my", "solver", "matrix", "restarted"]),
)
_question_glue = st.sampled_from([" ", ", ", "? ", " -", "\n", "s ", ""])
_mixed_questions = st.lists(st.tuples(_question_words, _question_glue), max_size=10).map(
    lambda parts: "".join(word + glue for word, glue in parts)
)


class TestTopicPlans:
    """Relevance is read off posting lists; the per-fact loop it replaced
    is ``ref_score`` / ``ref_select``, which it must equal bit for bit."""

    def test_score_equals_select_and_the_reference(self, registry):
        rel = RelevanceModel(registry)
        facts = list(registry.facts.values())
        questions = [q.text for q in krylov_benchmark()]
        questions += ["", "I ran with -ksp_type preonly and -pc_type ilu", "what does -log_view print"]
        nonzero = 0
        for question in questions:
            selected = rel.select(
                facts, question, max_facts=len(facts), min_score=0.0, relative=0.0
            )
            by_id = {sf.fact.fact_id: sf.score for sf in selected}
            for fact in facts:
                score = rel.score(fact, question)
                assert by_id.get(fact.fact_id, score) == score
                assert score == ref_score(rel, fact, question)
                nonzero += score > 0
            assert len(selected) == len(facts) or not question or selected == []
        assert nonzero > 500

    @given(
        data=st.data(),
        max_facts=st.integers(0, 12),
        relative=st.one_of(st.sampled_from([0.0, 0.25]), st.floats(-0.5, 1.5)),
        min_score=st.one_of(
            st.sampled_from([0.0, -0.0, -1.0, 0.35, 0.9]), st.floats(-3.0, 8.0)
        ),
    )
    @settings(max_examples=250, deadline=None)
    def test_select_equals_the_reference(self, keyword_search, data, max_facts, relative, min_score):
        identifiers = sorted(keyword_search.known_identifiers()) + ["KSPBurb"]
        question = data.draw(
            st.one_of(
                st.sampled_from([q.text for q in krylov_benchmark()]),
                st.builds(
                    str.format_map,
                    st.sampled_from(_LEDGER_TEMPLATES),
                    st.sampled_from(identifiers).map(lambda ident: {"ident": ident}),
                ),
                _mixed_questions,
            ),
            label="question",
        )
        facts = data.draw(st.lists(st.sampled_from(_FACTS), max_size=30), label="facts")
        # A fact the model was not built with, and an id bound to another
        # fact: scored against a throwaway copy of the postings.
        held = data.draw(st.sampled_from(_FACTS), label="held")
        topics = tuple(data.draw(st.lists(st.sampled_from(_TOPICS + ["late topic"]), max_size=4)))
        late = Fact(f"late.{len(topics)}", held.statement, held.signature, topics)
        rebound = Fact(data.draw(st.sampled_from(_FACTS)).fact_id, held.statement, held.signature, topics[::-1])
        facts += data.draw(st.lists(st.sampled_from([late, rebound]), max_size=3), label="extra")
        facts = data.draw(st.permutations(facts), label="order")
        params = dict(max_facts=max_facts, min_score=min_score, relative=relative)
        want = [(fact, score.hex()) for fact, score in ref_select(_REL, facts, question, **params)]
        posted = _REL._analysis.postings
        features = _REL.question_features(question)
        for asked in (question, features, features):  # one analysis serves several selections
            got = _REL.select(facts, asked, **params)
            assert [(sf.fact, sf.score.hex()) for sf in got] == want
        for fact in dict.fromkeys(facts):
            assert _REL.score(fact, question).hex() == ref_score(_REL, fact, question).hex()
        # The shared analysis is never written after it is built.
        assert _REL._analysis.postings is posted


class TestRegistryAnalysis:
    """The topic and token IDF, plans and postings are one process-wide
    memo keyed by the registry's ``(topics, statement)`` pairs (DESIGN
    §15, the corpus-text rule)."""

    def test_keyed_by_fact_content_never_by_a_question(self, service):
        model = service.pipeline_for("rag+rerank").chat_model
        analysis = model.relevance._analysis
        # Another registry object with equal content reads the same entry.
        first = RelevanceModel(default_registry())._analysis
        assert RelevanceModel(default_registry())._analysis is first
        posted = analysis.postings
        before = relevance_module._analysis.cache_info()
        service.invalidate_query_caches()
        for question in krylov_benchmark():
            service.answer(question.text)
            service.answer(question.text + " Which KSPBurb option?")
        after = relevance_module._analysis.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)
        # Asks post nothing: the registered facts were posted when it was built.
        assert model.relevance._analysis is analysis and analysis.postings is posted
        assert {(f.topics, f.statement) for f in model.registry.facts.values()} <= posted.shapes

    @pytest.mark.parametrize("write", ["add", "rebind", "delete"])
    def test_after_a_registry_write_a_model_equals_a_fresh_one(self, write):
        registry = default_registry()
        base = RelevanceModel(registry)
        weights = dict(base._analysis.topic_weight)
        held = registry.fact("ksp.solve_sequence")
        if write == "add":
            registry.add_fact(Fact("ksp.late", held.statement, ("KSPSolve",), ("KSPSolve", "late")))
        elif write == "rebind":
            registry.facts["ksp.abstraction"] = Fact(
                "ksp.abstraction", held.statement, held.signature, ("PCGAMG", "multigrid")
            )
        else:
            del registry.facts["pcgamg.amg"]
        model = RelevanceModel(registry)
        assert model._analysis is not base._analysis  # a write is a new key
        relevance_module._analysis.cache_clear()
        fresh = RelevanceModel(registry)
        assert fresh._analysis is not model._analysis
        for table in ("topic_weight", "token_idf", "max_token_idf"):
            assert getattr(model._analysis, table) == getattr(fresh._analysis, table)
        facts = list(registry.facts.values())
        params = dict(max_facts=len(facts), min_score=0.0, relative=0.0)
        for question in [q.text for q in krylov_benchmark()] + ["what does the late KSPSolve do"]:
            got = [(sf.fact, sf.score) for sf in model.select(facts, question, **params)]
            assert got == [(sf.fact, sf.score) for sf in fresh.select(facts, question, **params)]
            assert got == ref_select(fresh, facts, question, **params)
        # The model built before the write keeps its weights, as it always has.
        assert base._analysis.topic_weight == weights

    def test_equal_content_reads_one_entry(self):
        registry = default_registry()
        base = RelevanceModel(registry)._analysis
        late = registry.add_fact(Fact("ksp.late", "KSPSolve solves.", ("KSPSolve",), ("KSPSolve",)))
        assert RelevanceModel(registry)._analysis is not base
        del registry.facts[late.fact_id]
        assert RelevanceModel(registry)._analysis is base

    def test_a_one_document_edit_builds_no_new_analysis(self, bundle):
        from tests.test_ingest import _revision_note

        cfg = ReproConfig(
            iterations_per_token=0, retrieval=RetrievalConfig(embedding_model="petsc-embed-small")
        )
        question = krylov_benchmark()[0].text
        clear_index_cache()
        try:
            service = open_service(cfg, bundle=bundle, registry=MetricsRegistry())
            service.answer(question)
            old = service.pipeline_for().chat_model
            analyses = relevance_module._analysis.cache_info()
            draws = parametric_module._draw.cache_info()
            ingest_corpus(
                service.engine, _revision_note(bundle, "manualpages/KSPGMRES.md", "-analysis-check")
            )
            service.answer(question)
            new = service.pipeline_for().chat_model
            assert new is not old
            assert new.relevance._analysis is old.relevance._analysis
            assert relevance_module._analysis.cache_info().misses == analyses.misses
            assert parametric_module._draw.cache_info().misses == draws.misses
            assert new.knowledge.known_facts() == old.knowledge.known_facts()
        finally:
            clear_index_cache()

"""Seeded workload generator for the layer-cost ledger.

Everything the program under test receives — question order, the Zipf
draws, the manual-page question pool, the document edits, the long-tail
corpus — is produced here from ``--seed``.  The program never sees the
seed, only the generated inputs, so the same seed gives the same inputs
on any commit.

Round counts are fixed per workload at ``REFERENCE_SECONDS`` and scale
linearly with ``--seconds``.  They are sized on the 2-core reference
box so a run measures for about ``--seconds`` seconds; keeping them a
pure function of the arguments (not of the clock) is what makes counts,
digests and ``attempted`` repeat exactly between two runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.corpus.builder import CorpusBundle
from repro.documents import Document
from repro.evaluation import krylov_benchmark
from repro.retrieval import ManualPageKeywordSearch

REFERENCE_SECONDS = 20
BATCH_WORKERS = 2
#: Questions in the hot pool; fits the 256-entry answer cache.
HOT_POOL_SIZE = 200
ZIPF_EXPONENT = 1.1

_ZERO_BURN = {"iterations_per_token": 0}
_FOUR_BY_TWO = {
    # One build worker: under the GIL two builder threads make a rebuild
    # on the 2-core reference box slower (about 1.2 s against 0.8 s) and
    # far less repeatable, so set-up and ingest would measure the
    # scheduler.  Answers do not depend on it.
    "sharding": {"num_shards": 4, "build_workers": 1},
    "replication": {"replicas": 2},
}

_TEMPLATES = (
    "What does {ident} do?",
    "How do I use {ident} in my PETSc code?",
    "When should I choose {ident}?",
    "What should I know before using {ident}?",
)


@dataclass(frozen=True)
class Workload:
    """One named traffic mix: a config, a question source, a round plan."""

    name: str
    #: Nested dict for ``ReproConfig.from_dict`` (only the non-default keys).
    config: dict
    #: What runs before every round: ``clear`` drops the query caches
    #: (cold asks, untimed), ``none`` leaves them warm (hits), ``ingest``
    #: applies the next document edit (a timed ingest).
    prepare: str
    #: ``krylov`` — the 37 questions, reshuffled each round; ``zipf`` —
    #: Zipf draws from the 200-question pool, pre-warmed during set-up.
    questions: str
    #: Asks per sequential round and per batch.
    round_asks: int
    #: At REFERENCE_SECONDS: sequential rounds, batches, and document
    #: edits between rounds (on top of those ``prepare`` makes).
    seq_rounds: int
    batch_rounds: int
    edits: int
    #: Ingests per ``edit`` event, one after the other.  Where an edit is
    #: followed by an untimed re-warm that costs more than the ingest
    #: itself, two samples per event are cheaper than two events.
    edit_burst: int = 1
    #: Also grade zero-burn baseline / rag / rag+rerank pipelines and
    #: require the paper's ordering (the paper's own experiment only).
    grade_modes: bool = False

    def schedule(self, seconds: int, quick: bool) -> list[str]:
        """The run's events in order: ``seq``, ``batch`` and ``edit``.

        Each kind is spread evenly over the whole run, so every metric
        samples the whole measured window, and a stretch of outside
        interference cannot fall on one metric alone.  Sequential rounds
        come in pairs, so a traced run can alternate traced and untraced
        rounds over the very same plan; the first event is a sequential
        round, which therefore sees the unedited corpus.
        """
        if quick:
            seq, batch, edits = 2, 1, min(1, self.edits)
        else:
            scale = seconds / REFERENCE_SECONDS
            seq = 2 * max(1, round(self.seq_rounds * scale / 2))
            batch = max(1, round(self.batch_rounds * scale))
            edits = max(1, round(self.edits * scale)) if self.edits else 0
        events = [(i / seq, "seq") for i in range(seq)]
        events += [((i + 0.5) / batch, "batch") for i in range(batch)]
        events += [((i + 0.75) / edits, "edit") for i in range(edits)]
        return [kind for _position, kind in sorted(events)]


# ``ingest_ms`` is the best of a run's ingests, so a run needs enough of
# them, spread out, for one to fall in a quiet stretch of the box: with
# three full rebuilds per run the quartile distance reached 19-31 %.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper_eval",
            config={},
            prepare="clear",
            questions="krylov",
            round_asks=37,
            seq_rounds=4,
            batch_rounds=12,
            edits=8,
            grade_modes=True,
        ),
        Workload(
            name="stack_zero_burn",
            config={**_ZERO_BURN, **_FOUR_BY_TWO},
            prepare="clear",
            questions="krylov",
            round_asks=37,
            seq_rounds=12,
            batch_rounds=18,
            edits=8,
        ),
        Workload(
            name="hot_repeat",
            config=dict(_ZERO_BURN),
            prepare="none",
            questions="zipf",
            round_asks=5000,
            seq_rounds=30,
            batch_rounds=40,
            edits=3,
            edit_burst=2,
        ),
        Workload(
            name="ingest_churn",
            # The delta lane needs a corpus-free embedder.
            config={
                **_ZERO_BURN,
                **_FOUR_BY_TWO,
                "retrieval": {"embedding_model": "petsc-embed-small"},
            },
            prepare="ingest",
            questions="krylov",
            round_asks=37,
            seq_rounds=14,
            batch_rounds=18,
            edits=0,
        ),
    )
}


def _rng(seed: int, stream: str) -> random.Random:
    # A str seed hashes with sha512, so streams are independent and the
    # same in every process.
    return random.Random(f"ledger:{seed}:{stream}")


def krylov_questions() -> list[str]:
    return [q.text for q in krylov_benchmark()]


def hot_pool(bundle: CorpusBundle, seed: int) -> list[str]:
    """The 37 Krylov questions plus seeded manual-page template questions."""
    pool = krylov_questions()
    rng = _rng(seed, "pool")
    identifiers = sorted(ManualPageKeywordSearch(bundle).known_identifiers())
    for ident in rng.sample(identifiers, HOT_POOL_SIZE - len(pool)):
        pool.append(rng.choice(_TEMPLATES).format(ident=ident))
    return pool


class QuestionSource:
    """Per-round question lists for one workload run."""

    def __init__(self, workload: Workload, bundle: CorpusBundle, seed: int) -> None:
        self._workload = workload
        self._seed = seed
        if workload.questions == "zipf":
            self.pool = hot_pool(bundle, seed)
            ranked = list(self.pool)
            _rng(seed, "rank").shuffle(ranked)
            self._ranked = ranked
            self._weights = [
                1.0 / (rank**ZIPF_EXPONENT) for rank in range(1, len(ranked) + 1)
            ]
        else:
            self.pool = krylov_questions()

    def round(self, phase: str, index: int) -> list[str]:
        """The questions of round ``index`` of ``phase`` (seq / batch)."""
        rng = _rng(self._seed, f"{phase}:{index}")
        size = self._workload.round_asks
        if self._workload.questions == "zipf":
            return rng.choices(self._ranked, weights=self._weights, k=size)
        return rng.sample(self.pool, size)


#: A manual page this short is one whole chunk before and after the
#: edit (pages up to 4 x chunk_size stay unsplit), so an edit re-embeds
#: exactly one chunk.
_EDITABLE_PAGE_CHARS = 3000


class EditSequence:
    """Cumulative one-document edits: each rewrites the revision note at
    the end of one seed-chosen manual page."""

    def __init__(self, bundle: CorpusBundle, seed: int) -> None:
        self._rng = _rng(seed, "edits")
        self.bundle = bundle
        self.steps = 0

    def next(self) -> CorpusBundle:
        docs = list(self.bundle.documents)
        pages = dict(self.bundle.manual_page_names)
        slots = [
            i
            for i, d in enumerate(docs)
            if d.metadata.get("doc_type") == "manual_page"
            and len(d.text) <= _EDITABLE_PAGE_CHARS
        ]
        slot = self._rng.choice(slots)
        victim = docs[slot]
        self.steps += 1
        base = victim.text.split("\n\nRevision note")[0]
        edited = Document(
            text=f"{base}\n\nRevision note r{self.steps}: wording revised.",
            metadata=dict(victim.metadata),
        )
        docs[slot] = edited
        for name, page in pages.items():
            if page is victim:
                pages[name] = edited
        self.bundle = CorpusBundle(
            registry=self.bundle.registry, documents=docs, manual_page_names=pages
        )
        return self.bundle


def long_tail_corpus(bundle: CorpusBundle, seed: int, factor: int = 8) -> CorpusBundle:
    """The corpus plus ``factor - 1`` seeded filler copies of its bulk.

    Every filler document has as many body lines as the official
    document it shadows, drawn from the whole corpus, so the vocabulary
    stays the corpus's.  Fillers carry no headers, so long documents
    split into fewer chunks: 8x the documents is about 6.5x the chunks.
    """
    rng = _rng(seed, "longtail")
    official = bundle.official()
    bodies = [
        [line for line in doc.text.splitlines() if line.strip() and not line.startswith("#")]
        for doc in official
    ]
    lines = [line for body in bodies for line in body]
    docs = list(bundle.documents)
    for copy in range(1, factor):
        for slot, (doc, body) in enumerate(zip(official, bodies)):
            docs.append(
                Document(
                    text="\n".join(rng.choices(lines, k=max(1, len(body)))),
                    metadata={
                        "source": f"longtail/{copy}/{slot:04d}.md",
                        # Same type as the shadowed document, so manual
                        # pages stay whole chunks.
                        "doc_type": doc.metadata.get("doc_type", "misc"),
                        "title": f"long tail {copy}-{slot}",
                    },
                )
            )
    return CorpusBundle(
        registry=bundle.registry,
        documents=docs,
        manual_page_names=dict(bundle.manual_page_names),
    )

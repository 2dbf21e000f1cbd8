"""The shard planner: a deterministic partition of the corpus.

The plan is a pure function of (corpus, config): every document routes
to ``stable_hash(source) % num_shards``, each shard gets its own
:class:`~repro.index.artifact.IndexArtifact` digest (the shard's corpus
digest + the config fingerprint extended with shard coordinates), and
the composite artifact is named by the SHA-256 of the **sorted**
per-shard digests.  Per-shard digests key per-shard disk-cache entries,
so a corpus edit rebuilds only the shards whose documents changed.

One embedding model is fitted **globally** over the full chunk list and
shared by every shard build.  This is what makes scores — and therefore
merged retrieval results — identical across shard counts: a per-shard
TF-IDF fit would give each shard its own IDF table and incomparable
scores.  The flip side is a coupling caveat: for corpus-fitted models
(``petsc-embed-large``) the shard fingerprint folds in the *global*
corpus digest as its ``embedding_scope``, so any document edit re-keys
every shard.  Re-keyed is not re-embedded: the builder still copies the
parent's row for every chunk none of whose terms changed IDF, so a
clean shard costs a row copy.  Corpus-free hashing models carry
``embedding_scope="corpus-free"`` and get true single-dirty-shard
incremental rebuilds.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.config import ReproConfig
from repro.corpus.builder import CorpusBundle
from repro.embeddings.registry import is_corpus_fitted
from repro.index.artifact import artifact_digest, config_fingerprint, corpus_digest
from repro.vectorstore.sharded import shard_for_document

#: Tag for models whose vectors do not depend on the fitted corpus.
CORPUS_FREE_SCOPE = "corpus-free"


@dataclass
class ShardSpec:
    """One planned shard: its sub-corpus and the digest that names it."""

    index: int
    num_shards: int
    bundle: CorpusBundle
    corpus_digest: str
    fingerprint: dict
    digest: str


@dataclass
class ShardPlan:
    """The deterministic partition of a corpus into shards."""

    #: The corpus the plan partitions (each spec holds its own slice).
    bundle: CorpusBundle
    num_shards: int
    #: Global corpus digest for corpus-fitted embeddings (any edit
    #: re-keys all shards), or :data:`CORPUS_FREE_SCOPE`.
    embedding_scope: str
    #: The whole corpus's digest, hashed once (the composite's; a lone shard's).
    corpus_digest: str
    shards: list[ShardSpec] = field(default_factory=list)

    @property
    def composite(self) -> str:
        return composite_digest([s.digest for s in self.shards])


def composite_digest(shard_digests: list[str]) -> str:
    """SHA-256 over the sorted per-shard digests (order-independent)."""
    payload = json.dumps(sorted(shard_digests), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def plan_shards(bundle: CorpusBundle, config: ReproConfig) -> ShardPlan:
    """Partition ``bundle`` into per-shard sub-bundles, deterministically.

    Documents keep corpus order within their shard; manual-page name
    tables follow their documents.  The plan (and every digest in it)
    is reproducible across processes — it depends only on document
    sources, contents, and the index-relevant config slice.
    """
    n = config.sharding.num_shards
    docs_by_shard: list[list] = [[] for _ in range(n)]
    for doc in bundle.documents:
        docs_by_shard[shard_for_document(doc, n)].append(doc)
    pages_by_shard: list[dict] = [{} for _ in range(n)]
    for name, page in bundle.manual_page_names.items():
        pages_by_shard[shard_for_document(page, n)][name] = page
    digest = corpus_digest(bundle)
    scope = digest if is_corpus_fitted(config.retrieval.embedding_model) else CORPUS_FREE_SCOPE
    base_fingerprint = config_fingerprint(config)
    specs: list[ShardSpec] = []
    for i in range(n):
        sub = CorpusBundle(
            registry=bundle.registry,
            documents=docs_by_shard[i],
            manual_page_names=pages_by_shard[i],
        )
        fingerprint = dict(base_fingerprint)
        fingerprint["shard"] = i
        fingerprint["num_shards"] = n
        fingerprint["embedding_scope"] = scope
        shard_corpus = digest if n == 1 else corpus_digest(sub)
        specs.append(
            ShardSpec(
                index=i,
                num_shards=n,
                bundle=sub,
                corpus_digest=shard_corpus,
                fingerprint=fingerprint,
                digest=artifact_digest(shard_corpus, fingerprint),
            )
        )
    return ShardPlan(bundle, n, embedding_scope=scope, corpus_digest=digest, shards=specs)

"""Unit and property tests for the embedding models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embeddings import (
    EMBEDDING_MODEL_NAMES,
    HashingEmbedding,
    TfidfEmbedding,
    create_embedding_model,
)
from repro.errors import EmbeddingError

from benchmarks.test_arms import TestSimilarity  # noqa: F401  (collected here)

CORPUS = [
    "GMRES is a Krylov method for nonsymmetric systems",
    "Conjugate gradient requires symmetric positive definite matrices",
    "Preallocation makes matrix assembly fast",
    "The Chebyshev iteration avoids global reductions",
]


class TestHashingEmbedding:
    def test_shape_and_dtype(self):
        emb = HashingEmbedding(dim=64)
        mat = emb.embed_documents(CORPUS)
        assert mat.shape == (4, 64)
        assert mat.dtype == np.float32

    def test_rows_normalized(self):
        emb = HashingEmbedding(dim=64)
        mat = emb.embed_documents(CORPUS)
        norms = np.linalg.norm(mat, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-5)

    def test_deterministic(self):
        a = HashingEmbedding(dim=64).embed_documents(CORPUS)
        b = HashingEmbedding(dim=64).embed_documents(CORPUS)
        assert np.array_equal(a, b)

    def test_query_matches_self(self):
        emb = HashingEmbedding(dim=256)
        docs = emb.embed_documents(CORPUS)
        q = emb.embed_query(CORPUS[0])
        sims = docs @ q
        assert int(np.argmax(sims)) == 0

    def test_empty_text_is_zero_vector(self):
        emb = HashingEmbedding(dim=64)
        mat = emb.embed_documents(["", "word"])
        assert np.allclose(mat[0], 0.0)

    def test_empty_list(self):
        emb = HashingEmbedding(dim=64)
        assert emb.embed_documents([]).shape == (0, 64)

    def test_invalid_inputs(self):
        emb = HashingEmbedding(dim=64)
        with pytest.raises(EmbeddingError):
            emb.embed_documents("not a list")  # type: ignore[arg-type]
        with pytest.raises(EmbeddingError):
            emb.embed_documents([1])  # type: ignore[list-item]

    def test_invalid_params(self):
        with pytest.raises(EmbeddingError):
            HashingEmbedding(dim=4)
        with pytest.raises(EmbeddingError):
            HashingEmbedding(ngram_max=0)

    @given(st.lists(st.text(max_size=80), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_norm_at_most_one(self, texts):
        emb = HashingEmbedding(dim=32)
        mat = emb.embed_documents(texts)
        norms = np.linalg.norm(mat, axis=1)
        assert np.all(norms <= 1.0 + 1e-5)


class TestTfidfEmbedding:
    def test_requires_fit(self):
        emb = TfidfEmbedding(dim=64)
        with pytest.raises(EmbeddingError):
            emb.embed_documents(["x"])

    def test_fit_and_embed(self):
        emb = TfidfEmbedding(dim=64).fit(CORPUS)
        assert len(emb._idf) > 10
        mat = emb.embed_documents(CORPUS)
        assert mat.shape == (4, 64)

    def test_fit_empty_raises(self):
        with pytest.raises(EmbeddingError):
            TfidfEmbedding().fit([])

    def test_self_similarity_highest(self):
        emb = TfidfEmbedding(dim=256).fit(CORPUS)
        docs = emb.embed_documents(CORPUS)
        for i in range(len(CORPUS)):
            sims = docs @ emb.embed_query(CORPUS[i])
            assert int(np.argmax(sims)) == i

    def test_oov_only_query_is_zero(self):
        emb = TfidfEmbedding(dim=64).fit(CORPUS)
        q = emb.embed_query("zzz qqq www")
        assert np.allclose(q, 0.0)

    def test_deterministic_across_instances(self):
        a = TfidfEmbedding(dim=64).fit(CORPUS).embed_documents(CORPUS)
        b = TfidfEmbedding(dim=64).fit(CORPUS).embed_documents(CORPUS)
        assert np.array_equal(a, b)


class TestTfidfDerivedFit:
    """``fit(texts, parent=...)`` carries counts and projection rows over
    and is value-identical to a fit that carried nothing."""

    EDITED = [*CORPUS[:3], "The Chebyshev iteration needs eigenvalue bounds"]

    def test_equals_a_from_scratch_fit(self):
        parent = TfidfEmbedding(dim=64).fit(CORPUS)
        parent.embed_documents(CORPUS)
        derived = TfidfEmbedding(dim=64).fit(self.EDITED, parent)
        scratch = TfidfEmbedding(dim=64).fit(self.EDITED)
        assert derived._idf == scratch._idf
        assert derived._counts == scratch._counts
        assert np.array_equal(
            derived.embed_documents(self.EDITED), scratch.embed_documents(self.EDITED)
        )
        query = "Chebyshev eigenvalue bounds for GMRES"
        assert np.array_equal(derived.embed_query(query), scratch.embed_query(query))

    # Each case is a lineage of fits — (texts, index of the parent fit)
    # — and the index of the fit the last one is compared against.
    REVISED = "Conjugate gradient needs a symmetric preconditioner too"
    DERIVED_CASES = {
        # A text present twice loses one copy: its terms keep a nonzero
        # document frequency, one lower.
        "duplicate-loses-a-copy": (
            [([*CORPUS, CORPUS[0]], None), ([*CORPUS, REVISED], 0)], 0
        ),
        "edit-then-undo-vs-original": ([(CORPUS, None), (EDITED, 0), (CORPUS, 1)], 0),
        "edit-then-undo-vs-edit": ([(CORPUS, None), (EDITED, 0), (CORPUS, 1)], 1),
        "sibling": ([(CORPUS, None), (EDITED, 0), ([REVISED, *CORPUS[1:]], 0)], 1),
        "grandparent": (
            [(CORPUS, None), (EDITED, 0), ([REVISED, *EDITED[1:]], 1)], 0
        ),
        "count-grows": ([(CORPUS, None), ([*CORPUS, REVISED], 0)], 0),
        "count-shrinks-to-a-duplicate": ([(CORPUS, None), ([CORPUS[1]] * 2, 0)], 0),
    }

    @pytest.mark.parametrize("case", sorted(DERIVED_CASES))
    def test_matches_a_scratch_fit_and_the_full_comparison(self, case):
        steps, since = self.DERIVED_CASES[case]
        fits: list[TfidfEmbedding] = []
        for texts, parent in steps:
            fit = TfidfEmbedding(dim=64).fit(texts, None if parent is None else fits[parent])
            fit.embed_documents(texts)  # a served fit fills its rows
            fits.append(fit)
        derived, older, texts = fits[-1], fits[since], steps[-1][0]
        scratch = TfidfEmbedding(dim=64).fit(texts)
        assert derived._idf == scratch._idf and derived._df == scratch._df
        assert set(derived._rows) <= set(derived._idf)
        assert np.array_equal(derived.embed_documents(texts), scratch.embed_documents(texts))
        # The full comparison of the two IDF tables.
        full = {
            t
            for t in older._idf.keys() | derived._idf.keys()
            if older._idf.get(t) != derived._idf.get(t)
        }
        assert derived.changed_terms(older) == full
        moved = derived.moved_since(older)
        for text in {*texts, *steps[since][0], "zzz qqq"}:
            assert moved(text) == bool(full & derived._counts_of(text).keys())
            if not moved(text):
                assert np.array_equal(derived.embed_query(text), older.embed_query(text))
        if sorted(texts) == sorted(steps[since][0]):
            # An undone edit: the frequencies are back, and nothing moved.
            assert derived._df == older._df and not full

    def test_carries_the_parents_objects_and_leaves_it_untouched(self):
        parent = TfidfEmbedding(dim=64).fit(CORPUS)
        parent.embed_documents(CORPUS)
        before = (dict(parent._rows), dict(parent._counts), dict(parent._idf))
        derived = TfidfEmbedding(dim=64).fit(self.EDITED, parent)
        derived.embed_documents(self.EDITED)
        after = (parent._rows, parent._counts, parent._idf)
        for was, now in zip(before, after):
            assert was.keys() == now.keys()
            assert all(was[k] is now[k] for k in was)
        # Same arrays and counters, in tables of the derived fit's own.
        assert derived._rows is not parent._rows and derived._counts is not parent._counts
        assert derived._counts[CORPUS[0]] is parent._counts[CORPUS[0]]
        assert derived._rows["gmres"] is parent._rows["gmres"]
        # What left the corpus is not carried.
        assert CORPUS[3] not in derived._counts
        assert "avoids" in parent._rows and "avoids" not in derived._rows

    def test_a_parent_of_another_shape_is_ignored(self):
        parent = TfidfEmbedding(dim=32).fit(CORPUS)
        parent.embed_documents(CORPUS)
        derived = TfidfEmbedding(dim=64).fit(CORPUS, parent)
        assert not derived._rows
        assert np.array_equal(
            derived.embed_documents(CORPUS), TfidfEmbedding(dim=64).fit(CORPUS).embed_documents(CORPUS)
        )
        assert TfidfEmbedding(dim=64).fit(CORPUS, HashingEmbedding(dim=64))._idf == derived._idf

    def test_changed_terms_and_moved_texts(self):
        parent = TfidfEmbedding(dim=64).fit(CORPUS)
        derived = TfidfEmbedding(dim=64).fit(self.EDITED, parent)
        changed = derived.changed_terms(parent)
        assert changed == {
            t
            for t in set(parent._idf) | set(derived._idf)
            if parent._idf.get(t) != derived._idf.get(t)
        }
        # Entered, left, and the edited text's own unigrams whose
        # document frequency did not move are not in it.
        assert {"needs", "eigenvalue", "avoids", "global"} <= changed
        assert not {"chebyshev", "iteration", "gmres"} & changed
        moved = derived.moved_since(parent)
        assert not moved(CORPUS[0]) and not moved("Chebyshev iteration")
        assert moved("global reductions")  # both terms left the vocabulary
        assert moved("needs preallocation") and not moved("never seen")
        assert np.array_equal(derived.embed_query(CORPUS[0]), parent.embed_query(CORPUS[0]))

    def test_a_changed_text_count_moves_every_term(self):
        parent = TfidfEmbedding(dim=64).fit(CORPUS)
        derived = TfidfEmbedding(dim=64).fit(CORPUS[:3], parent)
        assert derived.changed_terms(parent) == set(parent._idf)
        moved = derived.moved_since(parent)
        assert all(moved(text) for text in CORPUS)
        assert not moved("zzz qqq")  # the zero vector stays the zero vector

    def test_another_model_moves_everything(self):
        fit = TfidfEmbedding(dim=64).fit(CORPUS)
        assert fit.moved_since(HashingEmbedding(dim=64))("anything")
        assert fit.moved_since(TfidfEmbedding(dim=64, ngram_max=1).fit(CORPUS))("anything")
        hashing = HashingEmbedding(dim=64)
        assert not hashing.moved_since(HashingEmbedding(dim=64))("anything")
        assert hashing.moved_since(HashingEmbedding(dim=32))("anything")

    def test_a_long_edit_chain_holds_only_the_live_vocabulary(self):
        # Carried state lives on the fit and dies with it: 1,000 derived
        # fits never hold a row or a count the live corpus does not use.
        texts = list(CORPUS)
        fit = TfidfEmbedding(dim=16).fit(texts)
        fit.embed_documents(texts)
        for step in range(1000):
            texts[step % len(texts)] = f"{CORPUS[step % len(CORPUS)]} revision r{step}"
            fit = TfidfEmbedding(dim=16).fit(texts, fit)
            fit.embed_documents(texts)
            assert len(fit._rows) <= len(fit._idf)
            assert len(fit._counts) <= len(texts)
        assert np.array_equal(
            fit.embed_documents(texts), TfidfEmbedding(dim=16).fit(texts).embed_documents(texts)
        )


class TestRegistry:
    def test_names(self):
        assert "petsc-embed-large" in EMBEDDING_MODEL_NAMES

    def test_large_requires_corpus(self):
        with pytest.raises(EmbeddingError):
            create_embedding_model("petsc-embed-large")

    def test_small_and_mini(self):
        small = create_embedding_model("petsc-embed-small")
        mini = create_embedding_model("petsc-embed-mini")
        assert small.dim > mini.dim

    def test_unknown(self):
        with pytest.raises(EmbeddingError):
            create_embedding_model("nope")

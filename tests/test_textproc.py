"""Unit tests for repro.utils.textproc."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.utils.textproc import (
    STOPWORDS,
    code_tokens,
    is_petsc_api_identifier,
    normalize_text,
    sentences,
    stem,
    stemmed_tokens,
    tokenize,
    tokenize_with_stopwords,
    word_ngrams,
)


class TestNormalize:
    def test_collapses_whitespace(self):
        assert normalize_text("a   b\t\nc") == "a b c"

    def test_strips_ends(self):
        assert normalize_text("  hello  ") == "hello"

    def test_empty(self):
        assert normalize_text("   ") == ""

    def test_preserves_case(self):
        assert normalize_text("KSPSolve") == "KSPSolve"


class TestTokenize:
    def test_basic(self):
        assert "gmres" in tokenize("the GMRES method")

    def test_stopwords_removed(self):
        toks = tokenize("the and of a method")
        assert toks == ["method"]

    def test_hyphen_compound_split(self):
        toks = tokenize("a low-memory method")
        assert "low-memory" in toks
        assert "memory" in toks
        assert "low" in toks

    def test_camel_case_split(self):
        toks = tokenize("call KSPGetConvergedReason please")
        assert "kspgetconvergedreason" in toks
        assert "converged" in toks
        assert "reason" in toks
        assert "ksp" in toks

    def test_option_key_split(self):
        toks = tokenize("-ksp_converged_reason")
        assert "converged" in toks and "reason" in toks

    def test_with_stopwords_keeps_them(self):
        toks = tokenize_with_stopwords("the method")
        assert toks == ["the", "method"]

    def test_empty_string(self):
        assert tokenize("") == []

    @given(st.text(max_size=200))
    def test_never_raises_and_lowercase(self, text):
        for tok in tokenize(text):
            assert tok == tok.lower()

    @given(st.text(max_size=200))
    def test_no_stopwords_leak(self, text):
        assert not (set(tokenize(text)) & STOPWORDS)


class TestStem:
    @pytest.mark.parametrize(
        "a,b",
        [
            ("converged", "convergence"),
            ("failed", "failure"),
            ("iteration", "iterations"),
            ("tolerance", "tolerances"),
            ("solve", "solver"),
            ("preconditioner", "preconditioning"),
        ],
    )
    def test_inflection_pairs_unify(self, a, b):
        assert stem(a) == stem(b)

    def test_short_tokens_untouched(self):
        assert stem("ksp") == "ksp"

    def test_identifiers_untouched(self):
        assert stem("KSPSolve") == "KSPSolve"

    def test_plural_y(self):
        assert stem("libraries") == "library"

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=30))
    def test_stem_idempotent_enough(self, token):
        # Stemming twice must not diverge wildly: the second application
        # may shorten further, but output is always a prefix-ish of input.
        once = stem(token)
        assert len(once) >= 1
        assert once[:3] == token[:3] or len(token) <= 4

    def test_stemmed_tokens(self):
        assert "converg" in stemmed_tokens("the solver converged quickly")


class TestCodeTokens:
    def test_api_names(self):
        assert code_tokens("What does KSPSolve do?") == ["KSPSolve"]

    def test_option_keys(self):
        assert "-ksp_monitor" in code_tokens("use -ksp_monitor here")

    def test_hyphenated_word_not_option(self):
        assert code_tokens("a low-memory method") == []

    def test_mixed(self):
        toks = code_tokens("KSPSetType plus -pc_type jacobi")
        assert "KSPSetType" in toks and "-pc_type" in toks
        assert code_tokens("-pc_factor_levels")[0] == "-pc_factor_levels"

    def test_plain_words_ignored(self):
        assert code_tokens("the quick brown fox") == []


class TestIsPetscApiIdentifier:
    @pytest.mark.parametrize("ident", ["KSPSolve", "KSPBurb", "MatSetValues", "-ksp_rtol", "PetscMalloc1"])
    def test_positive(self, ident):
        assert is_petsc_api_identifier(ident)

    @pytest.mark.parametrize("ident", ["BiCGStab", "GMRES", "OpenMP", "low-memory", "hello"])
    def test_negative(self, ident):
        assert not is_petsc_api_identifier(ident)


class TestSentences:
    def test_split_on_period(self):
        s = sentences("One sentence. Another one.")
        assert len(s) == 2

    def test_newlines_are_boundaries(self):
        s = sentences("- first bullet with GMRES\n- second bullet with restart")
        assert len(s) == 2

    def test_empty(self):
        assert sentences("") == []

    def test_abbrev_not_oversplit(self):
        # No capital after the period → no split.
        s = sentences("see e.g. the manual")
        assert len(s) == 1


class TestNgrams:
    def test_bigrams(self):
        assert list(word_ngrams(["a", "b", "c"], 2)) == [("a", "b"), ("b", "c")]

    def test_order_too_large(self):
        assert list(word_ngrams(["a"], 2)) == []

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            list(word_ngrams(["a"], 0))

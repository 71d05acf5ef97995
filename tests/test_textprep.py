"""Normalization, segmentation, and document construction."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from simscan.features import load_query_phrases
from simscan.textprep import (
    Preprocessor,
    load_stopwords,
    normalize,
    remove_stopwords,
    split_sentences,
    tokenize,
)


def test_normalize_examples():
    assert normalize("  Web   Based—Cross!  ") == "web based cross"
    assert normalize("Touch.") == "touch"
    assert normalize("English Word") == "english word"
    assert normalize("A1 b2, C3.") == "a1 b2 c3"
    assert normalize("") == ""
    assert normalize("!!!") == ""


@given(st.text(max_size=200))
def test_normalize_idempotent_and_tidy(text):
    once = normalize(text)
    assert normalize(once) == once
    assert once == once.strip()
    assert "  " not in once
    assert once == once.lower()


def test_tokenize():
    assert tokenize("web based cross") == ["web", "based", "cross"]
    assert tokenize("") == []


def test_remove_stopwords_keeps_order():
    kept = remove_stopwords(["the", "ball", "is", "red"], frozenset({"the", "is"}))
    assert kept == ["ball", "red"]


def test_segmentation_basic():
    sentences = split_sentences("One. Two! Three?")
    assert [s.text for s in sentences] == ["One.", "Two!", "Three?"]
    assert [s.index for s in sentences] == [0, 1, 2]


def test_segmentation_requires_whitespace_after_terminator():
    # "a.b." only cuts where the dot is followed by whitespace or EOF.
    sentences = split_sentences("a.b. c")
    assert [s.text for s in sentences] == ["a.b.", "c"]


def test_segmentation_without_terminator_is_one_sentence():
    sentences = split_sentences("no terminal punctuation here")
    assert len(sentences) == 1
    assert sentences[0].tokens == ("no", "terminal", "punctuation", "here")


def test_segmentation_empty_and_blank():
    assert split_sentences("") == []
    assert split_sentences("   \n\t ") == []
    assert split_sentences("...") == []


def test_sentence_token_views():
    stop = frozenset({"the", "is"})
    [s] = split_sentences("The player kicked the ball!", stop)
    assert s.tokens == ("the", "player", "kicked", "the", "ball")
    assert s.content_tokens == ("player", "kick", "ball")
    assert s.normalized == "the player kicked the ball"


def test_stopword_check_precedes_stemming():
    # "this" is a stopword; "thi" (its stem) must not leak through.
    stop = frozenset({"this"})
    [s] = split_sentences("this ball", stop)
    assert s.content_tokens == ("ball",)


def test_document_concatenates_sentences():
    pre = Preprocessor(frozenset({"the"}))
    doc = pre.document("d", "The quick fox. The lazy dog!")
    assert doc.normalized_text == "the quick fox the lazy dog"
    assert doc.tokens == ("the", "quick", "fox", "the", "lazy", "dog")
    assert doc.content_tokens == ("quick", "fox", "lazi", "dog")
    assert [s.index for s in doc.sentences] == [0, 1]


@given(st.text(max_size=300))
def test_document_tokens_match_normalized_text(text):
    pre = Preprocessor(frozenset())
    doc = pre.document("d", text)
    assert " ".join(doc.tokens) == doc.normalized_text
    assert doc.normalized_text == normalize(text)


def _is_subsequence(needle: str, haystack: str) -> bool:
    it = iter(haystack)
    return all(any(ch == h for h in it) for ch in needle)


@given(st.text(max_size=300))
def test_sentence_texts_are_subsequences_of_input(text):
    for sentence in split_sentences(text, frozenset()):
        assert _is_subsequence(sentence.text, text)
    concatenated = "".join(s.text for s in split_sentences(text, frozenset()))
    assert _is_subsequence(concatenated, text)


@given(st.text(alphabet="ab .", max_size=120))
def test_content_tokens_subsequence_of_stemmed_tokens(text):
    from simscan.porter import stem

    stop = frozenset({"a"})
    for sentence in split_sentences(text, stop):
        stemmed = [stem(t) for t in sentence.tokens]
        it = iter(stemmed)
        assert all(any(tok == s for s in it) for tok in sentence.content_tokens)


def test_default_stopwords_loaded_once():
    words = load_stopwords()
    assert {"the", "is", "we", "that"} <= words
    assert "ball" not in words
    assert load_stopwords() is words


def test_stopword_file_parsing(tmp_path):
    path = tmp_path / "stops.txt"
    path.write_text("# comment\nThe\n\n  And  \n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"the", "and"})


def test_word_lists_share_one_line_rule(tmp_path):
    path = tmp_path / "list.txt"
    path.write_text("# comment\n  The  \n\n\t# indented\nIn short,\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"the", "in short,"})
    assert load_query_phrases(path) == ("the", "in short,")


def test_missing_stopword_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_stopwords(tmp_path / "nope.txt")

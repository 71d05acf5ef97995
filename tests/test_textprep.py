"""Tokens, segmentation, and document construction."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import simscan.textprep
from simscan.features import load_query_phrases, top_keywords
from simscan.porter import stem
from simscan.textprep import (
    DEFAULT_STOPWORDS,
    StemMemo,
    document,
    load_stopwords,
)

# Characters where the word and sentence-end rules could part from
# str.isalnum / str.isspace: terminators, "_", separators that are
# whitespace to Python ("\x1c", "\u2028", "\xa0", "\u0085"), a letter whose
# lowercase grows ("İ") and a digit that is not decimal ("²").
EDGE_TEXT = st.text(alphabet="aZ9 .!?_\x1c\u2028\xa0\u0085İ²\n", max_size=60)


def _oracle_normalize(text: str) -> str:
    """The per-character normalizer the regex replaced."""
    cleaned = "".join(ch if ch.isalnum() else " " for ch in text.lower())
    return " ".join(cleaned.split())


def _oracle_segment(text: str) -> list[str]:
    """The hand loop the sentence-end regex replaced."""
    segments = []
    start = 0
    n = len(text)
    for i, ch in enumerate(text):
        if ch in ".!?" and (i + 1 == n or text[i + 1].isspace()):
            segments.append(text[start : i + 1])
            start = i + 1
    if start < n:
        segments.append(text[start:])
    return [s.strip() for s in segments if s.strip()]


def _oracle_sentences(text: str) -> list[tuple[str, tuple[str, ...]]]:
    pieces = [(raw, tuple(_oracle_normalize(raw).split())) for raw in _oracle_segment(text)]
    return [(raw, tokens) for raw, tokens in pieces if tokens]


@given(st.one_of(st.text(max_size=200), EDGE_TEXT))
def test_normalize_matches_per_character_oracle(text):
    assert document("d", text).normalized_text == _oracle_normalize(text)


@given(st.one_of(st.text(max_size=200), EDGE_TEXT))
def test_split_sentences_matches_segment_loop_oracle(text):
    sentences = document("d", text).sentences
    assert [(s.text, s.tokens) for s in sentences] == _oracle_sentences(text)


def test_normalize_examples():
    assert document("d", "  Web   Based—Cross!  ").normalized_text == "web based cross"
    assert document("d", "Touch.").normalized_text == "touch"
    assert document("d", "English Word").normalized_text == "english word"
    assert document("d", "A1 b2, C3.").normalized_text == "a1 b2 c3"
    assert document("d", "").normalized_text == ""
    assert document("d", "!!!").normalized_text == ""


@given(st.text(max_size=200))
def test_normalize_idempotent_and_tidy(text):
    once = document("d", text).normalized_text
    assert document("d", once).normalized_text == once
    assert once == once.strip()
    assert "  " not in once
    assert once == once.lower()


def test_segmentation_basic():
    sentences = document("d", "One. Two! Three?").sentences
    assert [s.text for s in sentences] == ["One.", "Two!", "Three?"]


def test_segmentation_requires_whitespace_after_terminator():
    # "a.b." only cuts where the dot is followed by whitespace or EOF.
    sentences = document("d", "a.b. c").sentences
    assert [s.text for s in sentences] == ["a.b.", "c"]


def test_segmentation_without_terminator_is_one_sentence():
    sentences = document("d", "no terminal punctuation here").sentences
    assert len(sentences) == 1
    assert sentences[0].tokens == ("no", "terminal", "punctuation", "here")


def test_segmentation_empty_and_blank():
    assert document("d", "").sentences == ()
    assert document("d", "   \n\t ").sentences == ()
    assert document("d", "...").sentences == ()


def test_sentence_token_views():
    stop = frozenset({"the", "is"})
    doc = document("d", "The player kicked the ball!")
    [s] = doc.sentences
    assert s.tokens == ("the", "player", "kicked", "the", "ball")
    assert top_keywords(doc, 10, stop) == {"player", "kick", "ball"}
    assert " ".join(s.tokens) == "the player kicked the ball"


def test_stopword_check_precedes_stemming():
    # "this" is a stopword; "thi" (its stem) must not leak through.
    stop = frozenset({"this"})
    assert top_keywords(document("d", "this ball"), 10, stop) == {"ball"}


def test_document_concatenates_sentences():
    doc = document("d", "The quick fox. The lazy dog!")
    assert doc.normalized_text == "the quick fox the lazy dog"
    tokens = tuple(t for s in doc.sentences for t in s.tokens)
    assert tokens == ("the", "quick", "fox", "the", "lazy", "dog")
    assert top_keywords(doc, 10, frozenset({"the"})) == {"quick", "fox", "lazi", "dog"}
    assert [s.text for s in doc.sentences] == ["The quick fox.", "The lazy dog!"]


@given(st.text(max_size=300))
def test_document_tokens_match_normalized_text(text):
    doc = document("d", text)
    assert " ".join(t for s in doc.sentences for t in s.tokens) == doc.normalized_text
    assert doc.normalized_text == _oracle_normalize(text)


def _is_subsequence(needle: str, haystack: str) -> bool:
    it = iter(haystack)
    return all(any(ch == h for h in it) for ch in needle)


@given(st.text(max_size=300))
def test_sentence_texts_are_subsequences_of_input(text):
    for sentence in document("d", text).sentences:
        assert _is_subsequence(sentence.text, text)
    concatenated = "".join(s.text for s in document("d", text).sentences)
    assert _is_subsequence(concatenated, text)


@given(st.text(alphabet="ab .", max_size=120))
def test_content_terms_are_stems_of_non_stopword_tokens(text):
    stop = frozenset({"a"})
    doc = document("d", text)
    stemmed = {stem(t) for s in doc.sentences for t in s.tokens if t not in stop}
    assert top_keywords(doc, max(len(stemmed), 1), stop) == stemmed


def test_stemming_goes_through_module_level_stem(monkeypatch):
    # The benchmark's tracer times stemming by rebinding this name.  Each
    # distinct content token is stemmed once, by `top_keywords` alone.
    calls = []
    real = simscan.textprep.stem

    def counting(token):
        calls.append(token)
        return real(token)

    monkeypatch.setattr(simscan.textprep, "stem", counting)
    doc = document("d", "The players kicked the balls to the players!")
    assert calls == []
    assert top_keywords(doc, 1, frozenset({"the", "to"})) == {"player"}
    assert calls == ["players", "kicked", "balls"]


WORDY_TEXT = st.text(alphabet="abeilnorstuy .!", max_size=120)


@given(st.lists(st.one_of(WORDY_TEXT, st.text(max_size=60)), max_size=6))
def test_long_lived_preprocessor_equals_fresh_ones(texts):
    stop = frozenset({"a", "the", "is"})
    stems = StemMemo()
    for i, text in enumerate(texts):
        doc = document(f"d{i}", text)
        assert top_keywords(doc, 5, stop, stems) == top_keywords(doc, 5, stop)


def test_preprocessor_stems_each_token_once(monkeypatch):
    calls = []
    real = simscan.textprep.stem

    def counting(token):
        calls.append(token)
        return real(token)

    monkeypatch.setattr(simscan.textprep, "stem", counting)
    stop, stems = frozenset({"the"}), StemMemo()
    first = top_keywords(document("a", "The players kicked the balls."), 10, stop, stems)
    second = top_keywords(document("b", "Players kicked balls. The goals!"), 10, stop, stems)
    assert sorted(calls) == ["balls", "goals", "kicked", "players"]
    assert first == {"player", "kick", "ball"}
    assert second == {"player", "kick", "ball", "goal"}


def test_default_stopwords_loaded_once():
    words = load_stopwords()
    assert words is DEFAULT_STOPWORDS
    assert {"the", "is", "we", "that"} <= words
    assert "ball" not in words
    assert load_stopwords() is words
    # Every default index header records this digest as `stopwords_sha256`.
    assert len(words) == 127
    assert hashlib.sha256("\n".join(sorted(words)).encode("utf-8")).hexdigest() == (
        "9f2b05a670302e69fc7a75ea3d965284e565e9cff7729e631576b9cce614a785"
    )


def test_stopword_file_parsing(tmp_path):
    path = tmp_path / "stops.txt"
    path.write_text("# comment\nThe\n\n  And  \n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"the", "and"})


def test_word_lists_share_one_line_rule(tmp_path):
    path = tmp_path / "list.txt"
    path.write_text("# comment\n  The  \n\n\t# indented\nIn short,\n", encoding="utf-8")
    # A stopword list holds the tokens its lines give, as documents are tokenized.
    assert load_stopwords(path) == frozenset({"the", "in", "short"})
    assert load_query_phrases(path) == ("the", "in short,")
    # A form feed or U+2028 inside a line does not split it, as str.splitlines would.
    path.write_text("alpha\x0cbeta\nin short,\u2028we find that\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"alpha", "beta", "in", "short", "we", "find", "that"})
    assert load_query_phrases(path) == ("alpha beta", "in short, we find that")


def test_stopword_entries_are_read_as_tokens(tmp_path):
    path = tmp_path / "stops.txt"
    path.write_text("Don't\nWELL-KNOWN\n!!!\n", encoding="utf-8")
    words = load_stopwords(path)
    assert words == frozenset({"don", "t", "well", "known"})
    assert top_keywords(document("d", "Don't use well-known words."), 10, words) == {"us", "word"}


def test_missing_stopword_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_stopwords(tmp_path / "nope.txt")

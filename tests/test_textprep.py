"""Normalization, segmentation, and document construction."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import simscan.textprep
from simscan.features import load_query_phrases
from simscan.textprep import (
    DEFAULT_STOPWORDS,
    StemMemo,
    document,
    load_stopwords,
    normalize,
    split_sentences,
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
    assert normalize(text) == _oracle_normalize(text)


@given(st.one_of(st.text(max_size=200), EDGE_TEXT))
def test_split_sentences_matches_segment_loop_oracle(text):
    sentences = split_sentences(text, frozenset())
    assert [(s.text, s.tokens) for s in sentences] == _oracle_sentences(text)
    assert [s.index for s in sentences] == list(range(len(sentences)))


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
    doc = document("d", "The quick fox. The lazy dog!", frozenset({"the"}))
    assert doc.normalized_text == "the quick fox the lazy dog"
    tokens = tuple(t for s in doc.sentences for t in s.tokens)
    assert tokens == ("the", "quick", "fox", "the", "lazy", "dog")
    assert doc.content_tokens == ("quick", "fox", "lazi", "dog")
    assert [s.index for s in doc.sentences] == [0, 1]


@given(st.text(max_size=300))
def test_document_tokens_match_normalized_text(text):
    doc = document("d", text, frozenset())
    assert " ".join(t for s in doc.sentences for t in s.tokens) == doc.normalized_text
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


def test_stemming_goes_through_module_level_stem(monkeypatch):
    # The benchmark's tracer times stemming by rebinding this name.  Each
    # distinct token is stemmed once.
    calls = []
    real = simscan.textprep.stem

    def counting(token):
        calls.append(token)
        return real(token)

    monkeypatch.setattr(simscan.textprep, "stem", counting)
    text = "The players kicked the balls to the players!"
    [s] = split_sentences(text, frozenset({"the", "to"}))
    assert calls == ["players", "kicked", "balls"]
    assert s.content_tokens == ("player", "kick", "ball", "player")


WORDY_TEXT = st.text(alphabet="abeilnorstuy .!", max_size=120)


@given(st.lists(st.one_of(WORDY_TEXT, st.text(max_size=60)), max_size=6))
def test_long_lived_preprocessor_equals_fresh_ones(texts):
    stop = frozenset({"a", "the", "is"})
    stems = StemMemo()
    for i, text in enumerate(texts):
        assert document(f"d{i}", text, stop, stems) == document(f"d{i}", text, stop)


def test_preprocessor_stems_each_token_once(monkeypatch):
    calls = []
    real = simscan.textprep.stem

    def counting(token):
        calls.append(token)
        return real(token)

    monkeypatch.setattr(simscan.textprep, "stem", counting)
    stop, stems = frozenset({"the"}), StemMemo()
    first = document("a", "The players kicked the balls.", stop, stems)
    second = document("b", "Players kicked balls. The goals!", stop, stems)
    assert sorted(calls) == ["balls", "goals", "kicked", "players"]
    assert first.content_tokens == ("player", "kick", "ball")
    assert second.content_tokens == ("player", "kick", "ball", "goal")


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
    assert load_stopwords(path) == frozenset({"the", "in short,"})
    assert load_query_phrases(path) == ("the", "in short,")
    # A form feed or U+2028 inside a line does not split it, as str.splitlines would.
    path.write_text("alpha\x0cbeta\nin short,\u2028we find that\n", encoding="utf-8")
    assert load_stopwords(path) == frozenset({"alpha\x0cbeta", "in short,\u2028we find that"})
    assert load_query_phrases(path) == ("alpha beta", "in short, we find that")


def test_missing_stopword_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_stopwords(tmp_path / "nope.txt")

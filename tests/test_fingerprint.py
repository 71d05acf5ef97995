"""Gram extraction, resemblance measures, weights, and sentence keys."""

import tracemalloc
from fractions import Fraction

import pytest
from fingerprint_oracle import gram_weights, weighted_fingerprints
from hypothesis import example, find, given
from hypothesis import strategies as st

from simscan.fingerprint import (
    ALL_FEATURES,
    STATEMENT_GRAM_COUNT,
    STATEMENT_GRAM_LEN,
    GramMultiset,
    ResemblanceScore,
    SentenceFingerprint,
    _kgram_list,
    char_kgrams,
    document_fingerprints,
    document_grams,
    fingerprint_keys,
    full_resemblance,
    jaccard,
    jaccard_value,
    overlap,
    overlap_bound,
    word_trigrams,
)
from simscan.detector import Detector, DetectorConfig
from simscan.textprep import document

texts = st.text(alphabet="abc d", max_size=40)
small_k = st.integers(min_value=1, max_value=6)


def naive_grams(text: str, k: int) -> dict[str, int]:
    """Oracle: count every k-window of the space-stripped text directly."""
    stripped = text.replace(" ", "")
    counts: dict[str, int] = {}
    for i in range(len(stripped)):
        window = stripped[i : i + k]
        if len(window) == k:
            counts[window] = counts.get(window, 0) + 1
    return counts


def test_char_kgrams_touch():
    ms = char_kgrams("touch", 4)
    assert ms.gram_set() == {"touc", "ouch"}
    assert ms.total == len("touch") - 4 + 1 == 2


def test_char_kgrams_ignores_spaces():
    ms = char_kgrams("english word", 4)
    assert ms.gram_set() == {
        "engl", "ngli", "glis", "lish", "ishw", "shwo", "hwor", "word",
    }


def test_char_kgrams_short_text_is_empty():
    assert char_kgrams("abc", 4).total == 0
    assert char_kgrams("", 1).total == 0


def test_char_kgrams_rejects_bad_k():
    with pytest.raises(ValueError):
        char_kgrams("abc", 0)


@given(texts, st.one_of(small_k, st.integers(min_value=30, max_value=60)))
@example("abc", 4)
@example("ab c", 4)
@example("", 60)
def test_char_kgrams_matches_naive_enumeration(text, k):
    ms = char_kgrams(text, k)
    expected = naive_grams(text, k)
    assert dict(ms.counts) == expected
    assert ms.total == sum(expected.values())
    assert ms.distinct == len(expected)


def slice_grams(text: str, k: int) -> list[str]:
    """Oracle: the k-windows of the space-stripped text, sliced in order."""
    stripped = text.replace(" ", "")
    return [stripped[i : i + k] for i in range(len(stripped) - k + 1)]


# Sentence slices and the fingerprint tie-break read grams by position, so
# the order matters, not only the counts.
@given(
    st.one_of(
        st.text(max_size=40),
        st.text(alphabet="ab é\U0001d518\U0001f600", max_size=12),
        st.text(alphabet=" ", max_size=10),
    ),
    st.integers(min_value=1, max_value=8),
)
@example("abc", 4)
@example("    ", 1)
@example("a\U0001f600 \u00e9\U0001d518b", 2)
def test_kgram_list_is_the_slices_in_order(text, k):
    assert _kgram_list(text, k) == slice_grams(text, k)


def test_kgram_list_memory_is_linear_when_k_nears_the_text_length():
    # Slicing each of the k suffixes whole would copy about k * L characters.
    tracemalloc.start()
    try:
        grams = _kgram_list("ab" * 10_000, 20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grams == ["ab" * 10_000]
    assert peak < 5_000_000
    assert _kgram_list("ab" * 10_000, 20_001) == []


def test_kgram_list_rejects_k_0():
    with pytest.raises(ValueError):
        _kgram_list("abc", 0)


def test_word_trigrams_example():
    assert word_trigrams("web based cross language plagiarism detection") == {
        "web based cross",
        "based cross language",
        "cross language plagiarism",
        "language plagiarism detection",
    }


def test_word_trigrams_short_text():
    assert word_trigrams("one two") == frozenset()
    assert word_trigrams("") == frozenset()


def test_word_trigrams_deduplicate_repeats():
    assert word_trigrams("a b a b a") == {"a b a", "b a b"}


def test_full_resemblance_is_asymmetric_containment():
    a = char_kgrams("touch", 4)
    b = char_kgrams("touched", 4)
    assert full_resemblance(a, b).value == 1.0
    assert full_resemblance(b, a).value == 0.5


def test_full_resemblance_self_is_one():
    a = char_kgrams("touch", 4)
    score = full_resemblance(a, a)
    assert score.value == 1.0
    assert score.detail["common"] == score.detail["distinct_a"]


def test_full_resemblance_empty_a_is_degenerate():
    empty = char_kgrams("", 4)
    other = char_kgrams("touch", 4)
    score = full_resemblance(empty, other)
    assert score.value == 0.0
    assert score.degenerate


def test_full_resemblance_rejects_mismatched_grams():
    with pytest.raises(ValueError):
        full_resemblance(char_kgrams("touch", 4), char_kgrams("touch", 3))


@given(st.frozensets(st.text(max_size=3), max_size=10),
       st.frozensets(st.text(max_size=3), max_size=10))
def test_jaccard_symmetric_and_bounded(a, b):
    ab = jaccard(a, b)
    ba = jaccard(b, a)
    assert ab.value == ba.value
    assert 0.0 <= ab.value <= 1.0
    assert ab.detail["union"] == len(a | b)
    if a or b:
        assert jaccard(a, a).value == (1.0 if a else 0.0)


@given(st.frozensets(st.text(max_size=3), max_size=10),
       st.frozensets(st.text(max_size=3), max_size=10))
def test_jaccard_of_sorted_tuple_equals_set(a, b):
    # An index entry's list is scored as stored: a sorted tuple of distinct items.
    assert jaccard(tuple(sorted(a)), b) == jaccard(a, b)


@given(st.frozensets(st.text(max_size=3), max_size=10),
       st.frozensets(st.text(max_size=3), max_size=10))
def test_overlap_bound_is_the_size_ratio_and_bounds_jaccard(a, b):
    bound = overlap_bound(tuple(sorted(a)), b)
    assert bound[1:] == overlap(tuple(sorted(a)), b)[1:]
    small, large = sorted((len(a), len(b)))
    assert jaccard_value(*bound) == (small / large if large else 0.0)
    assert jaccard_value(*bound) >= jaccard(a, b).value


def test_jaccard_worked_example():
    score = jaccard(frozenset({"x", "y", "z"}), frozenset({"y", "z", "w"}))
    assert score.value == 0.5
    assert score.detail["intersection"] == 2
    assert score.detail["union"] == 4


def test_jaccard_empty_inputs_degenerate():
    score = jaccard(frozenset(), frozenset())
    assert score.value == 0.0
    assert score.degenerate


def test_score_validation():
    with pytest.raises(ValueError):
        ResemblanceScore(1.5)


def test_gram_weights_exact_fractions():
    weights = gram_weights(char_kgrams("aaab", 2))
    assert type(weights) is dict
    assert weights["aa"] == Fraction(2, 3)
    assert weights["ab"] == Fraction(1, 3)
    assert sum(weights.values()) == Fraction(1)


@given(texts.filter(lambda t: len(t.replace(" ", "")) >= 4))
def test_gram_weights_sum_to_exactly_one(text):
    ms = char_kgrams(text, 4)
    weights = gram_weights(ms)
    assert sum(weights.values()) == 1
    for gram, count in ms.counts.items():
        assert weights[gram] == Fraction(count, ms.total)


def test_gram_weights_reject_empty():
    with pytest.raises(ValueError):
        gram_weights(char_kgrams("", 4))


def test_least_frequent_fingerprint_picks_rarest_grams():
    # Sentence grams all tie except occe/ccer/cerg, which appear nowhere
    # else in the document, so they are the three least frequent and the
    # key is their concatenation.
    doc = document("s", "Soccer game is fantastic. Soccx ergam gameis eisfan fanta ntast astic.")
    fps = document_fingerprints(doc)
    by_index = {fp.sentence_index: fp for fp in fps}
    assert by_index[0].key == "occeccercerg"


def test_least_frequent_fingerprint_tie_breaks_by_position():
    # Single-sentence document: every gram is equally frequent, so the
    # first three windows win: socc, occe and ccer.
    doc = document("d", "soccer game is fantastic.")
    assert document_fingerprints(doc) == ((0, "soccocceccer"),)


def test_short_sentence_has_no_fingerprint():
    assert document_fingerprints(document("d", "tiny.")) == ()


def test_document_fingerprints_key_length():
    doc = document("d", "The quick brown fox jumps. Pack my box with jugs.")
    fps = document_fingerprints(doc)
    assert len(fps) == 2
    for fp in fps:
        assert type(fp) is SentenceFingerprint
        assert len(fp.key) == STATEMENT_GRAM_COUNT * STATEMENT_GRAM_LEN == 12


def once_seen(doc):
    """How many 4-grams of each sentence occur once in the whole document."""
    grams = document_grams(doc, STATEMENT_GRAM_LEN)
    return [sum(grams.counts[gram] == 1 for gram in sentence) for sentence in grams.sentences]


@pytest.mark.parametrize(
    "text, once, keys",
    [
        # Every sentence has three or more once-seen grams: the first three are the key.
        (
            "The quick brown fox jumps. Pack my box with jugs.",
            [18, 14],
            ["theqhequequi", "packackmckmy"],
        ),
        # The second sentence has two once-seen grams, icke and cked; the third
        # gram is the first of its count-2 grams, goal, by position.
        ("Goal kicks. Goal kicked.", [1, 2], ["icksgoaloalk", "ickeckedgoal"]),
        # A repeated sentence has none: the first three of its count-2 grams.
        ("Soccer game. Soccer game.", [0, 0], ["soccocceccer", "soccocceccer"]),
    ],
    ids=["three-once-seen", "two-once-seen", "none-once-seen"],
)
def test_document_fingerprints_on_both_paths_match_exact_weights(text, once, keys):
    doc = document("d", text)
    assert once_seen(doc) == once
    assert document_fingerprints(doc) == tuple(enumerate(keys)) == weighted_fingerprints(doc)


# Sentences over a few letters, so grams repeat unevenly; the short words make
# sentences with few once-seen grams, the longer ones sentences with many.
gram_words = st.sampled_from(["ab", "ba", "abc", "cab", "bb", "a", "bacab", "cabbage", "abcabba"])
gram_texts = st.lists(
    st.lists(gram_words, min_size=1, max_size=8).map(" ".join), max_size=4
).map(". ".join)


@pytest.mark.parametrize("short_cut", [True, False])
def test_gram_texts_draw_sentences_on_both_fingerprint_paths(short_cut):
    # A keyed sentence with three once-seen grams takes the short cut; one
    # with fewer falls back to the count sort.
    def has_path(text):
        doc = document("d", text)
        counts = once_seen(doc)
        return any((counts[fp.sentence_index] >= 3) == short_cut for fp in document_fingerprints(doc))

    find(gram_texts, has_path)


@given(gram_texts)
def test_document_fingerprints_match_exact_weight_ranking(text):
    # Oracle: rank every sentence's grams by exact Fraction weights over the
    # whole document; the integer-count ranking must pick the same keys.
    doc = document("d", text)
    assert document_fingerprints(doc) == weighted_fingerprints(doc)


@given(gram_texts)
def test_every_sentence_with_three_grams_has_one_key_of_its_own_grams(text):
    doc = document("d", text)
    fps = document_fingerprints(doc)
    own = [char_kgrams(" ".join(s.tokens), STATEMENT_GRAM_LEN).counts for s in doc.sentences]
    expected = [i for i, grams in enumerate(own) if len(grams) >= STATEMENT_GRAM_COUNT]
    assert [fp.sentence_index for fp in fps] == expected
    for fp in fps:
        assert len(fp.key) == 12
        parts = [fp.key[i : i + 4] for i in range(0, 12, 4)]
        assert len(set(parts)) == 3
        assert set(parts) <= set(own[fp.sentence_index])


@example(text="ball. ball.", k=6)
@given(st.one_of(gram_texts, st.text(max_size=60)), small_k)
def test_document_grams_counts_text_and_cuts_sentences(text, k):
    doc = document("d", text)
    grams = document_grams(doc, k)
    text_grams = char_kgrams(doc.normalized_text, k)
    assert type(grams) is GramMultiset and grams.k == k
    assert grams.counts == text_grams.counts
    assert grams.total == text_grams.total and grams.distinct == text_grams.distinct
    assert grams.gram_set() == text_grams.gram_set()
    assert len(grams.sentences) == len(doc.sentences)
    for sentence, sentence_grams in zip(doc.sentences, grams.sentences):
        stripped = "".join(sentence.tokens)
        assert sentence_grams == [stripped[i : i + k] for i in range(len(stripped) - k + 1)]


def statement_score(doc_a, doc_b):
    """The pair's statement score from a statement-only `Detector`."""
    det = Detector(DetectorConfig(features=("statement",)))
    return det.analyze_pair(doc_a, doc_b).scores["statement"]


def test_statement_resemblance_self_and_disjoint():
    a = document("a", "The quick brown fox jumps over the lazy dog.")
    b = document("b", "zulu xray victor whisky quebec papa tango.")
    assert statement_score(a, a).value == 1.0
    assert statement_score(a, b).value == 0.0


def test_statement_resemblance_extra_sentence_ratio():
    # Disjoint alphabets keep each sentence's key away from the other's,
    # so adding one sentence adds exactly one fingerprint to the set.
    base = "The quick brown fox jumps over the lazy dog."
    extra = " Zulu xray victor whisky quebec papa."
    a = document("a", base)
    b = document("b", base + extra)
    n = len(fingerprint_keys(a))
    score = statement_score(a, b)
    assert score.value == pytest.approx(n / (n + 1))
    assert statement_score(b, a).value == pytest.approx(n / (n + 1))


def test_statement_resemblance_empty_docs_degenerate():
    a = document("a", "")
    b = document("b", "!!!")
    score = statement_score(a, b)
    assert score.value == 0.0
    assert score.degenerate


def test_fingerprint_keys_are_sorted_set():
    doc = document("d", "The quick brown fox jumps. Pack my box with jugs.")
    keys = fingerprint_keys(doc)
    assert keys == {fp.key for fp in document_fingerprints(doc)}


@pytest.mark.parametrize("name", ALL_FEATURES)
def test_every_feature_builds_a_score(name):
    """A report files the feature's score under its name, beside statement's.

    The pair scores a different value on each feature, so a score filed
    under another feature's name would not equal the combined value.
    """
    det = Detector(DetectorConfig(features=(name,)))
    ref = det.document("r", "The keeper saved the kick. In conclusion, the team won the game.")
    susp = det.document(
        "s", "The keeper missed the kick. In conclusion, the other team lost the game badly."
    )
    report = det.analyze_pair(ref, susp)
    assert set(report.scores) == {"statement", name}
    assert type(report.scores[name]) is ResemblanceScore
    assert report.combined == report.scores[name].value

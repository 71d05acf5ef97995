"""Gram extraction, resemblance measures, weights, and sentence keys."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from simscan.fingerprint import (
    ALL_FEATURES,
    STATEMENT_GRAM_COUNT,
    ResemblanceScore,
    SentenceFingerprint,
    char_kgrams,
    document_fingerprints,
    fingerprint_keys,
    full_resemblance,
    gram_weights,
    jaccard,
    jaccard_value,
    least_frequent_fingerprint,
    overlap,
    overlap_bound,
    statement_resemblance,
    word_trigrams,
)
from simscan.textprep import Preprocessor, split_sentences

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


@given(texts, small_k)
def test_char_kgrams_matches_naive_enumeration(text, k):
    ms = char_kgrams(text, k)
    expected = naive_grams(text, k)
    assert dict(ms.counts) == expected
    assert ms.total == sum(expected.values())
    assert ms.distinct == len(expected)


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
        ResemblanceScore(1.5, "statement")
    with pytest.raises(ValueError):
        ResemblanceScore(0.5, "nope")


def test_gram_weights_exact_fractions():
    weights = gram_weights(char_kgrams("aaab", 2))
    assert weights["aa"] == Fraction(2, 3)
    assert weights["ab"] == Fraction(1, 3)
    assert weights.total_weight() == Fraction(1)


@given(texts.filter(lambda t: len(t.replace(" ", "")) >= 4))
def test_gram_weights_sum_to_exactly_one(text):
    ms = char_kgrams(text, 4)
    weights = gram_weights(ms)
    assert weights.total_weight() == 1
    for gram, count in ms.counts.items():
        assert weights[gram] == Fraction(count, ms.total)


def test_gram_weights_reject_empty():
    with pytest.raises(ValueError):
        gram_weights(char_kgrams("", 4))


def test_least_frequent_fingerprint_picks_rarest_grams():
    # Sentence grams all tie except occe/ccer/cerg, which appear nowhere
    # else in the document, so they are the three least frequent and the
    # key is their concatenation.
    pre = Preprocessor(frozenset())
    doc = pre.document(
        "s",
        "Soccer game is fantastic. Soccx ergam gameis eisfan fanta ntast astic.",
    )
    fps = document_fingerprints(doc)
    by_index = {fp.sentence_index: fp for fp in fps}
    assert by_index[0].grams == ("occe", "ccer", "cerg")
    assert by_index[0].key == "occeccercerg"


def test_least_frequent_fingerprint_tie_breaks_by_position():
    # Single-sentence document: every gram is equally frequent, so the
    # first three windows win.
    [sentence] = split_sentences("soccer game is fantastic.", frozenset())
    weights = gram_weights(char_kgrams("soccer game is fantastic", 4))
    fp = least_frequent_fingerprint(sentence, weights)
    assert fp.grams == ("socc", "occe", "ccer")


def test_short_sentence_has_no_fingerprint():
    [sentence] = split_sentences("tiny.", frozenset())
    weights = gram_weights(char_kgrams("tiny", 4))
    assert least_frequent_fingerprint(sentence, weights) is None


def test_missing_gram_weight_raises():
    [sentence] = split_sentences("soccer game is fantastic.", frozenset())
    weights = gram_weights(char_kgrams("unrelated text entirely", 4))
    with pytest.raises(KeyError):
        least_frequent_fingerprint(sentence, weights)


def test_sentence_fingerprint_validation():
    with pytest.raises(ValueError):
        SentenceFingerprint(0, ("abcd", "efgh"))
    with pytest.raises(ValueError):
        SentenceFingerprint(0, ("abcd", "efgh", "ij"))
    assert SentenceFingerprint(0, ("abcd", "efgh", "ijkl")).key == "abcdefghijkl"


def test_document_fingerprints_key_length():
    pre = Preprocessor(frozenset())
    doc = pre.document("d", "The quick brown fox jumps. Pack my box with jugs.")
    fps = document_fingerprints(doc)
    assert len(fps) == 2
    for fp in fps:
        assert len(fp.grams) == STATEMENT_GRAM_COUNT
        assert len(fp.key) == 12


# Sentences of short words over three letters, so grams repeat unevenly.
short_words = st.sampled_from(["ab", "ba", "abc", "cab", "bb", "a"])
gram_texts = st.lists(
    st.lists(short_words, min_size=1, max_size=8).map(" ".join), max_size=4
).map(". ".join)


@given(gram_texts)
def test_document_fingerprints_match_exact_weight_ranking(text):
    # Oracle: rank every sentence's grams by exact Fraction weights over the
    # whole document; the integer-count ranking must pick the same keys.
    doc = Preprocessor(frozenset()).document("d", text)
    multiset = char_kgrams(doc.normalized_text, 4)
    expected = ()
    if multiset.total:
        weights = gram_weights(multiset)
        candidates = (least_frequent_fingerprint(s, weights) for s in doc.sentences)
        expected = tuple(fp for fp in candidates if fp is not None)
    assert document_fingerprints(doc) == expected


def test_statement_resemblance_self_and_disjoint():
    pre = Preprocessor(frozenset())
    a = pre.document("a", "The quick brown fox jumps over the lazy dog.")
    b = pre.document("b", "zulu xray victor whisky quebec papa tango.")
    assert statement_resemblance(a, a).value == 1.0
    assert statement_resemblance(a, b).value == 0.0


def test_statement_resemblance_extra_sentence_ratio():
    # Disjoint alphabets keep each sentence's key away from the other's,
    # so adding one sentence adds exactly one fingerprint to the set.
    pre = Preprocessor(frozenset())
    base = "The quick brown fox jumps over the lazy dog."
    extra = " Zulu xray victor whisky quebec papa."
    a = pre.document("a", base)
    b = pre.document("b", base + extra)
    n = len(fingerprint_keys(a))
    score = statement_resemblance(a, b)
    assert score.value == pytest.approx(n / (n + 1))
    assert statement_resemblance(b, a).value == pytest.approx(n / (n + 1))


def test_statement_resemblance_empty_docs_degenerate():
    pre = Preprocessor(frozenset())
    a = pre.document("a", "")
    b = pre.document("b", "!!!")
    score = statement_resemblance(a, b)
    assert score.value == 0.0
    assert score.degenerate


def test_fingerprint_keys_are_sorted_set():
    pre = Preprocessor(frozenset())
    doc = pre.document("d", "The quick brown fox jumps. Pack my box with jugs.")
    keys = fingerprint_keys(doc)
    assert keys == {fp.key for fp in document_fingerprints(doc)}


@pytest.mark.parametrize("name", ALL_FEATURES)
def test_every_feature_builds_a_score(name):
    assert ResemblanceScore(0.5, name).method == name


def test_least_frequent_fingerprint_rejects_gram_missing_from_counts():
    # A plain dict, unlike a Counter, does not read a missing gram as 0.
    counts = char_kgrams("zulu xray victor", 4).counts
    assert type(counts) is dict
    sentence = split_sentences("the quick brown fox", frozenset())[0]
    with pytest.raises(KeyError):
        least_frequent_fingerprint(sentence, counts)

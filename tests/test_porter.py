"""Stemmer behavior: known stems, guards, shape properties, and agreement
with the step-by-step oracle in `porter_oracle`."""

import hashlib
import time

import porter_oracle
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from test_golden import CORPUS

from simscan.porter import _STEP1A, _STEP2, _STEP3, _STEP4, _pattern, stem
from simscan.textprep import document

# Each step's table keyed by last letter, beside the oracle's suffix ->
# replacement table and the condition the oracle tests on the stem.
STEPS = (
    (_STEP1A, porter_oracle._STEP1A, porter_oracle._always),
    (_STEP2, porter_oracle._STEP2, porter_oracle._m_gt_0),
    (_STEP3, porter_oracle._STEP3, porter_oracle._m_gt_0),
    (_STEP4, porter_oracle._STEP4, porter_oracle._step4_condition),
)
SUFFIXES = sorted({suffix for _, rows, _ in STEPS for suffix in rows})

# Expected full-pipeline outputs, hand-derived by tracing each word
# through every step in order (per-step examples alone are misleading:
# later steps keep rewriting, e.g. relational -> relate -> relat).
KNOWN_STEMS = {
    "caresses": "caress",
    "ponies": "poni",
    "ties": "ti",
    "caress": "caress",
    "cats": "cat",
    "feed": "feed",
    "agreed": "agre",
    "plastered": "plaster",
    "bled": "bled",
    "motoring": "motor",
    "sing": "sing",
    "conflated": "conflat",
    "troubled": "troubl",
    "sized": "size",
    "hopping": "hop",
    "tanned": "tan",
    "falling": "fall",
    "hissing": "hiss",
    "fizzed": "fizz",
    "failing": "fail",
    "filing": "file",
    "happy": "happi",
    "sky": "sky",
    "relational": "relat",
    "conditional": "condit",
    "rational": "ration",
    "valenci": "valenc",
    "hesitanci": "hesit",
    "digitizer": "digit",
    "conformabli": "conform",
    "radicalli": "radic",
    "differentli": "differ",
    "vileli": "vile",
    "analogousli": "analog",
    "vietnamization": "vietnam",
    "predication": "predic",
    "operator": "oper",
    "feudalism": "feudal",
    "decisiveness": "decis",
    "hopefulness": "hope",
    "callousness": "callous",
    "formaliti": "formal",
    "sensitiviti": "sensit",
    "sensibiliti": "sensibl",
    "triplicate": "triplic",
    "formative": "form",
    "formalize": "formal",
    "electriciti": "electr",
    "electrical": "electr",
    "hopeful": "hope",
    "goodness": "good",
    "revival": "reviv",
    "allowance": "allow",
    "inference": "infer",
    "airliner": "airlin",
    "gyroscopic": "gyroscop",
    "adjustable": "adjust",
    "defensible": "defens",
    "irritant": "irrit",
    "replacement": "replac",
    "adjustment": "adjust",
    "dependent": "depend",
    "adoption": "adopt",
    "homologou": "homolog",
    "communism": "commun",
    "activate": "activ",
    "angulariti": "angular",
    "homologous": "homolog",
    "effective": "effect",
    "bowdlerize": "bowdler",
    "probate": "probat",
    "rate": "rate",
    "cease": "ceas",
    "controll": "control",
    "roll": "roll",
    "controlling": "control",
    "generalizations": "gener",
    "oscillators": "oscil",
    "kicked": "kick",
    "ball": "ball",
    "plays": "plai",
    "denied": "deni",
    "mules": "mule",
}


@pytest.mark.parametrize("word,expected", sorted(KNOWN_STEMS.items()))
def test_known_stems(word, expected):
    assert stem(word) == expected


def test_short_tokens_pass_through():
    for token in ("", "a", "is", "ox", "by"):
        assert stem(token) == token


def test_nonalpha_and_nonascii_tokens_pass_through():
    for token in ("42", "x86", "kick3", "naïve", "добро", "a-b"):
        assert stem(token) == token


def test_pipeline_corpus_idempotent():
    # Words the fixtures and generated corpora rely on; classic Porter is
    # not idempotent in general, so only this closed set is asserted.
    words = (
        "ball", "kick", "player", "soccer", "game", "fantastic", "quick",
        "brown", "fox", "jump", "jumps", "lazy", "dog", "conclude",
        "sentence", "word", "document", "touch", "english", "survey",
    )
    for word in words:
        once = stem(word)
        assert stem(once) == once, word


@given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), max_size=20))
def test_stem_never_grows_and_stays_lowercase(word):
    out = stem(word)
    assert len(out) <= len(word)
    assert out == out.lower()


@given(st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=3, max_size=20))
def test_stem_is_deterministic(word):
    assert stem(word) == stem(word)


def _recursive_is_consonant(word, i):
    """The stemmer's former letter rule, kept as the oracle."""
    ch = word[i]
    if ch in "aeiou":
        return False
    if ch == "y":
        return i == 0 or not _recursive_is_consonant(word, i - 1)
    return True


@given(st.text(alphabet="yyyyaebtsY", max_size=24))
def test_letter_classes_match_recursive_rule(word):
    expected = "".join(
        "c" if _recursive_is_consonant(word, i) else "v" for i in range(len(word))
    )
    assert _pattern(word) == expected


# ational, ization and alize are replaced by letters in steps 2 and 3, and
# step 4 then removes what is left; ement comes off in step 4 alone.
@pytest.mark.parametrize("suffix", ["ed", "eed", "ational", "ization", "alize", "ement"])
def test_long_y_run_stems_quickly(suffix):
    word = "y" * 5000 + suffix
    start = time.perf_counter()
    out = stem(word)
    assert time.perf_counter() - start < 0.5
    assert out.startswith("y" * 4999)


def _longest_suffix_oracle(word, table, condition):
    """Porter's rule stated directly: the longest matching suffix is obeyed."""
    matches = [suffix for suffix in table if word.endswith(suffix)]
    if not matches:
        return word
    suffix = max(matches, key=len)
    stem_ = word[: len(word) - len(suffix)]
    return stem_ + table[suffix] if condition(stem_, suffix) else word


def _table_step(word, table, condition):
    """A step as `stem` takes it: the first row under the word's last letter
    that the word ends with decides."""
    for suffix, replacement, _ in table.get(word[-1:], ()):
        if word.endswith(suffix):
            stem_ = word[: len(word) - len(suffix)]
            return stem_ + replacement if condition(stem_, suffix) else word
    return word


@pytest.mark.parametrize("step", range(len(STEPS)))
@given(
    head=st.text(alphabet="abceilnorstuvyz", max_size=8),
    tail=st.lists(st.sampled_from(SUFFIXES), max_size=2),
)
def test_replace_suffix_obeys_longest_match(step, head, tail):
    table, rows, condition = STEPS[step]
    word = head + "".join(tail)
    assert _table_step(word, table, condition) == _longest_suffix_oracle(word, rows, condition)


@pytest.mark.parametrize("step", range(len(STEPS)))
def test_tables_hold_the_oracle_rows_longest_first(step):
    table, rows, _ = STEPS[step]
    assert {s: r for group in table.values() for s, r, _ in group} == dict(rows)
    for letter, group in table.items():
        assert [len(s) for s, _, _ in group] == sorted((len(s) for s, _, _ in group), reverse=True)
        for suffix, replacement, replacement_pattern in group:
            assert suffix[-1] == letter
            # A replacement's pattern is fixed only because it holds no y.
            assert "y" not in replacement
            assert replacement_pattern == _pattern(replacement)


# Letters rich in the tables' letters, up to two table suffixes, and an ending.
ORACLE_WORDS = st.builds(
    lambda head, middle, ending: head + "".join(middle) + ending,
    st.text(alphabet="aeiouybcdlmnrstz", max_size=8),
    st.lists(st.sampled_from(SUFFIXES), max_size=2),
    st.sampled_from(("", "ed", "ing", "eed", "y", "e", "ll")),
)


@given(ORACLE_WORDS)
@example("sky")
@example("syzygy")
@example("agreed")
@example("feed")
@example("hopping")
@example("filing")
@example("relational")
@example("generalization")
def test_stem_equals_the_step_by_step_oracle(word):
    assert stem(word) == porter_oracle.stem(word)


def test_golden_corpus_words_stem_as_the_oracle_does():
    texts = (document("d", text).normalized_text for text in CORPUS.values())
    words = {word for text in texts for word in text.split()}
    assert len(words) > 80
    for word in sorted(words):
        assert stem(word) == porter_oracle.stem(word), word


# Stems of every table suffix after a spread of roots and endings.  The
# digest was computed with the stemmer whose tables were scanned in a
# hand-kept longest-first order, so any edit to a row shows here.
VOCABULARY_ROOTS = (
    "", "b", "tr", "y", "sy", "toy", "as", "hop", "fil", "cont", "oper", "sens",
    "gener", "relat", "adjust", "feud", "valen", "condit", "bowdler", "electr",
    "probat", "defens", "irrit", "commun", "hope", "roll", "agre", "ceas",
)
VOCABULARY_ENDINGS = ("", "s", "ed", "ing", "ly")
VOCABULARY_SHA256 = "6c5eab45d6b182d3a581bf21b0d25acc412db740dfabbf9185346d40d54534c0"


def test_stems_of_table_vocabulary_are_pinned():
    vocabulary = sorted(
        {r + s + e for r in VOCABULARY_ROOTS for s in SUFFIXES for e in VOCABULARY_ENDINGS}
    )
    assert len(vocabulary) == 6939
    listing = "\n".join(f"{word} {stem(word)}" for word in vocabulary)
    assert hashlib.sha256(listing.encode()).hexdigest() == VOCABULARY_SHA256

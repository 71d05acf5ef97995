"""Porter suffix-stripping stemmer (the classic 1980 algorithm).

Self-contained ASCII implementation.  Tokens shorter than three letters and
tokens containing anything but ASCII letters are returned unchanged; the
preprocessing pipeline only feeds in lowercase word tokens.
"""

from __future__ import annotations

import re
import string

# Lowercase vowels are "v"; y is decided by _pattern; every other letter a
# stem can hold is a consonant.
_LETTER_CLASS = str.maketrans(
    {ch: "v" if ch in "aeiou" else "c" for ch in string.ascii_letters if ch != "y"}
)


def _y_run(match: re.Match) -> str:
    # y counts as a vowel when it follows a consonant (TOY vs SYZYGY), so a
    # run of y's alternates, starting as a consonant at the word start or
    # after a vowel.
    start = match.start()
    first = "cv" if start == 0 or match.string[start - 1] == "v" else "vc"
    return (first * len(match[0]))[: len(match[0])]


def _pattern(word: str) -> str:
    """One "c" (consonant) or "v" (vowel) per letter of `word`."""
    pattern = word.translate(_LETTER_CLASS)
    return re.sub("y+", _y_run, pattern) if "y" in pattern else pattern


def _measure(stem: str) -> int:
    """Number of vowel-consonant alternations: [C](VC)^m[V] gives m."""
    return _pattern(stem).count("vc")


def _contains_vowel(stem: str) -> bool:
    return "v" in _pattern(stem)


def _ends_double_consonant(word: str) -> bool:
    return len(word) >= 2 and word[-1] == word[-2] and _pattern(word)[-1] == "c"


def _ends_cvc(word: str) -> bool:
    """consonant-vowel-consonant ending where the final one is not w, x or y."""
    return word[-1:] not in "wxy" and _pattern(word).endswith("cvc")


def _apply_first(word: str, rules) -> str:
    """Apply the longest matching suffix rule of one step.

    Once the longest suffix matches, that rule alone decides the step: if its
    measure condition fails, no shorter rule is tried.
    """
    for suffix, replacement, condition in rules:
        if word.endswith(suffix):
            stem = word[: len(word) - len(suffix)]
            if condition(stem):
                return stem + replacement
            return word
    return word


def _m_gt_0(stem: str) -> bool:
    return _measure(stem) > 0


def _m_gt_1(stem: str) -> bool:
    return _measure(stem) > 1


def _m_gt_1_and_st(stem: str) -> bool:
    return _measure(stem) > 1 and stem[-1:] in ("s", "t")


# Tables are ordered longest suffix first so _apply_first picks the longest
# match (e.g. EMENT before MENT before ENT).
_STEP2_RULES = (
    ("ational", "ate", _m_gt_0),
    ("ization", "ize", _m_gt_0),
    ("iveness", "ive", _m_gt_0),
    ("fulness", "ful", _m_gt_0),
    ("ousness", "ous", _m_gt_0),
    ("tional", "tion", _m_gt_0),
    ("biliti", "ble", _m_gt_0),
    ("ousli", "ous", _m_gt_0),
    ("entli", "ent", _m_gt_0),
    ("ation", "ate", _m_gt_0),
    ("alism", "al", _m_gt_0),
    ("aliti", "al", _m_gt_0),
    ("iviti", "ive", _m_gt_0),
    ("enci", "ence", _m_gt_0),
    ("anci", "ance", _m_gt_0),
    ("izer", "ize", _m_gt_0),
    ("abli", "able", _m_gt_0),
    ("alli", "al", _m_gt_0),
    ("ator", "ate", _m_gt_0),
    ("eli", "e", _m_gt_0),
)

_STEP3_RULES = (
    ("icate", "ic", _m_gt_0),
    ("ative", "", _m_gt_0),
    ("alize", "al", _m_gt_0),
    ("iciti", "ic", _m_gt_0),
    ("ical", "ic", _m_gt_0),
    ("ness", "", _m_gt_0),
    ("ful", "", _m_gt_0),
)

_STEP4_RULES = (
    ("ement", "", _m_gt_1),
    ("ance", "", _m_gt_1),
    ("ence", "", _m_gt_1),
    ("able", "", _m_gt_1),
    ("ible", "", _m_gt_1),
    ("ment", "", _m_gt_1),
    ("ant", "", _m_gt_1),
    ("ent", "", _m_gt_1),
    ("ion", "", _m_gt_1_and_st),
    ("ism", "", _m_gt_1),
    ("ate", "", _m_gt_1),
    ("iti", "", _m_gt_1),
    ("ous", "", _m_gt_1),
    ("ive", "", _m_gt_1),
    ("ize", "", _m_gt_1),
    ("al", "", _m_gt_1),
    ("er", "", _m_gt_1),
    ("ic", "", _m_gt_1),
    ("ou", "", _m_gt_1),
)


def _step1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step1b(word: str) -> str:
    if word.endswith("eed"):
        stem = word[:-3]
        return stem + "ee" if _measure(stem) > 0 else word
    for suffix in ("ed", "ing"):
        if word.endswith(suffix):
            stem = word[: -len(suffix)]
            if _contains_vowel(stem):
                return _step1b_cleanup(stem)
            return word
    return word


def _step1b_cleanup(stem: str) -> str:
    if stem.endswith(("at", "bl", "iz")):
        return stem + "e"
    if _ends_double_consonant(stem) and stem[-1] not in "lsz":
        return stem[:-1]
    if _measure(stem) == 1 and _ends_cvc(stem):
        return stem + "e"
    return stem


def _step1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


def _step5a(word: str) -> str:
    if word.endswith("e"):
        stem = word[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            return stem
    return word


def _step5b(word: str) -> str:
    if word.endswith("l") and _ends_double_consonant(word) and _measure(word) > 1:
        return word[:-1]
    return word


def stem(token: str) -> str:
    """Return the Porter stem of a lowercase word token.

    Non-alphabetic and very short tokens pass through unchanged, matching the
    behavior of the reference implementation for one- and two-letter words.
    """
    if len(token) < 3 or not token.isascii() or not token.isalpha():
        return token
    word = _step1a(token)
    word = _step1b(word)
    word = _step1c(word)
    word = _apply_first(word, _STEP2_RULES)
    word = _apply_first(word, _STEP3_RULES)
    word = _apply_first(word, _STEP4_RULES)
    word = _step5a(word)
    word = _step5b(word)
    return word

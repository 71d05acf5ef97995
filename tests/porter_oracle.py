"""The step-by-step Porter stemmer, kept as the oracle for `simscan.porter`.

Each step is its own function, and `_replace_suffix` looks the word's
suffixes up in a step's table at every length the table holds, longest
first; the first hit alone decides the step, whether or not the step's
condition on the remaining stem holds ("the longest matching S1 is
obeyed").  Every condition recomputes the letter pattern of the stem it
tests.  Slow, but each rule reads as Porter (1980) states it.
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


class _Suffixes(dict):
    """A step's table: suffix -> replacement, plus the suffix lengths it holds."""

    def __init__(self, rows: dict[str, str]):
        super().__init__(rows)
        self.lengths = sorted({len(suffix) for suffix in rows}, reverse=True)


def _replace_suffix(word: str, table: _Suffixes, condition) -> str:
    """Apply the rule of the longest suffix of `word` that `table` holds.

    The first hit decides the step: when `condition(stem, suffix)` fails,
    `word` is returned unchanged and no shorter suffix is tried.
    """
    for n in table.lengths:
        suffix = word[-n:]
        if suffix in table:
            stem = word[: len(word) - len(suffix)]
            return stem + table[suffix] if condition(stem, suffix) else word
    return word


def _always(stem: str, suffix: str) -> bool:
    return True


def _m_gt_0(stem: str, suffix: str) -> bool:
    return _measure(stem) > 0


def _step4_condition(stem: str, suffix: str) -> bool:
    # (m>1), and for ION alone also (*S or *T).
    return _measure(stem) > 1 and (suffix != "ion" or stem[-1:] in ("s", "t"))


_STEP1A = _Suffixes({"sses": "ss", "ies": "i", "ss": "ss", "s": ""})

_STEP2 = _Suffixes({
    "ational": "ate", "tional": "tion", "enci": "ence", "anci": "ance",
    "izer": "ize", "abli": "able", "alli": "al", "entli": "ent", "eli": "e",
    "ousli": "ous", "ization": "ize", "ation": "ate", "ator": "ate",
    "alism": "al", "iveness": "ive", "fulness": "ful", "ousness": "ous",
    "aliti": "al", "iviti": "ive", "biliti": "ble",
})

_STEP3 = _Suffixes({
    "icate": "ic", "ative": "", "alize": "al", "iciti": "ic", "ical": "ic",
    "ful": "", "ness": "",
})

_STEP4 = _Suffixes(dict.fromkeys((
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment",
    "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
), ""))


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
    word = _replace_suffix(token, _STEP1A, _always)
    word = _step1b(word)
    word = _step1c(word)
    word = _replace_suffix(word, _STEP2, _m_gt_0)
    word = _replace_suffix(word, _STEP3, _m_gt_0)
    word = _replace_suffix(word, _STEP4, _step4_condition)
    word = _step5a(word)
    word = _step5b(word)
    return word

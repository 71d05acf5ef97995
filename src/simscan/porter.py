"""Porter suffix-stripping stemmer (the classic 1980 algorithm).

Self-contained ASCII implementation.  Tokens shorter than three letters and
tokens containing anything but ASCII letters are returned unchanged; the
preprocessing pipeline only feeds in lowercase word tokens.

Each word's consonant/vowel pattern is computed once, by one
`bytes.translate` (plus a pass over its y runs, if it has any).  A letter's
class depends only on the letters before it, so when a suffix comes off,
the pattern is cut with the word; no replacement holds a y, so a
replacement's pattern is fixed and stored with it.

Steps 1a, 2, 3 and 4 are tables keyed by a suffix's last letter, as in
Porter's C reference implementation, which switches on that letter.  Each
key holds the step's suffixes that end in it, longest first, so the first
suffix the word ends with is the longest matching one.  It alone decides
the step ("the longest matching S1 is obeyed"), whether or not the step's
condition on the remaining stem holds.

The stems equal those of the step-by-step implementation that
`tests/porter_oracle.py` keeps as the oracle.
"""

from __future__ import annotations

import re

# Lowercase vowels are "v", y is left for _pattern to decide, and every
# other letter (an uppercase vowel too) is a consonant.
_CLASSES = bytes(
    ord("v") if ch in b"aeiou" else ord("y") if ch == ord("y") else ord("c")
    for ch in range(256)
)


def _y_run(match: re.Match) -> str:
    # y counts as a vowel when it follows a consonant (TOY vs SYZYGY), so a
    # run of y's alternates, starting as a consonant at the word start or
    # after a vowel.
    start = match.start()
    first = "cv" if start == 0 or match.string[start - 1] == "v" else "vc"
    return (first * len(match[0]))[: len(match[0])]


def _pattern(word: str) -> str:
    """One "c" (consonant) or "v" (vowel) per letter of the ASCII `word`."""
    pattern = word.encode().translate(_CLASSES).decode()
    return re.sub("y+", _y_run, pattern) if "y" in pattern else pattern


def _by_last_letter(rows: dict[str, str]) -> dict[str, tuple[tuple[str, str, str], ...]]:
    """A step's (suffix, replacement, replacement's pattern) rows, keyed by the
    suffix's last letter, longest suffix first."""
    table: dict[str, list] = {}
    for suffix in sorted(rows, key=len, reverse=True):
        table.setdefault(suffix[-1], []).append((suffix, rows[suffix], _pattern(rows[suffix])))
    return {letter: tuple(group) for letter, group in table.items()}


_STEP1A = _by_last_letter({"sses": "ss", "ies": "i", "ss": "ss", "s": ""})

_STEP2 = _by_last_letter({
    "ational": "ate", "tional": "tion", "enci": "ence", "anci": "ance",
    "izer": "ize", "abli": "able", "alli": "al", "entli": "ent", "eli": "e",
    "ousli": "ous", "ization": "ize", "ation": "ate", "ator": "ate",
    "alism": "al", "iveness": "ive", "fulness": "ful", "ousness": "ous",
    "aliti": "al", "iviti": "ive", "biliti": "ble",
})

_STEP3 = _by_last_letter({
    "icate": "ic", "ative": "", "alize": "al", "iciti": "ic", "ical": "ic",
    "ful": "", "ness": "",
})

_STEP4 = _by_last_letter(dict.fromkeys((
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement", "ment",
    "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
), ""))

# Steps 2 to 4 with the least measure m their stem needs: [C](VC)^m[V].
_MEASURED_STEPS = ((_STEP2, 1), (_STEP3, 1), (_STEP4, 2))


def stem(token: str) -> str:
    """Return the Porter stem of a lowercase word token.

    Non-alphabetic and very short tokens pass through unchanged, matching the
    behavior of the reference implementation for one- and two-letter words.
    """
    if len(token) < 3 or not token.isascii() or not token.isalpha():
        return token
    word, pattern = token, _pattern(token)
    # The measure m of word[:i] is pattern.count("vc", 0, i).  Step 1a.
    for suffix, new, new_pattern in _STEP1A.get(word[-1], ()):
        if word.endswith(suffix):
            i = len(word) - len(suffix)
            word, pattern = word[:i] + new, pattern[:i] + new_pattern
            break
    # Step 1b.
    if word.endswith("eed"):
        if pattern.count("vc", 0, len(word) - 3):
            word, pattern = word[:-1], pattern[:-1]
    elif word.endswith(("ed", "ing")):
        i = len(word) - (2 if word[-1] == "d" else 3)
        if "v" in pattern[:i]:
            word, pattern = word[:i], pattern[:i]
            if word.endswith(("at", "bl", "iz")):
                word, pattern = word + "e", pattern + "v"
            elif (len(word) > 1 and word[-1] == word[-2] and pattern[-1] == "c"
                  and word[-1] not in "lsz"):
                word, pattern = word[:-1], pattern[:-1]
            elif (pattern.count("vc") == 1 and word[-1] not in "wxy"
                  and pattern.endswith("cvc")):
                word, pattern = word + "e", pattern + "v"
    # Step 1c.
    if word[-1] == "y" and "v" in pattern[:-1]:
        word, pattern = word[:-1] + "i", pattern[:-1] + "v"
    # Steps 2, 3 and 4.
    for table, least in _MEASURED_STEPS:
        for suffix, new, new_pattern in table.get(word[-1], ()):
            if word.endswith(suffix):
                i = len(word) - len(suffix)
                # Step 4 removes ION only after S or T.
                if pattern.count("vc", 0, i) >= least and (
                    suffix != "ion" or word[i - 1] in "st"
                ):
                    word, pattern = word[:i] + new, pattern[:i] + new_pattern
                break
    # Step 5a.
    if word[-1] == "e":
        m = pattern.count("vc", 0, len(word) - 1)
        if m > 1 or m == 1 and (word[-2] in "wxy" or not pattern.endswith("cvc", 0, -1)):
            word, pattern = word[:-1], pattern[:-1]
    # Step 5b.
    if word.endswith("ll") and pattern.count("vc") > 1:
        word = word[:-1]
    return word

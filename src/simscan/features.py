"""Detection features built on top of the fingerprint schemes.

Four features compare a reference document against a suspect:

* top_keyword: Jaccard overlap of the most frequent stemmed content terms,
* first_sentence: grams of the reference's opening sentence against the
  suspect's full text,
* query_phrase: grams of the reference sentences that contain a cue phrase
  ("in conclusion," and friends) against the suspect's full text,
* lcs_f: an F-measure over the longest common word subsequence, maximized
  across key-sentence pairs.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, filterfalse
from pathlib import Path
from typing import Iterable, Sequence

from .fingerprint import DEGENERATE, ResemblanceScore
from .kernels import lcs_length  # noqa: F401  perfbench/tracer.py wraps it
from .kernels import lcs_lengths, segment_table
from .textprep import DEFAULT_STOPWORDS, Document, StemMemo, list_entries

DEFAULT_QUERY_PHRASES: tuple[str, ...] = (
    "in conclusion,",
    "in general,",
    "we conclude that",
    "we find that",
    "the survey shows that",
    "the experiment shows that",
)

DEFAULT_K_TOP = 10
DEFAULT_GRAM_LEN = 4


def load_query_phrases(path: str | Path | None = None) -> tuple[str, ...]:
    """Cue phrases from a file, or the built-in six when no path is given.

    Blank lines and `#` comments are skipped; phrases lose a trailing "..."
    and are put in `_cue_form`.  A phrase left empty is skipped too, since the
    empty string would open every sentence, and a repeat is dropped, the first
    kept, so that files listing the same phrases in the same order give one
    list and one header hash.
    """
    if path is None:
        return DEFAULT_QUERY_PHRASES
    with open(path, encoding="utf-8") as fh:
        phrases = [_cue_form(line.removesuffix("...")) for line in list_entries(fh)]
    return tuple(dict.fromkeys(phrase for phrase in phrases if phrase))


def _cue_form(text: str) -> str:
    """Text lowercased, with each whitespace run cut to one space: the form cues match in."""
    return " ".join(text.lower().split())


def top_keywords(
    doc: Document,
    k_top: int = DEFAULT_K_TOP,
    stopwords: frozenset[str] = DEFAULT_STOPWORDS,
    stems: StemMemo | None = None,
) -> frozenset[str]:
    """The k_top most frequent stemmed content terms, ties alphabetical.

    The one place that drops stopwords and stems tokens.  A content term is
    a token not in `stopwords`, stemmed through `stems`; pass one `StemMemo`
    (a `Detector` keeps one) to stem each distinct token once across calls.
    """
    if not _is_int(k_top) or k_top < 1:
        raise ValueError(f"k_top must be an int >= 1, got {k_top!r}")
    if stems is None:
        stems = StemMemo()
    tokens = chain.from_iterable(s.tokens for s in doc.sentences)
    counts = Counter(map(stems.__getitem__, filterfalse(stopwords.__contains__, tokens)))
    # A reverse sort is still stable, so equal counts keep alphabetical order.
    ranked = sorted(sorted(counts), key=counts.__getitem__, reverse=True)
    return frozenset(ranked[:k_top])


def first_sentence(doc: Document) -> tuple[int, ...]:
    """The index of the document's first sentence; none without sentences."""
    return (0,) if doc.sentences else ()


def cue_sentences(
    doc: Document, phrases: Sequence[str] = DEFAULT_QUERY_PHRASES
) -> tuple[int, ...]:
    """Indices of the sentences that, in `_cue_form`, contain one of `phrases` as whole words.

    Each phrase must be non-empty and in `_cue_form`, as `load_query_phrases`
    gives it and `DetectorConfig` requires.
    """
    texts = (_cue_form(sentence.text) for sentence in doc.sentences)
    hits = (any(cue in text and _whole_words(cue, text) for cue in phrases) for text in texts)
    return tuple(i for i, hit in enumerate(hits) if hit)


def _whole_words(cue: str, text: str) -> bool:
    """Whether `cue` occurs in `text` as whole words.

    An end of `cue` that is a word character (`str.isalnum`, the token
    rule's) must not touch another word character in `text`, so "in
    general," is no cue in "domain general," nor "we find that" in "we
    find thatched".
    """
    start = text.find(cue)
    while start != -1:
        end = start + len(cue)
        joined_before = start > 0 and cue[0].isalnum() and text[start - 1].isalnum()
        joined_after = end < len(text) and cue[-1].isalnum() and text[end].isalnum()
        if not (joined_before or joined_after):
            return True
        start = text.find(cue, start + 1)
    return False


def key_sentence_indices(ref: Document, cues: Iterable[int]) -> tuple[int, ...]:
    """First sentence plus the cue-phrase sentences `cues`, deduplicated, in order.

    `cues` are the reference's `cue_sentences` under the detector's phrases.
    """
    return tuple(sorted({*first_sentence(ref), *cues}))


def sentence_grams(sentences: Sequence[Iterable[str]], indices: Iterable[int]) -> frozenset[str]:
    """The union of the listed sentences' grams (`document_grams(...).sentences`)."""
    return frozenset().union(*(sentences[i] for i in indices))


def _is_int(value: object) -> bool:
    """An int that is not a bool: what `k_char`, `k_top` and `top_n` must be."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_beta(beta: float | str) -> None:
    """Reject a beta that is neither "paper" nor a finite number >= 0 (a bool is not)."""
    if beta != "paper" and (isinstance(beta, (str, bool)) or not 0 <= beta < math.inf):
        raise ValueError(f"beta must be 'paper' or a finite number >= 0, got {beta!r}")


def _lcs_f(length: int, m: int, n: int, beta: float | str) -> tuple[float, float, float, float]:
    """R, P, b and F of an LCS of `length` between m reference and n suspect tokens.

    With recall R = LCS/m and precision P = LCS/n, F = (1+b)RP / (R + bP),
    where b is `beta` or, for beta="paper", P/R.  LCS = 0 scores 0, equal
    sequences score 1, and where P/R is undefined "paper" reports b = 1.
    `beta` must have passed `check_beta`.  For fixed m, n and beta, F is
    linear in `length` (b = P/R = m/n for "paper"), up to the clamp to 1.
    """
    b = 1.0 if beta == "paper" else float(beta) + 0.0  # reported as a float; -0.0 + 0.0 is +0.0
    r = length / m if m else 0.0
    p = length / n if n else 0.0
    f = 0.0
    if length:
        if beta == "paper":
            b = p / r
        # F lies between R and P; with a huge b, rounding can carry it past 1.
        f = min((1.0 + b) * r * p / (r + b * p), 1.0)
    return r, p, b, f


def lcs_similarity(
    ref: Document, susp: Document, beta: float | str, cues: Iterable[int]
) -> ResemblanceScore:
    """Best sentence-pair LCS F-measure between key sentences and suspect.

    Key sentences of the reference (first sentence plus the cue-phrase
    sentences `cues`, as `key_sentence_indices` takes them) are compared
    against every suspect sentence; the maximum F of `_lcs_f` wins.  The
    first maximal pair in scan order, key-major, is reported.  Its detail
    holds lcs_length, m, n, r_lcs, p_lcs and beta, then ref_sentence and
    susp_sentence, the pair's indices; a pair with an empty sentence is
    degenerate.

    The kernel's table of the suspect sentences is built once, with masks
    for the key sentences' tokens only, and `lcs_lengths` makes one pass
    per key sentence that gives its LCS with every suspect sentence.  A
    pair is skipped when its F at LCS = min(m, n), the most it can reach,
    is below the best F so far.  Within a key sentence that bound is
    computed once per n and F once per (LCS, n).  Once the best F is 1,
    the clamp's ceiling, no later pair can replace it, so the scan stops.
    """
    check_beta(beta)
    key_indices = key_sentence_indices(ref, cues)
    if not key_indices or not susp.sentences:
        return DEGENERATE
    keys = [ref.sentences[ki].tokens for ki in key_indices]
    table = segment_table((s.tokens for s in susp.sentences), set(chain.from_iterable(keys)))
    ns = [len(s.tokens) for s in susp.sentences]
    best_f, best = -1.0, None
    for ki, xs in zip(key_indices, keys):
        m = len(xs)
        lengths = lcs_lengths(xs, table)
        tops: dict[int, float] = {}
        fs: dict[tuple[int, int], float] = {}
        for si, n in enumerate(ns):
            top = tops.get(n)
            if top is None:
                top = tops[n] = _lcs_f(min(m, n), m, n, beta)[3]
            if top < best_f:
                continue
            length = lengths[si]
            f = fs.get((length, n))
            if f is None:
                f = fs[length, n] = _lcs_f(length, m, n, beta)[3]
            if f > best_f:
                best_f, best = f, (length, m, n, ki, si)
        if best_f == 1.0:
            break
    length, m, n, ki, si = best
    r, p, b, f = _lcs_f(length, m, n, beta)
    detail = dict(
        lcs_length=length, m=m, n=n, r_lcs=r, p_lcs=p, beta=b, ref_sentence=ki, susp_sentence=si
    )
    return ResemblanceScore(f, detail, degenerate=not (m and n))

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
from dataclasses import dataclass
from pathlib import Path
from typing import AbstractSet, Callable, Collection, Iterable, Sequence

from .fingerprint import (
    DEGENERATE,
    FIRST_SENTENCE,
    LCS_F,
    NOT_APPLICABLE,
    QUERY_PHRASE,
    TOP_KEYWORD,
    Counts,
    Outcome,
    ResemblanceScore,
    char_kgrams,
    jaccard,
    outcome_score,
    overlap,
)
from .kernels import lcs_length
from .textprep import Document, list_entries

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


@dataclass(frozen=True)
class KeywordSet:
    """Up to k_top most frequent stemmed content terms of one document."""

    terms: frozenset[str]
    k_top: int

    def __post_init__(self):
        if len(self.terms) > self.k_top:
            raise ValueError(f"{len(self.terms)} terms exceed cap {self.k_top}")


@dataclass(frozen=True)
class LcsResult:
    """LCS length plus the recall/precision/F values derived from it."""

    lcs_length: int
    m: int
    n: int
    r_lcs: float
    p_lcs: float
    beta: float
    f_lcs: float
    degenerate: bool = False


def load_query_phrases(path: str | Path | None = None) -> tuple[str, ...]:
    """Cue phrases from a file, or the built-in six when no path is given.

    Blank lines and `#` comments are skipped; phrases are lowercased and a
    trailing "..." is dropped.  A phrase left empty is skipped too, since
    the empty string would open every sentence.
    """
    if path is None:
        return DEFAULT_QUERY_PHRASES
    with open(path, encoding="utf-8") as fh:
        phrases = [line.removesuffix("...").rstrip() for line in list_entries(fh)]
    return tuple(phrase.lower() for phrase in phrases if phrase)


def top_keywords(doc: Document, k_top: int = DEFAULT_K_TOP) -> KeywordSet:
    """The k_top most frequent stemmed content terms, ties alphabetical."""
    if k_top < 1:
        raise ValueError(f"k_top must be >= 1, got {k_top}")
    counts = Counter(doc.content_tokens)
    ranked = sorted(counts, key=lambda term: (-counts[term], term))
    return KeywordSet(terms=frozenset(ranked[:k_top]), k_top=k_top)


def top_keyword_similarity(
    ref: Document, susp: Document, k_top: int = DEFAULT_K_TOP
) -> ResemblanceScore:
    """Jaccard overlap of the two documents' keyword sets."""
    a = top_keywords(ref, k_top).terms
    b = top_keywords(susp, k_top).terms
    return jaccard(a, b, TOP_KEYWORD)


def first_sentence(doc: Document) -> tuple[int, ...]:
    """The index of the document's first sentence; none without sentences."""
    return (0,) if doc.sentences else ()


def cue_sentences(
    doc: Document, phrases: Sequence[str] = DEFAULT_QUERY_PHRASES
) -> tuple[int, ...]:
    """Indices of the sentences whose lowercased raw text contains a cue phrase."""
    lowered = (sentence.text.lower() for sentence in doc.sentences)
    return tuple(
        i for i, text in enumerate(lowered) if any(phrase in text for phrase in phrases)
    )


def key_sentence_indices(
    ref: Document, phrases: Sequence[str] = DEFAULT_QUERY_PHRASES
) -> tuple[int, ...]:
    """First sentence plus cue-phrase sentences, deduplicated, in order."""
    return tuple(sorted({*first_sentence(ref), *cue_sentences(ref, phrases)}))


def sentence_grams(doc: Document, indices: Iterable[int], k: int) -> frozenset[str]:
    """The union of the distinct k-grams of each listed sentence."""
    return frozenset().union(
        *(char_kgrams(doc.sentences[i].normalized, k).gram_set() for i in indices)
    )


def gram_outcome(
    method: str,
    ref_grams: Collection[str],
    susp_grams: AbstractSet[str],
    ref_empty: bool,
    count: Callable[[Collection[str], AbstractSet[str]], Counts] = overlap,
) -> Outcome:
    """The one rule behind first_sentence and query_phrase.

    A Jaccard of a reference's key-sentence grams and the suspect's grams,
    counted by `count`.  A reference without sentences (`ref_empty`) is
    degenerate.  A non-empty reference whose cue-phrase sentences provide no
    grams (no hits at all, or hits too short for a gram) makes query_phrase
    not applicable, so the combiner drops it instead of counting a zero.
    """
    if ref_empty:
        return DEGENERATE
    if method == QUERY_PHRASE and not ref_grams:
        return NOT_APPLICABLE
    return count(ref_grams, susp_grams)


def first_sentence_similarity(
    ref: Document, susp: Document, k: int = DEFAULT_GRAM_LEN
) -> ResemblanceScore:
    """Grams of the reference's first sentence against the whole suspect.

    Comparing a multi-sentence document to itself therefore scores below 1:
    the first sentence's grams are a strict subset of the document's.
    """
    a = sentence_grams(ref, first_sentence(ref), k)
    b = char_kgrams(susp.normalized_text, k).gram_set()
    return outcome_score(FIRST_SENTENCE, gram_outcome(FIRST_SENTENCE, a, b, not ref.sentences))


def query_phrase_similarity(
    ref: Document,
    susp: Document,
    k: int = DEFAULT_GRAM_LEN,
    phrases: Sequence[str] = DEFAULT_QUERY_PHRASES,
) -> ResemblanceScore:
    """Grams of the reference's cue-phrase sentences against the suspect.

    Scored by `gram_outcome`, so a reference without cue-phrase grams
    makes the feature not applicable.
    """
    a = sentence_grams(ref, cue_sentences(ref, phrases), k)
    b = char_kgrams(susp.normalized_text, k).gram_set()
    return outcome_score(QUERY_PHRASE, gram_outcome(QUERY_PHRASE, a, b, not ref.sentences))


def check_beta(beta: float | str) -> None:
    """Reject a beta that is neither "paper" nor a finite number >= 0."""
    if beta != "paper" and (isinstance(beta, str) or not 0 <= beta < math.inf):
        raise ValueError(f"beta must be 'paper' or a finite number >= 0, got {beta!r}")


def lcs_fmeasure(
    ref_tokens: Sequence[str], susp_tokens: Sequence[str], beta: float | str = 1.0
) -> LcsResult:
    """F-measure of the longest common word subsequence.

    With recall R = LCS/m and precision P = LCS/n the score is
    (1+b)RP / (R + bP), where b is `beta` or, for beta="paper", P/R.
    Empty inputs are degenerate; LCS = 0 scores 0; equal sequences score 1.
    Where P/R is undefined (either of those two cases) "paper" reports b = 1.
    """
    check_beta(beta)
    b = 1.0 if beta == "paper" else beta
    m = len(ref_tokens)
    n = len(susp_tokens)
    if m == 0 or n == 0:
        return LcsResult(0, m, n, 0.0, 0.0, b, 0.0, degenerate=True)
    length = lcs_length(ref_tokens, susp_tokens)
    r = length / m
    p = length / n
    if length == 0:
        return LcsResult(0, m, n, r, p, b, 0.0)
    if beta == "paper":
        b = p / r
    f = (1.0 + b) * r * p / (r + b * p)
    return LcsResult(length, m, n, r, p, b, f)


def lcs_similarity(
    ref: Document,
    susp: Document,
    beta: float | str = 1.0,
    phrases: Sequence[str] = DEFAULT_QUERY_PHRASES,
) -> ResemblanceScore:
    """Best sentence-pair LCS F-measure between key sentences and suspect.

    Key sentences of the reference (first sentence plus cue-phrase hits)
    are compared against every suspect sentence; the maximum F wins.  The
    first maximal pair in scan order is reported in the detail.
    """
    key_indices = key_sentence_indices(ref, phrases)
    if not key_indices or not susp.sentences:
        return ResemblanceScore(0.0, LCS_F, degenerate=True)
    pairs = (
        (lcs_fmeasure(ref.sentences[ki].tokens, s.tokens, beta), ki, s.index)
        for ki in key_indices
        for s in susp.sentences
    )
    best, ref_sentence, susp_sentence = max(pairs, key=lambda pair: pair[0].f_lcs)
    detail = {
        "lcs_length": best.lcs_length,
        "m": best.m,
        "n": best.n,
        "r_lcs": best.r_lcs,
        "p_lcs": best.p_lcs,
        "beta": best.beta,
        "ref_sentence": ref_sentence,
        "susp_sentence": susp_sentence,
    }
    return ResemblanceScore(best.f_lcs, LCS_F, detail, degenerate=best.degenerate)

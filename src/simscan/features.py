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

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .fingerprint import (
    FIRST_SENTENCE,
    LCS_F,
    QUERY_PHRASE,
    TOP_KEYWORD,
    ResemblanceScore,
    char_kgrams,
    jaccard,
)
from .kernels import lcs_length
from .textprep import Document

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
class QueryPhraseHit:
    """One sentence matched by a cue phrase."""

    phrase: str
    sentence_index: int
    extracted_sentence: str

    def __post_init__(self):
        if self.phrase not in self.extracted_sentence.lower():
            raise ValueError(f"sentence does not contain {self.phrase!r}")


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

    def score(self) -> ResemblanceScore:
        return ResemblanceScore(
            self.f_lcs,
            LCS_F,
            detail={
                "lcs_length": self.lcs_length,
                "m": self.m,
                "n": self.n,
                "r_lcs": self.r_lcs,
                "p_lcs": self.p_lcs,
                "beta": self.beta,
            },
            degenerate=self.degenerate,
        )


def _parse_phrases(lines: Iterable[str]) -> tuple[str, ...]:
    phrases = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        phrases.append(line.removesuffix("...").rstrip().lower())
    return tuple(phrases)


def load_query_phrases(path: str | Path | None = None) -> tuple[str, ...]:
    """Cue phrases from a file, or the built-in six when no path is given.

    Blank lines and `#` comments are skipped; phrases are lowercased and a
    trailing "..." is dropped.
    """
    if path is None:
        return DEFAULT_QUERY_PHRASES
    with open(path, encoding="utf-8") as fh:
        return _parse_phrases(fh)


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


def first_sentence_grams(doc: Document, k: int = DEFAULT_GRAM_LEN) -> frozenset[str]:
    """Distinct k-grams of the document's first sentence; none without sentences."""
    if not doc.sentences:
        return frozenset()
    return char_kgrams(doc.sentences[0].normalized, k).gram_set()


def first_sentence_similarity(
    ref: Document, susp: Document, k: int = DEFAULT_GRAM_LEN
) -> ResemblanceScore:
    """Grams of the reference's first sentence against the whole suspect.

    Comparing a multi-sentence document to itself therefore scores below 1:
    the first sentence's grams are a strict subset of the document's.
    """
    if not ref.sentences:
        return ResemblanceScore(0.0, FIRST_SENTENCE, degenerate=True)
    a = first_sentence_grams(ref, k)
    b = char_kgrams(susp.normalized_text, k).gram_set()
    return jaccard(a, b, FIRST_SENTENCE)


def extract_query_phrase_sentences(
    doc: Document, phrases: Sequence[str] | None = None
) -> tuple[QueryPhraseHit, ...]:
    """Every sentence containing a cue phrase, in document order.

    Matching is case-insensitive over the sentence's raw text; a sentence
    yields at most one hit (the first phrase in configuration order).
    """
    if phrases is None:
        phrases = DEFAULT_QUERY_PHRASES
    hits = []
    for sentence in doc.sentences:
        lowered = sentence.text.lower()
        for phrase in phrases:
            if phrase in lowered:
                hits.append(
                    QueryPhraseHit(
                        phrase=phrase,
                        sentence_index=sentence.index,
                        extracted_sentence=sentence.text,
                    )
                )
                break
    return tuple(hits)


def query_phrase_grams(
    doc: Document, k: int = DEFAULT_GRAM_LEN, phrases: Sequence[str] | None = None
) -> frozenset[str]:
    """Distinct k-grams of all of the document's cue-phrase sentences."""
    hits = extract_query_phrase_sentences(doc, phrases)
    sentences = (doc.sentences[hit.sentence_index] for hit in hits)
    return frozenset().union(*(char_kgrams(s.normalized, k).gram_set() for s in sentences))


def query_phrase_similarity(
    ref: Document,
    susp: Document,
    k: int = DEFAULT_GRAM_LEN,
    phrases: Sequence[str] | None = None,
) -> ResemblanceScore:
    """Grams of the reference's cue-phrase sentences against the suspect.

    A reference without sentences is degenerate.  A non-empty reference
    whose cue-phrase sentences provide no grams (no hits at all, or hits
    too short for a gram) makes the feature not applicable, so the
    combiner drops it instead of counting a zero.
    """
    if not ref.sentences:
        return ResemblanceScore(0.0, QUERY_PHRASE, degenerate=True)
    a = query_phrase_grams(ref, k, phrases)
    if not a:
        return ResemblanceScore(0.0, QUERY_PHRASE, not_applicable=True)
    b = char_kgrams(susp.normalized_text, k).gram_set()
    return jaccard(a, b, QUERY_PHRASE)


def lcs_fmeasure(
    ref_tokens: Sequence[str],
    susp_tokens: Sequence[str],
    beta_mode: str = "fixed",
    beta: float = 1.0,
) -> LcsResult:
    """F-measure of the longest common word subsequence.

    With recall R = LCS/m and precision P = LCS/n the score is
    (1+b)RP / (R + bP), where b is the fixed constant or, in paper mode,
    P/R.  Empty inputs are degenerate; LCS = 0 scores 0; equal sequences
    score 1.
    """
    if beta_mode not in ("fixed", "paper"):
        raise ValueError(f"unknown beta_mode: {beta_mode!r}")
    if beta_mode == "fixed" and beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    m = len(ref_tokens)
    n = len(susp_tokens)
    if m == 0 or n == 0:
        return LcsResult(0, m, n, 0.0, 0.0, beta, 0.0, degenerate=True)
    length = lcs_length(ref_tokens, susp_tokens)
    r = length / m
    p = length / n
    if length == 0:
        return LcsResult(0, m, n, r, p, beta, 0.0)
    b = p / r if beta_mode == "paper" else beta
    f = (1.0 + b) * r * p / (r + b * p)
    return LcsResult(length, m, n, r, p, b, f)


def key_sentence_indices(
    ref: Document, phrases: Sequence[str] | None = None
) -> tuple[int, ...]:
    """First sentence plus cue-phrase sentences, deduplicated, in order."""
    if not ref.sentences:
        return ()
    indices = {ref.sentences[0].index}
    indices.update(h.sentence_index for h in extract_query_phrase_sentences(ref, phrases))
    return tuple(sorted(indices))


def lcs_similarity(
    ref: Document,
    susp: Document,
    beta_mode: str = "fixed",
    beta: float = 1.0,
    phrases: Sequence[str] | None = None,
) -> ResemblanceScore:
    """Best sentence-pair LCS F-measure between key sentences and suspect.

    Key sentences of the reference (first sentence plus cue-phrase hits)
    are compared against every suspect sentence; the maximum F wins.  The
    first maximal pair in scan order is reported in the detail.
    """
    key_indices = key_sentence_indices(ref, phrases)
    if not key_indices or not susp.sentences:
        return ResemblanceScore(0.0, LCS_F, degenerate=True)
    best: LcsResult | None = None
    best_pair = (-1, -1)
    for ki in key_indices:
        ref_tokens = ref.sentences[ki].tokens
        for susp_sentence in susp.sentences:
            result = lcs_fmeasure(ref_tokens, susp_sentence.tokens, beta_mode, beta)
            if best is None or result.f_lcs > best.f_lcs:
                best = result
                best_pair = (ki, susp_sentence.index)
    assert best is not None
    detail = dict(best.score().detail)
    detail["ref_sentence"] = best_pair[0]
    detail["susp_sentence"] = best_pair[1]
    return ResemblanceScore(
        best.f_lcs, LCS_F, detail=detail, degenerate=best.degenerate
    )

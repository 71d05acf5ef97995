"""Fingerprint schemes and resemblance measures.

Three document fingerprints are supported:

* full character k-grams with the containment resemblance N/|A|,
* word trigram sets compared with Jaccard similarity,
* per-sentence fingerprints made of the three least frequent 4-grams,
  compared as sets of 12-character keys.

Gram multiplicities are kept only for weighting; every resemblance measure
operates on distinct-gram sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import AbstractSet, Collection, Mapping

from .textprep import Document, Sentence

# Method tags carried by every ResemblanceScore.
FULL_CHAR = "full_char"
TRIGRAM = "trigram_jaccard"
STATEMENT = "statement"
FIRST_SENTENCE = "first_sentence"
QUERY_PHRASE = "query_phrase"
TOP_KEYWORD = "top_keyword"
LCS_F = "lcs_f"

# Features combined by default; the two whole-document schemes can be
# enabled on top for pair comparisons.  ALL_FEATURES is the report order.
DEFAULT_FEATURES = (STATEMENT, TOP_KEYWORD, FIRST_SENTENCE, QUERY_PHRASE, LCS_F)
ALL_FEATURES = DEFAULT_FEATURES + (FULL_CHAR, TRIGRAM)

# The statement scheme concatenates this many least-frequent grams of this
# length into one sentence key.
STATEMENT_GRAM_LEN = 4
STATEMENT_GRAM_COUNT = 3


@dataclass(frozen=True)
class ResemblanceScore:
    """A similarity value in [0, 1] tagged with the method that produced it.

    `detail` holds the method's raw counters (set sizes, LCS length, ...).
    `degenerate` marks scores forced to 0 by empty input; `not_applicable`
    marks features the combiner should skip entirely.
    """

    value: float
    method: str
    detail: Mapping[str, float | int] = field(default_factory=dict)
    degenerate: bool = False
    not_applicable: bool = False

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"score out of range: {self.value!r}")
        if self.method not in ALL_FEATURES:
            raise ValueError(f"unknown method: {self.method!r}")

    @property
    def flags(self) -> tuple[str, ...]:
        out = []
        if self.degenerate:
            out.append("degenerate_input")
        if self.not_applicable:
            out.append("not_applicable")
        return tuple(out)


@dataclass(frozen=True)
class GramMultiset:
    """Character k-grams of one document or sentence with their counts."""

    k: int
    # A plain dict, not a Counter: looking up a missing gram raises KeyError.
    counts: Mapping[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def distinct(self) -> int:
        return len(self.counts)

    def gram_set(self) -> frozenset[str]:
        return frozenset(self.counts)


@dataclass(frozen=True)
class GramWeights:
    """Relative gram frequencies x_i = m_i / sum(m_j), kept as exact rationals."""

    weights: Mapping[str, Fraction]

    def __getitem__(self, gram: str) -> Fraction:
        return self.weights[gram]

    def total_weight(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))


@dataclass(frozen=True)
class SentenceFingerprint:
    """The concatenated least-frequent grams identifying one sentence."""

    sentence_index: int
    grams: tuple[str, ...]

    def __post_init__(self):
        if len(self.grams) != STATEMENT_GRAM_COUNT:
            raise ValueError(f"expected {STATEMENT_GRAM_COUNT} grams, got {len(self.grams)}")
        if len({len(g) for g in self.grams}) != 1:
            raise ValueError("grams must share one length")

    @property
    def key(self) -> str:
        return "".join(self.grams)


def char_kgrams(text: str, k: int) -> GramMultiset:
    """All contiguous k-character substrings of the text, spaces ignored.

    A space-stripped text of length L yields L - k + 1 grams (with
    multiplicity); shorter text yields an empty multiset.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    stripped = text.replace(" ", "")
    counts = Counter(stripped[i : i + k] for i in range(len(stripped) - k + 1))
    return GramMultiset(k, dict(counts))


def word_trigrams(text: str) -> frozenset[str]:
    """The set of all consecutive three-word sequences of normalized text."""
    words = text.split()
    return frozenset(" ".join(words[i : i + 3]) for i in range(len(words) - 2))


def full_resemblance(a: GramMultiset, b: GramMultiset) -> ResemblanceScore:
    """How much of A is contained in B: common distinct grams over |A|.

    Not symmetric.  An empty A scores 0 with the degenerate flag instead of
    dividing by zero.
    """
    if a.k != b.k:
        raise ValueError(f"gram length mismatch: {a.k} vs {b.k}")
    common = sum(1 for gram in a.counts if gram in b.counts)
    detail = {"common": common, "distinct_a": a.distinct, "distinct_b": b.distinct}
    if a.distinct == 0:
        return ResemblanceScore(0.0, FULL_CHAR, detail, degenerate=True)
    return ResemblanceScore(common / a.distinct, FULL_CHAR, detail)


def jaccard(
    a: Collection[str], b: AbstractSet[str], method: str = TRIGRAM
) -> ResemblanceScore:
    """|A o B| / |A u B|; two empty sets score 0 with the degenerate flag.

    `a` holds distinct items (a set, or an IndexEntry tuple); `b` is a set.
    """
    intersection = len(b.intersection(a))
    union = len(a) + len(b) - intersection
    detail = {
        "intersection": intersection,
        "union": union,
        "size_a": len(a),
        "size_b": len(b),
    }
    if union == 0:
        return ResemblanceScore(0.0, method, detail, degenerate=True)
    return ResemblanceScore(intersection / union, method, detail)


def gram_weights(multiset: GramMultiset) -> GramWeights:
    """Weight each gram by its share of all occurrences; weights sum to 1."""
    if multiset.total == 0:
        raise ValueError("cannot weight an empty multiset")
    total = multiset.total
    return GramWeights(
        {gram: Fraction(count, total) for gram, count in multiset.counts.items()}
    )


def least_frequent_fingerprint(
    sentence: Sentence,
    freqs: GramWeights | Mapping[str, int],
    k: int = STATEMENT_GRAM_LEN,
) -> SentenceFingerprint | None:
    """Fingerprint a sentence by its three least frequent k-grams.

    `freqs` must cover every gram of the sentence, with the exact weights or
    the integer counts over the containing document; both rank the grams
    alike.  Grams are ordered by ascending frequency, ties by first
    occurrence in the sentence, and the first three concatenate into the
    key.  Sentences with fewer than three distinct grams yield None.
    """
    stripped = "".join(sentence.tokens)
    grams = dict.fromkeys(stripped[i : i + k] for i in range(len(stripped) - k + 1))
    if len(grams) < STATEMENT_GRAM_COUNT:
        return None
    try:
        # Stable sort over first-occurrence order breaks ties by position.
        ranked = sorted(grams, key=freqs.__getitem__)
    except KeyError as exc:
        raise KeyError(
            f"gram {exc.args[0]!r} missing from document weights"
        ) from None
    return SentenceFingerprint(
        sentence_index=sentence.index,
        grams=tuple(ranked[:STATEMENT_GRAM_COUNT]),
    )


def document_fingerprints(
    doc: Document, k: int = STATEMENT_GRAM_LEN
) -> tuple[SentenceFingerprint, ...]:
    """Fingerprints of every sentence, weighted over the whole document.

    Grams are ranked by their integer counts: the weights of `gram_weights`
    all share the document's gram total as denominator, so they order alike.
    """
    counts = char_kgrams(doc.normalized_text, k).counts
    out = []
    for sentence in doc.sentences:
        fp = least_frequent_fingerprint(sentence, counts, k)
        if fp is not None:
            out.append(fp)
    return tuple(out)


def fingerprint_keys(doc: Document, k: int = STATEMENT_GRAM_LEN) -> frozenset[str]:
    """The set of sentence fingerprint keys of a document."""
    return frozenset(fp.key for fp in document_fingerprints(doc, k))


def statement_resemblance(
    doc_a: Document, doc_b: Document, k: int = STATEMENT_GRAM_LEN
) -> ResemblanceScore:
    """Jaccard similarity of the two documents' sentence fingerprint sets."""
    return jaccard(fingerprint_keys(doc_a, k), fingerprint_keys(doc_b, k), STATEMENT)

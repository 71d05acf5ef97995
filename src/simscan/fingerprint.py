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
from itertools import chain, compress, islice
from types import MappingProxyType
from typing import AbstractSet, Collection, Mapping, NamedTuple, Sequence

from .textprep import Document

# Feature names; a report files each score under one.
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
    """A similarity value in [0, 1], named by its key in `FeatureReport.scores`.

    `detail` holds the feature's raw counters (set sizes, LCS length, ...).
    `degenerate` marks scores forced to 0 by empty input; `not_applicable`
    marks features the combiner should skip entirely.
    """

    value: float
    detail: Mapping[str, float | int] = field(default_factory=dict)
    degenerate: bool = False
    not_applicable: bool = False

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"score out of range: {self.value!r}")

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
    # Each sentence's grams in order, as `document_grams` cuts them.
    sentences: tuple[list[str], ...] = ()

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def distinct(self) -> int:
        return len(self.counts)

    def gram_set(self) -> frozenset[str]:
        return frozenset(self.counts)


class SentenceFingerprint(NamedTuple):
    """One sentence's key: its least frequent grams, concatenated."""

    sentence_index: int
    key: str


def _kgram_list(text: str, k: int) -> list[str]:
    """The k-character windows of `text`, in order."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = len(text) - k + 1
    if n < 1:
        return []
    # Tuple i holds the k characters of text[i : i + k]; zip reads n from each slice.
    return list(map("".join, zip(*(text[j : j + n] for j in range(k)))))


def char_kgrams(text: str, k: int) -> GramMultiset:
    """All contiguous k-character substrings of the text, spaces ignored.

    A space-stripped text of length L yields L - k + 1 grams (with
    multiplicity); shorter text yields an empty multiset.
    """
    return GramMultiset(k, dict(Counter(_kgram_list(text.replace(" ", ""), k))))


def document_grams(doc: Document, k: int) -> GramMultiset:
    """The k-grams of the document's tokens, counted and cut into sentences.

    The grams are cut once from the tokens joined with no separator.  A
    sentence's grams are the slice of that list that starts at the
    sentence's offset (the lengths of the tokens before it) and stays
    inside the sentence; a gram spanning two sentences is counted but
    belongs to neither.  `counts` equals `char_kgrams` of the tokens joined
    by spaces.  Sentence fingerprints, the first-sentence, cue-phrase and
    full_char grams and a suspect's gram set all read it.
    """
    grams = _kgram_list("".join(chain.from_iterable(s.tokens for s in doc.sentences)), k)
    sentences = []
    start = 0
    for sentence in doc.sentences:
        end = start + sum(map(len, sentence.tokens))
        # A sentence shorter than k has no gram; a negative end - k + 1
        # would otherwise wrap around to the end of the list.
        sentences.append(grams[start : max(start, end - k + 1)])
        start = end
    return GramMultiset(k, dict(Counter(grams)), tuple(sentences))


def word_trigrams(words: Sequence[str]) -> frozenset[str]:
    """The set of all consecutive three-word sequences, each joined by spaces."""
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
        return ResemblanceScore(0.0, detail, degenerate=True)
    return ResemblanceScore(common / a.distinct, detail)


# (|A o B|, |A|, |B|) of two sets.
Counts = tuple[int, int, int]
# The outcome of scoring one feature: the counts of a Jaccard score, whose
# ResemblanceScore is built only if a report needs it, or a built score.
Outcome = Counts | ResemblanceScore
# The zero scores carrying only that flag, built once; every feature returns
# the same instance, so its detail is read-only.
DEGENERATE = ResemblanceScore(0.0, MappingProxyType({}), degenerate=True)
NOT_APPLICABLE = ResemblanceScore(0.0, MappingProxyType({}), not_applicable=True)


def overlap(a: Collection[str], b: AbstractSet[str]) -> Counts:
    """|A o B|, |A| and |B|.

    `a` holds distinct items (a set, or an IndexEntry tuple); `b` is a set.
    """
    return len(b.intersection(a)), len(a), len(b)


def overlap_bound(a: Collection[str], b: AbstractSet[str]) -> Counts:
    """`overlap` with |A o B| replaced by its upper bound min(|A|, |B|).

    Its Jaccard value is min(|A|, |B|) / max(|A|, |B|), the size filter of
    Bayardo, Ma & Srikant (WWW 2007), and it needs no intersection.
    """
    return min(len(a), len(b)), len(a), len(b)


def jaccard_value(intersection: int, size_a: int, size_b: int) -> float:
    """|A o B| / |A u B| from the counts; 0 for two empty sets."""
    union = size_a + size_b - intersection
    return intersection / union if union else 0.0


def outcome_value(outcome: Outcome) -> tuple[float, bool]:
    """The value an outcome scores and whether it is applicable."""
    if type(outcome) is tuple:
        return jaccard_value(*outcome), True
    return outcome.value, not outcome.not_applicable


def outcome_score(outcome: Outcome) -> ResemblanceScore:
    """The score an outcome reports; two empty sets make a degenerate Jaccard."""
    if type(outcome) is tuple:
        intersection, size_a, size_b = outcome
        union = size_a + size_b - intersection
        detail = {
            "intersection": intersection,
            "union": union,
            "size_a": size_a,
            "size_b": size_b,
        }
        return ResemblanceScore(jaccard_value(*outcome), detail, degenerate=union == 0)
    return outcome


def document_fingerprints(
    doc: Document, grams: GramMultiset | None = None
) -> tuple[SentenceFingerprint, ...]:
    """The fingerprint of every sentence with at least three distinct grams.

    A sentence's distinct grams are ranked by their counts over the whole
    document, ties by first occurrence in the sentence, and the three least
    frequent concatenate into its key.  The counts order the grams as the
    paper's weights x_i = m_i / sum(m_j) do, since those share one
    denominator; `tests/fingerprint_oracle.py` ranks by the exact weights.
    `grams`, when given, must be `document_grams(doc, STATEMENT_GRAM_LEN)`.

    Every gram counts at least 1, and a gram of count 1 occurs once in the
    document, so it is distinct and its first occurrence is its only one:
    the ranking puts the once-seen grams first, in sentence order.  So the
    first three once-seen grams are the key, and the sort runs only for a
    sentence with fewer.
    """
    grams = document_grams(doc, STATEMENT_GRAM_LEN) if grams is None else grams
    count = grams.counts.__getitem__
    once = (1).__eq__
    fingerprints = []
    for index, sentence in enumerate(grams.sentences):
        ranked = list(
            islice(compress(sentence, map(once, map(count, sentence))), STATEMENT_GRAM_COUNT)
        )
        if len(ranked) < STATEMENT_GRAM_COUNT:
            distinct = dict.fromkeys(sentence)
            if len(distinct) < STATEMENT_GRAM_COUNT:
                continue
            # A stable sort over first-occurrence order breaks ties by position.
            ranked = sorted(distinct, key=count)[:STATEMENT_GRAM_COUNT]
        fingerprints.append(SentenceFingerprint(index, "".join(ranked)))
    return tuple(fingerprints)


def fingerprint_keys(doc: Document, grams: GramMultiset | None = None) -> frozenset[str]:
    """The set of sentence fingerprint keys of a document (`grams` as above)."""
    return frozenset(fp.key for fp in document_fingerprints(doc, grams))


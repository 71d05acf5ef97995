"""Seeded synthetic documents for the benchmark workloads.

Words come from a Zipfian vocabulary whose head is the bundled stopword
list, so stopword removal drops a realistic share of tokens, followed by
pseudo-words built from a root plus an English suffix, so the Porter
stemmer has suffixes to strip and several surface forms share one stem.
About a tenth of every document's sentences open with a cue phrase from
the bundled list.

The vocabulary is the same for every seed, and document and sentence
sizes are stratified over their range rather than drawn at random, so
every seed gives the same size mix and word-length profile and only the
sampled words differ.  That keeps medians over a run comparable from seed
to seed: with a per-seed vocabulary, which pseudo-words landed at the head
of the Zipf curve moved the compare references' index bytes per document
by 6 % between seeds.
"""

from __future__ import annotations

import random
from itertools import accumulate

from simscan.features import load_query_phrases
from simscan.textprep import load_stopwords

_ONSETS = (
    "b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v",
    "w", "z", "br", "cr", "dr", "gr", "pl", "st", "tr", "ch", "sh", "th",
)
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ou", "y")
_CODAS = ("", "", "n", "r", "l", "s", "t", "m", "nd", "rt", "st", "ck")
# Suffixes the Porter steps strip or rewrite; "" keeps the bare root.
_SUFFIXES = (
    "", "s", "es", "ed", "ing", "ly", "ness", "ation", "ational", "izer",
    "fulness", "ement", "ity", "ive", "ize", "ies", "ousness", "able",
)
ROOTS = 1200
FORMS_PER_ROOT = 3
ZIPF_EXPONENT = 1.0
VOCABULARY_SEED = 0
CUE_SHARE = 0.1
GOLDEN = 0.6180339887498949


def stratified(i: int, low: int, high: int) -> int:
    """The i-th value of a low-discrepancy sequence over [low, high]."""
    return low + int(((i + 1) * GOLDEN) % 1.0 * (high - low + 1))


class Vocabulary:
    """Zipf-weighted words: bundled stopwords first, then pseudo-words."""

    def __init__(self):
        rng = random.Random(VOCABULARY_SEED)
        self.stopwords = sorted(load_stopwords())
        rng.shuffle(self.stopwords)
        seen = set(self.stopwords)
        pseudo = []
        while len(pseudo) < ROOTS * FORMS_PER_ROOT:
            root = "".join(
                rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
                for _ in range(rng.randint(1, 3))
            )
            for suffix in rng.sample(_SUFFIXES, FORMS_PER_ROOT):
                word = root + suffix
                if word not in seen:
                    seen.add(word)
                    pseudo.append(word)
        rng.shuffle(pseudo)
        self.words = self.stopwords + pseudo
        self.cum_weights = list(
            accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(self.words)))
        )
        self.phrases = load_query_phrases()

    def words_for(self, rng: random.Random, count: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum_weights, k=count)


def _sentence(words: list[str]) -> str:
    text = " ".join(words)
    return text[:1].upper() + text[1:] + "."


class Generator:
    """Builds documents and plagiarised variants from one seeded stream."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.vocab = Vocabulary()

    def sentences(self, count: int, min_words: int, max_words: int) -> list[str]:
        """`count` sentences, about a tenth opening with a cue phrase."""
        rng = self.rng
        cue_positions = set(rng.sample(range(count), round(CUE_SHARE * count)))
        # The first and the cue-phrase sentences are the ones LCS compares,
        # so they get a stratified length mix of their own.
        key = sorted(cue_positions | {0})
        rest = [i for i in range(count) if i not in cue_positions and i != 0]
        lengths = [0] * count
        for positions in (key, rest):
            mix = [stratified(k, min_words, max_words) for k in range(len(positions))]
            rng.shuffle(mix)
            for i, length in zip(positions, mix):
                lengths[i] = length
        out = []
        for i, length in enumerate(lengths):
            words = self.vocab.words_for(rng, length)
            if i in cue_positions:
                phrase = rng.choice(self.vocab.phrases).split()
                words = phrase + words[len(phrase):]
            out.append(_sentence(words))
        return out

    def edited(self, sentence: str) -> str:
        """A copied sentence with a few adjacent-word swaps and deletions."""
        rng = self.rng
        words = sentence.rstrip(".").split()
        for _ in range(rng.randint(0, 2)):
            if len(words) > 2:
                i = rng.randrange(len(words) - 1)
                words[i], words[i + 1] = words[i + 1], words[i]
        for _ in range(rng.randint(0, 2)):
            if len(words) > 4:
                del words[rng.randrange(len(words))]
        return _sentence([w.lower() for w in words])

    def derived(
        self, source: list[str], count: int, copy_share: float, min_words: int, max_words: int
    ) -> list[str]:
        """`count` sentences, `copy_share` of them edited copies from `source`.

        Copies keep their source order; the rest are fresh sentences.
        """
        rng = self.rng
        copies = min(round(copy_share * count), len(source))
        picked = sorted(rng.sample(range(len(source)), copies))
        slots = set(rng.sample(range(count), copies))
        fresh = iter(self.sentences(count - copies, min_words, max_words))
        copied = iter(self.edited(source[j]) for j in picked)
        return [next(copied) if i in slots else next(fresh) for i in range(count)]


def text(sentences: list[str]) -> str:
    return " ".join(sentences) + "\n"

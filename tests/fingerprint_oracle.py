"""The paper's exact gram weights, kept as the oracle for sentence keys.

`simscan.fingerprint.document_fingerprints` ranks a sentence's grams by
their integer counts over the document.  The paper weights each gram
x_i = m_i / sum(m_j) instead; `gram_weights` computes those weights as
exact fractions, and `weighted_fingerprints` ranks every sentence's own
4-grams by them, so the tests can check that both orders pick one key.
"""

from __future__ import annotations

from fractions import Fraction

from simscan.fingerprint import (
    STATEMENT_GRAM_COUNT,
    STATEMENT_GRAM_LEN,
    GramMultiset,
    char_kgrams,
)
from simscan.textprep import Document


def gram_weights(multiset: GramMultiset) -> dict[str, Fraction]:
    """Each gram's exact share x_i = m_i / sum(m_j) of all occurrences; they sum to 1."""
    total = multiset.total
    if total == 0:
        raise ValueError("cannot weight an empty multiset")
    return {gram: Fraction(count, total) for gram, count in multiset.counts.items()}


def weighted_fingerprints(doc: Document) -> tuple[tuple[int, str], ...]:
    """(sentence index, key) of every sentence with three distinct 4-grams.

    Each sentence's 4-grams are cut from its own text, in first-occurrence
    order, and ranked by their exact weights over the whole document, ties
    by that order; the three lightest concatenate into the key.
    """
    multiset = char_kgrams(doc.normalized_text, STATEMENT_GRAM_LEN)
    if not multiset.total:
        return ()
    weights = gram_weights(multiset)
    out = []
    for index, sentence in enumerate(doc.sentences):
        grams = list(char_kgrams(" ".join(sentence.tokens), STATEMENT_GRAM_LEN).counts)
        if len(grams) >= STATEMENT_GRAM_COUNT:
            ranked = sorted(grams, key=weights.__getitem__)
            out.append((index, "".join(ranked[:STATEMENT_GRAM_COUNT])))
    return tuple(out)

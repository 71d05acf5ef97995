"""The per-phrase cue scan that `simscan.features.cue_sentences` replaced, kept as the oracle.

Every test that asks which sentences are cue sentences asks this scan, so
the oracles share one reading of the cue rule: lowercased text and phrases,
each whitespace run as one space, and a phrase only as whole words.
"""

from __future__ import annotations


def per_phrase_hits(doc, phrases):
    """The indices of `doc`'s sentences that hold one of `phrases`.

    Like `cue_sentences`, it lowercases the text and each phrase, collapses
    each whitespace run to one space, skips a phrase left empty, and takes
    a phrase only as whole words: tried at every position, it must not
    touch an alphanumeric character with an alphanumeric end of its own.
    """
    hits = []
    for i, sentence in enumerate(doc.sentences):
        lowered = " ".join(sentence.text.lower().split())
        for phrase in phrases:
            phrase = " ".join(phrase.lower().split())
            if phrase and any(
                _whole_phrase_at(lowered, phrase, at) for at in range(len(lowered))
            ):
                hits.append(i)
                break
    return tuple(hits)


def _whole_phrase_at(text, phrase, i):
    before, after = text[i - 1 : i], text[i + len(phrase) : i + len(phrase) + 1]
    return (
        text[i : i + len(phrase)] == phrase
        and not (phrase[0].isalnum() and before.isalnum())
        and not (phrase[-1].isalnum() and after.isalnum())
    )

"""Deterministic text preprocessing.

Normalization, sentence segmentation, word tokenization, stopword
removal and stemming: the front end every comparison scheme shares.  All
functions are pure; `Document` and `Sentence` are immutable once built.

Two patterns hold the text rules.  `_WORD` is a word: a maximal run of
alphanumeric characters (`str.isalnum`).  `_SENTENCE_END` is the empty
position after '.', '!' or '?' that whitespace (`str.isspace`) or the
end of the text follows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .porter import stem

__all__ = [
    "Document",
    "Sentence",
    "StemMemo",
    "document",
    "load_stopwords",
    "normalize",
    "split_sentences",
    "stem",
]

# For str patterns, `\w` is `str.isalnum` plus "_" and `\s` is `str.isspace`.
_WORD = re.compile(r"[^\W_]+")
_SENTENCE_END = re.compile(r"(?<=[.!?])(?=\s|\Z)")


def normalize(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace runs to one space.

    Every character that is not alphanumeric becomes a space, so punctuation
    separates words rather than gluing them together.  Digits are kept.
    Idempotent: normalizing normalized text is a no-op.
    """
    return " ".join(_WORD.findall(text.lower()))


@dataclass(frozen=True)
class Sentence:
    """One segmented sentence with its token views.

    `tokens` are the normalized words in order; `content_tokens` are the
    stemmed non-stopword tokens, used only by keyword extraction.
    """

    index: int
    text: str
    tokens: tuple[str, ...]
    content_tokens: tuple[str, ...]

    @property
    def normalized(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class Document:
    """A preprocessed document: id, sentences, normalized text."""

    id: str
    normalized_text: str
    sentences: tuple[Sentence, ...]

    @property
    def content_tokens(self) -> tuple[str, ...]:
        return tuple(t for s in self.sentences for t in s.content_tokens)


class StemMemo(dict):
    """Stems by token, filled on demand.

    A missing token is stemmed by this module's `stem`, looked up at call
    time so that the benchmark's tracer, which rebinds it, sees every miss.
    """

    def __missing__(self, token: str) -> str:
        self[token] = stemmed = stem(token)
        return stemmed


def split_sentences(
    text: str, stopwords: frozenset[str] | None = None, stems: StemMemo | None = None
) -> list[Sentence]:
    """Segment text into `Sentence` objects with dense indices from 0.

    Text without any terminal punctuation yields a single sentence; empty
    text yields none.  Segments without a single word (all punctuation)
    are dropped, so a document has sentences exactly when it has tokens.
    Each distinct content token is stemmed once, through `stems` if given
    (a memo kept across calls, such as a `Detector`'s).
    """
    if stopwords is None:
        stopwords = load_stopwords()
    if stems is None:
        stems = StemMemo()
    sentences: list[Sentence] = []
    for raw in _SENTENCE_END.split(text):
        tokens = tuple(_WORD.findall(raw.lower()))
        if not tokens:
            continue
        content = tuple(stems[t] for t in tokens if t not in stopwords)
        sentences.append(
            Sentence(
                index=len(sentences),
                text=raw.strip(),
                tokens=tokens,
                content_tokens=content,
            )
        )
    return sentences


def document(
    doc_id: str,
    raw_text: str,
    stopwords: frozenset[str] | None = None,
    stems: StemMemo | None = None,
) -> Document:
    """A `Document` of `raw_text`'s sentences, built as `split_sentences` builds them."""
    sentences = tuple(split_sentences(raw_text, stopwords, stems))
    return Document(
        id=doc_id,
        normalized_text=" ".join(s.normalized for s in sentences),
        sentences=sentences,
    )


def list_entries(lines: Iterable[str]) -> Iterator[str]:
    """The stripped lines of a word or phrase list, minus blanks and `#` comments."""
    for line in lines:
        line = line.strip()
        if line and not line.startswith("#"):
            yield line


def _parse_word_list(text: str) -> frozenset[str]:
    return frozenset(word.lower() for word in list_entries(text.splitlines()))


@cache
def _default_stopwords() -> frozenset[str]:
    data = resources.files("simscan.data").joinpath("stopwords.txt")
    return _parse_word_list(data.read_text(encoding="utf-8"))


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword list: one lowercase word per line, '#' comments.

    With no path, returns the list shipped with the package.
    """
    if path is None:
        return _default_stopwords()
    # open(), not Path: Path("") would name the current directory.
    with open(path, encoding="utf-8") as fh:
        return _parse_word_list(fh.read())

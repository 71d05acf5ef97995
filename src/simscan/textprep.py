"""Deterministic text preprocessing.

Sentence segmentation and word tokenization: the front end every
comparison scheme shares, built by `document`.  The stopword lists and the
stem memo that `features.top_keywords` reads live here too.  All functions
are pure; `Document` and `Sentence` are immutable once built.

Two patterns hold the text rules.  `_WORD` is a word: a maximal run of
alphanumeric characters (`str.isalnum`), read lowercased by `_tokens`.
`_SENTENCE_END` is the empty position after '.', '!' or '?' that
whitespace (`str.isspace`) or the end of the text follows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .porter import stem

# For str patterns, `\w` is `str.isalnum` plus "_" and `\s` is `str.isspace`.
_WORD = re.compile(r"[^\W_]+")
_SENTENCE_END = re.compile(r"(?<=[.!?])(?=\s|\Z)")


def _tokens(text: str) -> list[str]:
    """The words of `text`, lowercased, in order; punctuation only separates them."""
    return _WORD.findall(text.lower())


@dataclass(frozen=True)
class Sentence:
    """One segmented sentence: its stripped `text` and its `tokens`, the words in order.

    Its index is its position in `Document.sentences`.
    """

    text: str
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class Document:
    """A preprocessed document: id, sentences, and every token joined by one space."""

    id: str
    normalized_text: str
    sentences: tuple[Sentence, ...]


class StemMemo(dict):
    """Stems by token, filled on demand; `top_keywords` stems through one.

    A missing token is stemmed by this module's `stem`, looked up at call
    time so that the benchmark's tracer, which rebinds it, sees every miss.
    """

    def __missing__(self, token: str) -> str:
        self[token] = stemmed = stem(token)
        return stemmed


def document(doc_id: str, raw_text: str) -> Document:
    """A `Document` of `raw_text`'s sentences, in order.

    Text without any terminal punctuation yields a single sentence; empty
    text yields none.  Segments without a single word (all punctuation)
    are dropped, so a document has sentences exactly when it has tokens.
    """
    sentences: list[Sentence] = []
    for raw in _SENTENCE_END.split(raw_text):
        tokens = tuple(_tokens(raw))
        if tokens:
            sentences.append(Sentence(raw.strip(), tokens))
    return Document(
        id=doc_id,
        normalized_text=" ".join(" ".join(s.tokens) for s in sentences),
        sentences=tuple(sentences),
    )


def list_entries(lines: Iterable[str]) -> Iterator[str]:
    """The stripped lines of a word or phrase list, minus blanks and `#` comments."""
    for line in lines:
        line = line.strip()
        if line and not line.startswith("#"):
            yield line


# The default English stopword list, 127 lowercase words.
DEFAULT_STOPWORDS: frozenset[str] = frozenset(
    """
    a about above after again against all am an and any are as at be because been
    before being below between both but by can cannot could did do does doing down
    during each few for from further had has have having he her here hers herself him
    himself his how i if in into is it its itself just me more most my myself no nor
    not now of off on once only or other our ours ourselves out over own same she
    should so some such than that the their theirs them themselves then there these
    they this those through to too under until up very was we were what when where
    which while who whom why will with would you your yours yourself yourselves
    """.split()
)


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Load a stopword list: the tokens of each line, as `document` reads them.

    Lines follow `list_entries`, so blanks and '#' comments are skipped; a
    line such as "In short," gives the stopwords "in" and "short".  With no
    path, returns `DEFAULT_STOPWORDS`.
    """
    if path is None:
        return DEFAULT_STOPWORDS
    # open(), not Path: Path("") would name the current directory.
    with open(path, encoding="utf-8") as fh:
        return frozenset(t for line in list_entries(fh) for t in _tokens(line))

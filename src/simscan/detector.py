"""Pair analysis, corpus indexing, and candidate ranking.

A Detector bundles a configuration, word lists included, with a stem
memo.  Every reference is scored as a Reference around its IndexEntry,
the derived artifacts build_index persists (statement fingerprint keys,
keywords, first-sentence grams, cue-phrase grams, token digest):
analyze_pair builds it in memory beside the document, rank_candidates
and scan_index read the entry from an index, and all score it with one
value pass.  scan_index ranks each record as it is read from the file.

The index stores derived artifacts only, never raw text, so features
needing full token streams (lcs_f, full_char, trigram_jaccard) are skipped
during scans and the remaining weights renormalize.
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import heapq
import json
import math
import os
import re
import stat
from dataclasses import dataclass, field
from operator import lt
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .features import (
    DEFAULT_GRAM_LEN,
    DEFAULT_K_TOP,
    DEFAULT_QUERY_PHRASES,
    _cue_form,
    _is_int,
    check_beta,
    cue_sentences,
    first_sentence,
    lcs_similarity,
    sentence_grams,
    top_keywords,
)
from .fingerprint import (
    ALL_FEATURES,
    DEFAULT_FEATURES,
    DEGENERATE,
    FIRST_SENTENCE,
    FULL_CHAR,
    LCS_F,
    NOT_APPLICABLE,
    QUERY_PHRASE,
    STATEMENT,
    STATEMENT_GRAM_COUNT,
    STATEMENT_GRAM_LEN,
    TOP_KEYWORD,
    TRIGRAM,
    Counts,
    GramMultiset,
    Outcome,
    ResemblanceScore,
    char_kgrams,
    document_grams,
    fingerprint_keys,
    full_resemblance,
    outcome_score,
    outcome_value,
    overlap,
    overlap_bound,
    word_trigrams,
)
from .textprep import DEFAULT_STOPWORDS, Document, StemMemo, _tokens, document

# Placeholders: perfbench/tracer.py::BOUNDARIES wraps these names, and nothing
# calls them.  ROADMAP item 1 deletes this binding with the tracer's rebinding.
(statement_resemblance, top_keyword_similarity,
 first_sentence_similarity, query_phrase_similarity) = (None,) * 4

# Features that need raw token streams and so cannot be scored from an index.
INDEX_UNAVAILABLE = frozenset({LCS_F, FULL_CHAR, TRIGRAM})

INDEX_SCHEMA = 1

_EMPTY_DIGEST = hashlib.sha256(b"").hexdigest()
# The forms `write_index` writes: a sha256 hex digest, and sentence keys of
# STATEMENT_GRAM_COUNT grams of STATEMENT_GRAM_LEN characters each.
_DIGEST_FORM = re.compile("[0-9a-f]{64}")
_KEY_LEN = STATEMENT_GRAM_COUNT * STATEMENT_GRAM_LEN


class IndexVersionError(Exception):
    """Index schema or config snapshot incompatible with this detector."""


class IndexFormatError(Exception):
    """Malformed index content; `line` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# The longest `k_char` accepted.  A document's gram list holds (L - k + 1) x k
# characters, so an unbounded k lets one long text exhaust memory.
MAX_GRAM_LEN = 64

# The range of a positive feature weight.  Feature values are 0 or ratios of
# counts, far above 2**-500, so every weight * value product and every sum of
# them in `_combine` stays a finite, normal float: scaling all weights by a
# power of two leaves the combined score bit-identical, and equal weights
# give the plain mean.
MIN_WEIGHT, MAX_WEIGHT = 2.0**-500, 2.0**500


@dataclass(frozen=True)
class DetectorConfig:
    """Tunable parameters shared by comparison, indexing, and scanning."""

    k_char: int = DEFAULT_GRAM_LEN
    k_top: int = DEFAULT_K_TOP
    beta: float | str = 1.0
    features: tuple[str, ...] = DEFAULT_FEATURES
    feature_weights: Mapping[str, float] = field(default_factory=dict)
    # The lists themselves, in the form `load_stopwords` and `load_query_phrases` give.
    stopwords: frozenset[str] = DEFAULT_STOPWORDS
    phrases: tuple[str, ...] = DEFAULT_QUERY_PHRASES

    def __post_init__(self):
        for name in ("k_char", "k_top"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        if self.k_char > MAX_GRAM_LEN:
            raise ValueError(f"k_char must be <= {MAX_GRAM_LEN}, got {self.k_char}")
        check_beta(self.beta)
        # A str would match its substrings as words; a set's order follows the hash seed.
        for name, kind in (("stopwords", frozenset), ("phrases", tuple)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got a {type(value).__name__}")
        # Each entry in the form its matcher matches, so no entry holds a newline,
        # and each list's header hash, of its entries joined by newlines, names one list.
        words = list(self.stopwords)
        if _tokens(" ".join(words)) != words:
            word = min(w for w in words if _tokens(w) != [w])
            raise ValueError(f"a stopword must be one lowercase token: {word!r}")
        # A repeat matches nothing more, yet would change the phrases' header hash.
        seen = set()
        for phrase in self.phrases:
            if not phrase or _cue_form(phrase) != phrase:
                raise ValueError(
                    f"a phrase must be non-empty, lowercase and single-spaced: {phrase!r}"
                )
            if phrase in seen:
                raise ValueError(f"a phrase must not repeat: {phrase!r}")
            seen.add(phrase)
        if not self.features:
            raise ValueError("at least one feature must be enabled")
        for name in self.features:
            if name not in ALL_FEATURES:
                raise ValueError(f"unknown feature: {name!r}")
        if len(set(self.features)) != len(self.features):
            raise ValueError("duplicate feature names")
        for name, weight in self.feature_weights.items():
            if name not in ALL_FEATURES:
                raise ValueError(f"weight for unknown feature: {name!r}")
            if isinstance(weight, bool) or not isinstance(weight, (int, float)):
                raise ValueError(f"weight for {name} must be a number, got {weight!r}")
            if weight < 0:
                raise ValueError(f"negative weight for {name}: {weight}")
            try:
                value = float(weight)  # what `weight()` returns
            except OverflowError:  # an int beyond the float range
                value = math.inf
            if not (value == 0 or MIN_WEIGHT <= value <= MAX_WEIGHT):
                raise ValueError(
                    f"weight for {name} must be 0 or a finite value in [2**-500, 2**500], "
                    f"got {value}"
                )
        total = sum(self.weight(name) for name in self.features)
        if not 0 < total < math.inf:
            raise ValueError(
                f"enabled feature weights must sum to a finite positive value, got {total}"
            )

    def weight(self, feature: str) -> float:
        return float(self.feature_weights.get(feature, 1.0))


@dataclass(frozen=True)
class FeatureReport:
    """All feature scores for one (reference, suspect) pair."""

    ref_id: str
    susp_id: str
    scores: Mapping[str, ResemblanceScore]
    combined: float

    def __post_init__(self):
        if not 0.0 <= self.combined <= 1.0:
            raise ValueError(f"combined out of range: {self.combined!r}")

    @property
    def skipped(self) -> frozenset[str]:
        """The features left out of `combined`: those scored not applicable."""
        return frozenset(name for name, score in self.scores.items() if score.not_applicable)


@dataclass(frozen=True)
class IndexEntry:
    """One document's derived artifacts, each tuple sorted and distinct."""

    doc_id: str
    fingerprints: tuple[str, ...]
    keywords: tuple[str, ...]
    first_grams: tuple[str, ...]
    query_grams: tuple[str, ...]
    token_digest: str

    def record(self, k: int) -> dict:
        return {
            "id": self.doc_id,
            "scheme": STATEMENT,
            "k": k,
            "fingerprints": list(self.fingerprints),
            "keywords": list(self.keywords),
            "first_grams": list(self.first_grams),
            "query_grams": list(self.query_grams),
            "token_digest": self.token_digest,
        }


class Reference(NamedTuple):
    """A reference's entry, with its document and cue sentences when in memory."""

    entry: IndexEntry
    doc: Document | None = None
    cues: tuple[int, ...] = ()


class Suspect(NamedTuple):
    """A suspect document with the sets every reference is scored against."""

    doc: Document
    keys: frozenset[str]
    keywords: frozenset[str]
    grams: frozenset[str]


class _Ranked(NamedTuple):
    """An exactly scored entry; `<` means worse: a lower score, or a later id on a tie."""

    combined: float
    doc_id: str
    outcomes: Mapping[str, Outcome]

    def __lt__(self, other: _Ranked) -> bool:
        return (self.combined, other.doc_id) < (other.combined, self.doc_id)


@dataclass(frozen=True)
class CorpusIndex:
    """Entries keyed by document id plus the config snapshot they assume."""

    config: Mapping[str, object]
    entries: Mapping[str, IndexEntry]


def _combine(outcomes: Mapping[str, Outcome], weights: Iterable[tuple[str, float]]) -> float:
    """Weighted mean over the features in `weights`, taken in that order.

    Each feature adds (weight, value, applicable) from its outcome; the
    applicable ones are averaged, and 0 is returned if none remain.
    """
    num = 0.0
    den = 0.0
    for name, weight in weights:
        value, applicable = outcome_value(outcomes[name])
        if applicable:
            num += weight * value
            den += weight
    return num / den if den > 0 else 0.0


class Detector:
    """A configuration and the stem memo its keywords share; it reads no file."""

    def __init__(self, config: DetectorConfig | None = None):
        self.config = config or DetectorConfig()
        self.stopwords = self.config.stopwords
        self.phrases = self.config.phrases
        self._stems = StemMemo()  # kept for the detector's lifetime; the vocabulary bounds it
        # Each enabled feature with its weight, in `features` order.
        self._weights = tuple((name, self.config.weight(name)) for name in self.config.features)

    def document(self, doc_id: str, raw_text: str) -> Document:
        return document(doc_id, raw_text)

    def config_snapshot(self) -> dict:
        """The parameters an index depends on, with list digests."""
        return {
            "k_char": self.config.k_char,
            "k_top": self.config.k_top,
            "stopwords_sha256": hashlib.sha256(
                "\n".join(sorted(self.stopwords)).encode("utf-8")
            ).hexdigest(),
            "phrases_sha256": hashlib.sha256(
                "\n".join(self.phrases).encode("utf-8")
            ).hexdigest(),
        }

    def analyze_pair(self, ref: Document, susp: Document) -> FeatureReport:
        """Score every enabled feature (plus statement) for one pair."""
        return self._score(self._reference(ref), self._suspect(susp))

    def _reference(self, doc: Document) -> Reference:
        """The document as a reference: its cue sentences are found once, for entry and lcs_f."""
        cues = cue_sentences(doc, self.phrases)
        return Reference(self.entry(doc, cues), doc, cues)

    def entry(self, doc: Document, cues: tuple[int, ...] | None = None) -> IndexEntry:
        """The persisted artifacts of one document.

        `cues`, when given, must be `cue_sentences(doc, self.phrases)`.
        """
        if cues is None:
            cues = cue_sentences(doc, self.phrases)
        grams, keys, keywords = self._artifacts(doc)
        return IndexEntry(
            doc_id=doc.id,
            fingerprints=tuple(sorted(keys)),
            keywords=tuple(sorted(keywords)),
            first_grams=tuple(sorted(sentence_grams(grams.sentences, first_sentence(doc)))),
            query_grams=tuple(sorted(sentence_grams(grams.sentences, cues))),
            token_digest=hashlib.sha256(
                "\x1f".join(t for s in doc.sentences for t in s.tokens).encode("utf-8")
            ).hexdigest(),
        )

    def _suspect(self, susp: Document) -> Suspect:
        """The suspect with its keys, keywords and gram set."""
        grams, keys, keywords = self._artifacts(susp)
        return Suspect(susp, keys, keywords, grams.gram_set())

    def _artifacts(self, doc: Document) -> tuple[GramMultiset, frozenset[str], frozenset[str]]:
        """The `k_char` grams, fingerprint keys and keywords; one gram pass if `k_char` is 4."""
        grams = document_grams(doc, STATEMENT_GRAM_LEN)
        keys = fingerprint_keys(doc, grams=grams)
        if self.config.k_char != STATEMENT_GRAM_LEN:
            del grams  # so that the 4-gram and k-gram lists are never held together
            grams = document_grams(doc, self.config.k_char)
        return grams, keys, top_keywords(doc, self.config.k_top, self.stopwords, self._stems)

    def _outcomes(
        self, ref: Reference, suspect: Suspect, gram_count: Callable[..., Counts] = overlap
    ) -> dict[str, Outcome]:
        """The value pass: statement's and every enabled feature's outcome.

        The token-stream features are not applicable to a reference without
        its document.  first_sentence and query_phrase share one rule: a
        Jaccard of the reference's key-sentence grams and the suspect's
        grams, counted by `gram_count` (`overlap_bound` gives its upper bound
        instead).  A reference without sentences is degenerate.  A non-empty
        reference whose cue-phrase sentences provide no grams (no hits at
        all, or hits too short for a gram) makes query_phrase not
        applicable, so the combiner drops it instead of counting a zero.
        """
        cfg = self.config
        entry, ref_doc, cues = ref
        susp, keys, keywords, grams = suspect
        ref_empty = entry.token_digest == _EMPTY_DIGEST
        ref_grams = {FIRST_SENTENCE: entry.first_grams, QUERY_PHRASE: entry.query_grams}
        outcomes = {STATEMENT: overlap(entry.fingerprints, keys)}
        for name in cfg.features:
            if name == TOP_KEYWORD:
                outcomes[name] = overlap(entry.keywords, keywords)
            elif name in ref_grams and ref_empty:
                outcomes[name] = DEGENERATE
            elif name == QUERY_PHRASE and not entry.query_grams:
                outcomes[name] = NOT_APPLICABLE
            elif name in ref_grams:
                outcomes[name] = gram_count(ref_grams[name], grams)
            elif name in INDEX_UNAVAILABLE and ref_doc is None:
                outcomes[name] = NOT_APPLICABLE
            elif name == LCS_F:
                outcomes[name] = lcs_similarity(ref_doc, susp, cfg.beta, cues)
            elif name == FULL_CHAR:
                outcomes[name] = full_resemblance(
                    char_kgrams(ref_doc.normalized_text, cfg.k_char),
                    char_kgrams(susp.normalized_text, cfg.k_char),
                )
            elif name == TRIGRAM:
                outcomes[name] = overlap(
                    word_trigrams(ref_doc.normalized_text), word_trigrams(susp.normalized_text)
                )
        return outcomes

    @staticmethod
    def _report(
        ref_id: str, susp_id: str, outcomes: Mapping[str, Outcome], combined: float
    ) -> FeatureReport:
        """The report builder: one score per outcome, no new intersections.

        The scores follow `ALL_FEATURES`, the order every report lists them in.
        """
        scores = {name: outcome_score(outcomes[name]) for name in ALL_FEATURES if name in outcomes}
        return FeatureReport(ref_id, susp_id, scores, combined)

    def _score(self, ref: Reference, suspect: Suspect) -> FeatureReport:
        """Score a `Reference` against a `_suspect`."""
        outcomes = self._outcomes(ref, suspect)
        combined = _combine(outcomes, self._weights)
        return self._report(ref.entry.doc_id, suspect.doc.id, outcomes, combined)

    def build_index(self, docs: Iterable[Document]) -> CorpusIndex:
        """One entry per document; duplicate ids are an error."""
        entries: dict[str, IndexEntry] = {}
        for doc in docs:
            if doc.id in entries:
                raise ValueError(f"duplicate document id: {doc.id!r}")
            entries[doc.id] = self.entry(doc)
        return CorpusIndex(config=self.config_snapshot(), entries=entries)

    def rank_candidates(
        self, susp: Document, index: CorpusIndex, top_n: int | None = None
    ) -> list[tuple[str, FeatureReport]]:
        """Indexed documents as references, best combined score first.

        Ties order by document id.  Features absent from the index are
        reported as skipped with a zero, not-applicable score.  Only the
        `top_n` best get a report, and entries whose bound cannot reach the
        n-th best score so far are not scored exactly (`_rank`); the list
        equals the full ranking cut to `top_n`.
        """
        self._check_config(index.config)
        return self._rank(susp, index.entries.values(), top_n)

    def scan_index(
        self, susp: Document, path: str | Path, top_n: int | None = None
    ) -> list[tuple[str, FeatureReport]]:
        """`rank_candidates(susp, load_index(path), top_n)`, one record held at a time.

        Each record is scored as it is read.  The config is checked after
        the last record, so a malformed record is reported before a mismatch.
        """
        with open(path, "rb") as fh:
            config = _read_header(fh)
            ranked = self._rank(susp, _records(fh, config.get("k_char")), top_n)
        self._check_config(config)
        return ranked

    def _check_config(self, config: Mapping[str, object]) -> None:
        """Raise IndexVersionError unless an index's config snapshot is this detector's."""
        snapshot = self.config_snapshot()
        # Compared as written, so a 4.0 or a true never stands in for a 4 or a 1.
        if dumps_record(dict(config)) != dumps_record(snapshot):
            raise IndexVersionError(
                f"index config {dict(config)!r} does not match detector config {snapshot!r}"
            )

    def _rank(
        self, susp: Document, entries: Iterable[IndexEntry], top_n: int | None
    ) -> list[tuple[str, FeatureReport]]:
        """The `top_n` best of `entries` by (-combined, doc_id), in one pass.

        An entry's bound is its combined score with each gram feature's
        intersection replaced by min(|A|, |B|); applicability is the same.
        IEEE division, multiplication and addition round monotonically, so
        the bound is >= the exact combined, as floats.  An entry whose bound
        falls strictly below the n-th best combined so far cannot reach or
        tie it, and that threshold never falls, so the entry is skipped
        unscored (the threshold test of Fagin, Lotem & Naor's algorithm).
        """
        if top_n is not None and (not _is_int(top_n) or top_n < 0):
            raise ValueError(f"top_n must be None or an int >= 0, got {top_n!r}")
        suspect = self._suspect(susp)
        weights = self._weights
        n = math.inf if top_n is None else top_n
        best: list[_Ranked] = []  # min-heap of the n best so far; the worst is best[0]
        for entry in entries:
            ref = Reference(entry)
            if len(best) == n and (
                n == 0
                or _combine(self._outcomes(ref, suspect, overlap_bound), weights)
                < best[0].combined
            ):
                continue
            outcomes = self._outcomes(ref, suspect)
            ranked = _Ranked(_combine(outcomes, weights), entry.doc_id, outcomes)
            if len(best) < n:
                heapq.heappush(best, ranked)
            else:
                heapq.heappushpop(best, ranked)
        best.sort(reverse=True)
        return [
            (doc_id, self._report(doc_id, susp.id, outcomes, combined))
            for combined, doc_id, outcomes in best
        ]


def dumps_record(record: dict) -> str:
    """One index line as `write_index` writes it, without the newline."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_index(
    path: str | Path, config: Mapping[str, object], entries: Iterable[IndexEntry]
) -> int:
    """Write an index of `entries`, taken one at a time; returns how many were written.

    The one index writer: `save_index` and `simscan index` write through it.
    The header and each record stream into a new file beside `path` that
    then replaces it in one step, so a failed write, or a failure in
    whatever yields `entries`, leaves any previous index intact.  Records
    are written in the order given, so each entry's id must sort strictly
    after the one before it; otherwise this raises ValueError.

    A link at `path` stays a link: the file it resolves to is replaced.
    An existing `path` that is not a regular file raises OSError before
    anything is written, since the replacing step would turn a FIFO, a
    device or a socket into a regular file, and cannot replace a directory.
    A `path` with a trailing slash names a directory, whether or not one is
    there, and raises IsADirectoryError too.
    """
    name, path = os.fspath(path), Path(os.path.realpath(path))  # realpath drops the slash
    mode = 0
    with contextlib.suppress(FileNotFoundError):
        mode = path.stat().st_mode
    if stat.S_ISDIR(mode) or name.endswith(("/", os.sep)):  # "", "." and "/" among them
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if mode and not stat.S_ISREG(mode):
        raise OSError(errno.EINVAL, "not a regular file", str(path))
    tmp = path.with_name(f"{path.name}.{os.urandom(16).hex()}.tmp")
    header = {"schema": INDEX_SCHEMA, "config": dict(config)}
    k = config["k_char"]
    count = 0
    last = None
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(dumps_record(header) + "\n")
            for entry in entries:
                if last is not None and not last < entry.doc_id:
                    raise ValueError(f"document id {entry.doc_id!r} does not sort after {last!r}")
                fh.write(dumps_record(entry.record(k)) + "\n")
                last = entry.doc_id
                count += 1
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return count


def save_index(index: CorpusIndex, path: str | Path) -> None:
    """Write the index through `write_index`, its entries in id order."""
    write_index(path, index.config, map(index.entries.__getitem__, sorted(index.entries)))


_LISTS = ("fingerprints", "keywords", "first_grams", "query_grams")


def _stored_strings(name: str, value: object, line: int) -> tuple[str, ...]:
    """A record's list as `write_index` writes it: strictly ascending strings.

    So it is sorted and distinct, and `Detector._score` can use it as stored.
    A JSON string orders only against a string, so one `<` pass from a
    string head checks both the items' type and their order.
    """
    if isinstance(value, list) and (not value or type(value[0]) is str):
        try:
            if all(map(lt, value, value[1:])):
                return tuple(value)
        except TypeError:
            pass
    if not isinstance(value, list) or not all(type(item) is str for item in value):
        raise IndexFormatError(f"{name} must be a list of strings", line)
    raise IndexFormatError(f"{name} must be sorted and distinct", line)


def _entry_from_record(record: dict, line: int, k_char: object) -> IndexEntry:
    try:
        doc_id = record["id"]
        scheme, k = record["scheme"], record["k"]
        lists = {name: record[name] for name in _LISTS}
        digest = record["token_digest"]
    except KeyError as exc:
        raise IndexFormatError(f"missing key {exc.args[0]!r}", line) from None
    if not isinstance(doc_id, str) or not isinstance(digest, str):
        raise IndexFormatError("id and token_digest must be strings", line)
    if scheme != STATEMENT:
        raise IndexFormatError(f"scheme must be {STATEMENT!r}, got {scheme!r}", line)
    if type(k) is not int or k != k_char:
        raise IndexFormatError(f"k must equal the header's k_char {k_char!r}", line)
    lists = {name: _stored_strings(name, value, line) for name, value in lists.items()}
    if not set(map(len, lists["fingerprints"])) <= {_KEY_LEN}:
        raise IndexFormatError(f"fingerprint keys must be {_KEY_LEN} characters long", line)
    if not _DIGEST_FORM.fullmatch(digest):
        raise IndexFormatError("token_digest must be 64 lowercase hex digits", line)
    return IndexEntry(doc_id=doc_id, token_digest=digest, **lists)


def _parse_line(raw: bytes, line: int) -> dict:
    """One index line as a JSON object; any malformed content names the line.

    ValueError covers invalid UTF-8, invalid JSON and over-long integers;
    RecursionError covers nesting too deep to parse.
    """
    try:
        record = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError:
        raise IndexFormatError("not valid UTF-8", line) from None
    except json.JSONDecodeError as exc:
        raise IndexFormatError(f"invalid JSON: {exc.msg}", line) from None
    except (ValueError, RecursionError) as exc:
        raise IndexFormatError(f"invalid JSON: {exc}", line) from None
    if not isinstance(record, dict):
        raise IndexFormatError("record must be an object", line)
    return record


def _read_header(fh) -> dict:
    """The header record's config; raises on a missing or unsupported header."""
    first = next(fh, None)
    if first is None:
        raise IndexFormatError("missing header record", 1)
    header = _parse_line(first, 1)
    if "schema" not in header:
        raise IndexFormatError("header must have a schema field", 1)
    if type(header["schema"]) is not int:
        raise IndexFormatError("header schema must be an integer", 1)
    if header["schema"] != INDEX_SCHEMA:
        raise IndexVersionError(f"index schema {header['schema']!r} != supported {INDEX_SCHEMA}")
    config = header.get("config")
    if not isinstance(config, dict):
        raise IndexFormatError("header config must be an object", 1)
    return config


def _records(fh, k_char: object) -> Iterator[IndexEntry]:
    """The entries of the records after the header, each checked as it is read.

    Ids must rise strictly, as `write_index` writes them, so checking one
    against the last also refuses a repeated id.
    """
    last: str | None = None
    for lineno, raw in enumerate(fh, start=2):
        entry = _entry_from_record(_parse_line(raw, lineno), lineno, k_char)
        if last is not None and not last < entry.doc_id:
            raise IndexFormatError(
                f"document id {entry.doc_id!r} does not sort after {last!r}", lineno
            )
        last = entry.doc_id
        yield entry


def load_index(path: str | Path) -> CorpusIndex:
    """Read an index line by line; raises IndexVersionError or IndexFormatError."""
    with open(path, "rb") as fh:
        config = _read_header(fh)
        entries = {entry.doc_id: entry for entry in _records(fh, config.get("k_char"))}
    return CorpusIndex(config=config, entries=entries)

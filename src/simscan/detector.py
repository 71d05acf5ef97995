"""Pair analysis, corpus indexing, and candidate ranking.

A Detector bundles a configuration with its loaded stopword and phrase
lists.  Every reference is scored through its IndexEntry, the derived
artifacts build_index persists (statement fingerprint keys, keywords,
first-sentence grams, cue-phrase grams, token digest): analyze_pair builds
the entry in memory, rank_candidates reads it from an index, and both
score it with the same value pass and report builder.

The index stores derived artifacts only, never raw text, so features
needing full token streams (lcs_f, full_char, trigram_jaccard) are skipped
during scans and the remaining weights renormalize.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
import os
import re
import uuid
from dataclasses import dataclass, field
from operator import itemgetter, lt
from pathlib import Path
from typing import Callable, Iterable, Mapping

from .features import (
    DEFAULT_GRAM_LEN,
    DEFAULT_K_TOP,
    check_beta,
    cue_sentences,
    first_sentence,
    gram_outcome,
    lcs_similarity,
    load_query_phrases,
    sentence_grams,
    top_keywords,
)
from .fingerprint import (
    ALL_FEATURES,
    DEFAULT_FEATURES,
    FIRST_SENTENCE,
    FULL_CHAR,
    LCS_F,
    NOT_APPLICABLE,
    QUERY_PHRASE,
    STATEMENT,
    STATEMENT_GRAM_LEN,
    TOP_KEYWORD,
    TRIGRAM,
    Counts,
    Outcome,
    ResemblanceScore,
    char_kgrams,
    fingerprint_keys,
    full_resemblance,
    outcome_score,
    outcome_value,
    overlap,
    overlap_bound,
    word_trigrams,
)
# Not called here; bound so that the benchmark's tracer can wrap these names.
from .features import (  # noqa: F401
    first_sentence_similarity,
    query_phrase_similarity,
    top_keyword_similarity,
)
from .fingerprint import statement_resemblance  # noqa: F401
from .textprep import Document, Preprocessor, load_stopwords

# Features that need raw token streams and so cannot be scored from an index.
INDEX_UNAVAILABLE = frozenset({LCS_F, FULL_CHAR, TRIGRAM})

INDEX_SCHEMA = 1

_EMPTY_DIGEST = hashlib.sha256(b"").hexdigest()


class IndexVersionError(Exception):
    """Index schema or config snapshot incompatible with this detector."""


class IndexFormatError(Exception):
    """Malformed index content; `line` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class DetectorConfig:
    """Tunable parameters shared by comparison, indexing, and scanning."""

    k_char: int = DEFAULT_GRAM_LEN
    k_top: int = DEFAULT_K_TOP
    beta: float | str = 1.0
    features: tuple[str, ...] = DEFAULT_FEATURES
    feature_weights: Mapping[str, float] = field(default_factory=dict)
    stopword_path: str | None = None
    phrase_path: str | None = None

    def __post_init__(self):
        if self.k_char < 1:
            raise ValueError(f"k_char must be >= 1, got {self.k_char}")
        if self.k_top < 1:
            raise ValueError(f"k_top must be >= 1, got {self.k_top}")
        check_beta(self.beta)
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
            if not math.isfinite(weight):
                raise ValueError(f"weight for {name} must be finite, got {weight}")
            if weight < 0:
                raise ValueError(f"negative weight for {name}: {weight}")
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
    """A configuration bound to its stopword and cue-phrase lists."""

    def __init__(self, config: DetectorConfig | None = None):
        self.config = config or DetectorConfig()
        self.stopwords = load_stopwords(self.config.stopword_path)
        self.phrases = load_query_phrases(self.config.phrase_path)
        self._prep = Preprocessor(self.stopwords)

    def document(self, doc_id: str, raw_text: str) -> Document:
        return self._prep.document(doc_id, raw_text)

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
        return self._score(self.entry(ref), susp, self._suspect(susp), ref)

    def entry(self, doc: Document) -> IndexEntry:
        """The persisted artifacts of one document."""
        cfg = self.config
        return IndexEntry(
            doc_id=doc.id,
            fingerprints=tuple(sorted(fingerprint_keys(doc))),
            keywords=tuple(sorted(top_keywords(doc, cfg.k_top).terms)),
            first_grams=tuple(sorted(sentence_grams(doc, first_sentence(doc), cfg.k_char))),
            query_grams=tuple(
                sorted(sentence_grams(doc, cue_sentences(doc, self.phrases), cfg.k_char))
            ),
            token_digest=hashlib.sha256(
                "\x1f".join(t for s in doc.sentences for t in s.tokens).encode("utf-8")
            ).hexdigest(),
        )

    def _suspect(self, susp: Document) -> tuple[frozenset[str], ...]:
        """The suspect's fingerprint keys, keywords and full-text gram set.

        The text's 4-grams are counted once, for the fingerprints and, when
        `k_char` is 4, for the gram set too.
        """
        cfg = self.config
        counts = char_kgrams(susp.normalized_text, STATEMENT_GRAM_LEN).counts
        if cfg.k_char != STATEMENT_GRAM_LEN:
            grams = char_kgrams(susp.normalized_text, cfg.k_char).counts
        else:
            grams = counts
        return (
            fingerprint_keys(susp, counts=counts),
            top_keywords(susp, cfg.k_top).terms,
            frozenset(grams),
        )

    def _weights(self) -> tuple[tuple[str, float], ...]:
        """Each enabled feature with its weight, in `features` order."""
        return tuple((name, self.config.weight(name)) for name in self.config.features)

    def _outcomes(
        self,
        entry: IndexEntry,
        suspect: tuple[frozenset[str], ...],
        susp: Document | None = None,
        ref: Document | None = None,
        gram_count: Callable[..., Counts] = overlap,
    ) -> dict[str, Outcome]:
        """The value pass: statement's and every enabled feature's outcome.

        The token-stream features need both documents; without `ref` they
        are not applicable.  `gram_count` counts the key-sentence gram
        features (`overlap_bound` gives their upper bounds instead).
        """
        cfg = self.config
        keys, keywords, grams = suspect
        ref_empty = entry.token_digest == _EMPTY_DIGEST
        ref_grams = {FIRST_SENTENCE: entry.first_grams, QUERY_PHRASE: entry.query_grams}
        outcomes = {STATEMENT: overlap(entry.fingerprints, keys)}
        for name in cfg.features:
            if name == TOP_KEYWORD:
                outcomes[name] = overlap(entry.keywords, keywords)
            elif name in ref_grams:
                outcomes[name] = gram_outcome(name, ref_grams[name], grams, ref_empty, gram_count)
            elif name in INDEX_UNAVAILABLE and ref is None:
                outcomes[name] = NOT_APPLICABLE
            elif name == LCS_F:
                outcomes[name] = lcs_similarity(ref, susp, cfg.beta, self.phrases)
            elif name == FULL_CHAR:
                outcomes[name] = full_resemblance(
                    char_kgrams(ref.normalized_text, cfg.k_char),
                    char_kgrams(susp.normalized_text, cfg.k_char),
                )
            elif name == TRIGRAM:
                outcomes[name] = overlap(
                    word_trigrams(ref.normalized_text), word_trigrams(susp.normalized_text)
                )
        return outcomes

    @staticmethod
    def _report(
        ref_id: str, susp_id: str, outcomes: Mapping[str, Outcome], combined: float
    ) -> FeatureReport:
        """The report builder: one score per outcome, no new intersections."""
        scores = {name: outcome_score(name, outcome) for name, outcome in outcomes.items()}
        return FeatureReport(ref_id, susp_id, scores, combined)

    def _score(
        self,
        entry: IndexEntry,
        susp: Document,
        suspect: tuple[frozenset[str], ...],
        ref: Document | None = None,
    ) -> FeatureReport:
        """Score a reference entry against a suspect and its `_suspect` sets."""
        outcomes = self._outcomes(entry, suspect, susp, ref)
        return self._report(
            entry.doc_id, susp.id, outcomes, _combine(outcomes, self._weights())
        )

    def index_from_entries(self, entries: Iterable[IndexEntry]) -> CorpusIndex:
        """Assemble an index from precomputed entries."""
        keyed: dict[str, IndexEntry] = {}
        for entry in entries:
            if entry.doc_id in keyed:
                raise ValueError(f"duplicate document id: {entry.doc_id!r}")
            keyed[entry.doc_id] = entry
        return CorpusIndex(config=self.config_snapshot(), entries=keyed)

    def build_index(self, docs: Iterable[Document]) -> CorpusIndex:
        """One entry per document; duplicate ids are an error."""
        return self.index_from_entries(self.entry(doc) for doc in docs)

    def rank_candidates(
        self, susp: Document, index: CorpusIndex, top_n: int | None = None
    ) -> list[tuple[str, FeatureReport]]:
        """Indexed documents as references, best combined score first.

        Ties order by document id.  Features absent from the index are
        reported as skipped with a zero, not-applicable score.  Every entry
        gets a combined score (or a bound on it), but only the `top_n` best
        get a report, and gram intersections that cannot reach the n-th
        score are skipped; the list equals the full ranking cut to `top_n`.
        """
        snapshot = self.config_snapshot()
        if dict(index.config) != snapshot:
            raise IndexVersionError(
                f"index config {dict(index.config)!r} does not match "
                f"detector config {snapshot!r}"
            )
        if top_n is not None and top_n < 0:
            raise ValueError(f"top_n must be >= 0, got {top_n}")
        suspect = self._suspect(susp)
        weights = self._weights()
        n = len(index.entries) if top_n is None else top_n
        # An entry's bound is its combined score with each gram feature's
        # intersection replaced by min(|A|, |B|); applicability is the same.
        # IEEE division, multiplication and addition round monotonically, so
        # the bound is >= the exact combined, as floats.  Entries are scored
        # in descending bound order (Fagin, Lotem & Naor's threshold
        # algorithm) until a bound falls strictly below the n-th best
        # combined so far: no later entry can reach or tie it.
        bounds = sorted(
            (-_combine(self._outcomes(entry, suspect, gram_count=overlap_bound), weights), doc_id)
            for doc_id, entry in index.entries.items()
        )
        best: list[float] = []  # min-heap of the n best combined scores so far
        scored = []
        for neg_bound, doc_id in bounds:
            if len(best) == n and (n == 0 or -neg_bound < best[0]):
                break
            outcomes = self._outcomes(index.entries[doc_id], suspect)
            combined = _combine(outcomes, weights)
            scored.append((-combined, doc_id, outcomes))
            if len(best) < n:
                heapq.heappush(best, combined)
            else:
                heapq.heappushpop(best, combined)
        scored.sort(key=itemgetter(0, 1))
        return [
            (doc_id, self._report(doc_id, susp.id, outcomes, -neg_combined))
            for neg_combined, doc_id, outcomes in scored[:n]
        ]


def dumps_record(record: dict) -> str:
    """One index line as `save_index` writes it, without the newline."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def save_index(index: CorpusIndex, path: str | Path) -> None:
    """Write the index as line-delimited JSON with a header record.

    The records stream into a new file beside `path` that then replaces it
    in one step, so a failed write leaves any previous index intact.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    header = {"schema": INDEX_SCHEMA, "config": dict(index.config)}
    k = index.config["k_char"]
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(dumps_record(header) + "\n")
            for doc_id in sorted(index.entries):
                fh.write(dumps_record(index.entries[doc_id].record(k)) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_LISTS = ("fingerprints", "keywords", "first_grams", "query_grams")


def _stored_strings(name: str, value: object, line: int) -> tuple[str, ...]:
    """A record's list as `save_index` writes it: strictly ascending strings.

    So it is sorted and distinct, and `Detector._score` can use it as stored.
    """
    if not isinstance(value, list):
        raise IndexFormatError(f"{name} must be a list of strings", line)
    try:
        "".join(value)  # raises TypeError unless every item is a string
    except TypeError:
        raise IndexFormatError(f"{name} must be a list of strings", line) from None
    if not all(map(lt, value, value[1:])):
        raise IndexFormatError(f"{name} must be sorted and distinct", line)
    return tuple(value)


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


def load_index(path: str | Path) -> CorpusIndex:
    """Read an index line by line; raises IndexVersionError or IndexFormatError."""
    with open(path, "rb") as fh:
        first = next(fh, None)
        if first is None:
            raise IndexFormatError("missing header record", 1)
        header = _parse_line(first, 1)
        if "schema" not in header:
            raise IndexFormatError("header must have a schema field", 1)
        if type(header["schema"]) is not int:
            raise IndexFormatError("header schema must be an integer", 1)
        if header["schema"] != INDEX_SCHEMA:
            raise IndexVersionError(
                f"index schema {header['schema']!r} != supported {INDEX_SCHEMA}"
            )
        config = header.get("config")
        if not isinstance(config, dict):
            raise IndexFormatError("header config must be an object", 1)
        k_char = config.get("k_char")
        entries: dict[str, IndexEntry] = {}
        for lineno, raw in enumerate(fh, start=2):
            entry = _entry_from_record(_parse_line(raw, lineno), lineno, k_char)
            if entry.doc_id in entries:
                raise IndexFormatError(f"duplicate document id {entry.doc_id!r}", lineno)
            entries[entry.doc_id] = entry
    return CorpusIndex(config=config, entries=entries)


def report_dict(report: FeatureReport) -> dict:
    """A JSON-ready view of a report with a stable key layout."""
    ordered = [name for name in ALL_FEATURES if name in report.scores]
    scores = {}
    for name in ordered:
        score = report.scores[name]
        scores[name] = {
            "value": score.value,
            "detail": dict(score.detail),
            "flags": list(score.flags),
        }
    return {
        "ref_id": report.ref_id,
        "susp_id": report.susp_id,
        "scores": scores,
        "skipped": sorted(report.skipped),
        "combined": report.combined,
    }


_FLOAT_TAG = uuid.uuid4().hex


def _tag_floats(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return f"@{_FLOAT_TAG}:{obj:.12f}@"
    if isinstance(obj, dict):
        return {key: _tag_floats(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tag_floats(item) for item in obj]
    return obj


def dumps_fixed(obj, indent: int | None = None) -> str:
    """json.dumps with every float rendered as 12 fractional digits.

    Fixed-point rendering keeps report bytes identical across platforms
    regardless of repr shortest-float behavior.
    """
    tagged = json.dumps(_tag_floats(obj), indent=indent)
    return re.sub(f'"@{_FLOAT_TAG}:(-?\\d+\\.\\d{{12}})@"', r"\1", tagged)

"""Pair analysis, corpus indexing, and candidate ranking.

A Detector bundles a configuration with its loaded stopword and phrase
lists.  Every reference is scored through its IndexEntry, the derived
artifacts build_index persists (statement fingerprint keys, keywords,
first-sentence grams, cue-phrase grams, token digest): analyze_pair builds
the entry in memory, rank_candidates reads it from an index, and both
score it with the same function.

The index stores derived artifacts only, never raw text, so features
needing full token streams (lcs_f, full_char, trigram_jaccard) are skipped
during scans and the remaining weights renormalize.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .features import (
    DEFAULT_GRAM_LEN,
    DEFAULT_K_TOP,
    first_sentence_grams,
    lcs_similarity,
    load_query_phrases,
    query_phrase_grams,
    top_keywords,
)
from .fingerprint import (
    FIRST_SENTENCE,
    FULL_CHAR,
    LCS_F,
    QUERY_PHRASE,
    STATEMENT,
    TOP_KEYWORD,
    TRIGRAM,
    ResemblanceScore,
    char_kgrams,
    fingerprint_keys,
    full_resemblance,
    jaccard,
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

# Features combined by default; the two whole-document schemes can be
# enabled on top for pair comparisons.
DEFAULT_FEATURES = (STATEMENT, TOP_KEYWORD, FIRST_SENTENCE, QUERY_PHRASE, LCS_F)
EXTRA_FEATURES = (FULL_CHAR, TRIGRAM)
ALL_FEATURES = DEFAULT_FEATURES + EXTRA_FEATURES

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
    beta_mode: str = "fixed"
    beta: float = 1.0
    features: tuple[str, ...] = DEFAULT_FEATURES
    feature_weights: Mapping[str, float] = field(default_factory=dict)
    stopword_path: str | None = None
    phrase_path: str | None = None

    def __post_init__(self):
        if self.k_char < 1:
            raise ValueError(f"k_char must be >= 1, got {self.k_char}")
        if self.k_top < 1:
            raise ValueError(f"k_top must be >= 1, got {self.k_top}")
        if self.beta_mode not in ("fixed", "paper"):
            raise ValueError(f"unknown beta_mode: {self.beta_mode!r}")
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta}")
        if self.beta_mode == "fixed" and self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
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
    skipped: frozenset[str]
    combined: float

    def __post_init__(self):
        if not 0.0 <= self.combined <= 1.0:
            raise ValueError(f"combined out of range: {self.combined!r}")


@dataclass(frozen=True)
class IndexEntry:
    """Derived artifacts of one document: what every pair is scored from."""

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
    schema: int = INDEX_SCHEMA


def _combine(
    scores: Mapping[str, ResemblanceScore],
    skipped: frozenset[str],
    cfg: DetectorConfig,
) -> float:
    """Weighted mean over enabled, applicable features; 0 if none remain."""
    num = 0.0
    den = 0.0
    for name in cfg.features:
        if name in skipped:
            continue
        num += cfg.weight(name) * scores[name].value
        den += cfg.weight(name)
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
            first_grams=tuple(sorted(first_sentence_grams(doc, cfg.k_char))),
            query_grams=tuple(sorted(query_phrase_grams(doc, cfg.k_char, self.phrases))),
            token_digest=hashlib.sha256(
                "\x1f".join(doc.tokens).encode("utf-8")
            ).hexdigest(),
        )

    def _suspect(self, susp: Document) -> tuple[frozenset[str], ...]:
        """The suspect's fingerprint keys, keywords and full-text gram set."""
        return (
            fingerprint_keys(susp),
            top_keywords(susp, self.config.k_top).terms,
            char_kgrams(susp.normalized_text, self.config.k_char).gram_set(),
        )

    def _score(
        self,
        entry: IndexEntry,
        susp: Document,
        suspect: tuple[frozenset[str], ...],
        ref: Document | None = None,
    ) -> FeatureReport:
        """Score a reference entry against a suspect and its `_suspect` sets.

        The token-stream features need the reference document itself; without
        `ref` they are not applicable.
        """
        cfg = self.config
        keys, keywords, grams = suspect
        ref_empty = entry.token_digest == _EMPTY_DIGEST
        scores = {STATEMENT: jaccard(frozenset(entry.fingerprints), keys, STATEMENT)}
        for name in cfg.features:
            if name == TOP_KEYWORD:
                scores[name] = jaccard(frozenset(entry.keywords), keywords, name)
            elif name in (FIRST_SENTENCE, QUERY_PHRASE) and ref_empty:
                scores[name] = ResemblanceScore(0.0, name, degenerate=True)
            elif name == FIRST_SENTENCE:
                scores[name] = jaccard(frozenset(entry.first_grams), grams, name)
            elif name == QUERY_PHRASE and not entry.query_grams:
                scores[name] = ResemblanceScore(0.0, name, not_applicable=True)
            elif name == QUERY_PHRASE:
                scores[name] = jaccard(frozenset(entry.query_grams), grams, name)
            elif name in INDEX_UNAVAILABLE and ref is None:
                scores[name] = ResemblanceScore(0.0, name, not_applicable=True)
            elif name == LCS_F:
                scores[name] = lcs_similarity(
                    ref, susp, cfg.beta_mode, cfg.beta, self.phrases
                )
            elif name == FULL_CHAR:
                scores[name] = full_resemblance(
                    char_kgrams(ref.normalized_text, cfg.k_char),
                    char_kgrams(susp.normalized_text, cfg.k_char),
                )
            elif name == TRIGRAM:
                scores[name] = jaccard(
                    word_trigrams(ref.normalized_text),
                    word_trigrams(susp.normalized_text),
                )
        skipped = frozenset(
            name for name, score in scores.items() if score.not_applicable
        )
        combined = _combine(scores, skipped, cfg)
        return FeatureReport(entry.doc_id, susp.id, scores, skipped, combined)

    def index_from_entries(self, entries: Iterable[IndexEntry]) -> CorpusIndex:
        """Assemble an index from precomputed entries (worker-pool path)."""
        keyed: dict[str, IndexEntry] = {}
        for entry in entries:
            if entry.doc_id in keyed:
                raise ValueError(f"duplicate document id: {entry.doc_id!r}")
            keyed[entry.doc_id] = entry
        return CorpusIndex(config=self.config_snapshot(), entries=keyed)

    def build_index(self, docs: Iterable[Document]) -> CorpusIndex:
        """One entry per document; duplicate ids are an error."""
        return self.index_from_entries(self.entry(doc) for doc in docs)

    def _check_snapshot(self, index: CorpusIndex):
        if index.schema != INDEX_SCHEMA:
            raise IndexVersionError(
                f"index schema {index.schema} != supported {INDEX_SCHEMA}"
            )
        snapshot = self.config_snapshot()
        if dict(index.config) != snapshot:
            raise IndexVersionError(
                f"index config {dict(index.config)!r} does not match "
                f"detector config {snapshot!r}"
            )

    def rank_candidates(
        self, susp: Document, index: CorpusIndex, top_n: int | None = None
    ) -> list[tuple[str, FeatureReport]]:
        """Indexed documents as references, best combined score first.

        Ties order by document id.  Features absent from the index are
        reported as skipped with a zero, not-applicable score.
        """
        self._check_snapshot(index)
        if top_n is not None and top_n < 0:
            raise ValueError(f"top_n must be >= 0, got {top_n}")
        suspect = self._suspect(susp)
        results = [
            (doc_id, self._score(entry, susp, suspect))
            for doc_id, entry in index.entries.items()
        ]
        results.sort(key=lambda item: (-item[1].combined, item[0]))
        if top_n is not None:
            results = results[:top_n]
        return results


def analyze_pair(
    ref: Document, susp: Document, cfg: DetectorConfig | None = None
) -> FeatureReport:
    return Detector(cfg).analyze_pair(ref, susp)


def build_index(
    docs: Iterable[Document], cfg: DetectorConfig | None = None
) -> CorpusIndex:
    return Detector(cfg).build_index(docs)


def rank_candidates(
    susp: Document,
    index: CorpusIndex,
    cfg: DetectorConfig | None = None,
    top_n: int | None = None,
) -> list[tuple[str, FeatureReport]]:
    return Detector(cfg).rank_candidates(susp, index, top_n)


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def save_index(index: CorpusIndex, path: str | Path) -> None:
    """Write the index as line-delimited JSON with a header record.

    The records stream into a new file beside `path` that then replaces it
    in one step, so a failed write leaves any previous index intact.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{uuid.uuid4().hex}.tmp")
    k = int(index.config.get("k_char", DEFAULT_GRAM_LEN))
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            fh.write(_json_line({"schema": index.schema, "config": dict(index.config)}))
            for doc_id in sorted(index.entries):
                fh.write(_json_line(index.entries[doc_id].record(k)))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _entry_from_record(record: dict, line: int) -> IndexEntry:
    try:
        doc_id = record["id"]
        fields = {
            "fingerprints": record["fingerprints"],
            "keywords": record["keywords"],
            "first_grams": record["first_grams"],
            "query_grams": record["query_grams"],
        }
        digest = record["token_digest"]
    except KeyError as exc:
        raise IndexFormatError(f"missing key {exc.args[0]!r}", line) from None
    if not isinstance(doc_id, str) or not isinstance(digest, str):
        raise IndexFormatError("id and token_digest must be strings", line)
    lists: dict[str, tuple[str, ...]] = {}
    for name, value in fields.items():
        if not isinstance(value, list) or any(
            not isinstance(item, str) for item in value
        ):
            raise IndexFormatError(f"{name} must be a list of strings", line)
        lists[name] = tuple(value)
    return IndexEntry(doc_id=doc_id, token_digest=digest, **lists)


def load_index(path: str | Path) -> CorpusIndex:
    """Read an index; raises IndexVersionError or IndexFormatError."""
    data = Path(path).read_bytes()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise IndexFormatError("not valid UTF-8", line) from None
    if not lines:
        raise IndexFormatError("missing header record", 1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise IndexFormatError(f"invalid JSON: {exc.msg}", 1) from None
    if not isinstance(header, dict) or "schema" not in header:
        raise IndexFormatError("header must be an object with a schema field", 1)
    if header["schema"] != INDEX_SCHEMA:
        raise IndexVersionError(
            f"index schema {header['schema']!r} != supported {INDEX_SCHEMA}"
        )
    config = header.get("config")
    if not isinstance(config, dict):
        raise IndexFormatError("header config must be an object", 1)
    entries: dict[str, IndexEntry] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise IndexFormatError(f"invalid JSON: {exc.msg}", lineno) from None
        if not isinstance(record, dict):
            raise IndexFormatError("record must be an object", lineno)
        entry = _entry_from_record(record, lineno)
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

"""Micro-benchmark comparing time and storage of the schemes.

For each scheme the per-document artifacts are built up front, every
ordered document pair is compared, and two numbers come out: wall seconds
per pair and stored bytes per document.  Storage is counted as:

* full_char: k bytes for each of the L-k+1 grams, multiplicity included,
* trigram_jaccard: UTF-8 bytes of the distinct trigrams,
* statement: 12 bytes (three 4-grams) per fingerprinted sentence,
* features: UTF-8 bytes of the serialized index record.

The features scheme scores with `Detector._score`, as `compare` does;
`scan` ranks with the same value pass and report builder.

Measurement only; nothing here passes or fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .detector import Detector, dumps_record
from .fingerprint import (
    FULL_CHAR,
    STATEMENT,
    TRIGRAM,
    char_kgrams,
    full_resemblance,
    jaccard,
    word_trigrams,
)
from .textprep import Document

FEATURES_SCHEME = "features"

SCHEMES = (FULL_CHAR, TRIGRAM, STATEMENT, FEATURES_SCHEME)


@dataclass(frozen=True)
class BenchRow:
    scheme: str
    docs: int
    pairs: int
    seconds_per_pair: float
    bytes_per_doc: float


def _timed_pairs(artifacts: list, compare: Callable) -> tuple[int, float]:
    pairs = 0
    start = time.perf_counter()
    for i, a in enumerate(artifacts):
        for j, b in enumerate(artifacts):
            if i == j:
                continue
            compare(a, b)
            pairs += 1
    return pairs, time.perf_counter() - start


def _row(scheme: str, docs: int, artifacts: list, compare, total_bytes: int) -> BenchRow:
    pairs, elapsed = _timed_pairs(artifacts, compare)
    return BenchRow(
        scheme=scheme,
        docs=docs,
        pairs=pairs,
        seconds_per_pair=elapsed / pairs if pairs else 0.0,
        bytes_per_doc=total_bytes / docs if docs else 0.0,
    )


def run_bench(docs: Sequence[Document], detector: Detector | None = None) -> list[BenchRow]:
    """One row per scheme; empty corpus yields an empty table."""
    if not docs:
        return []
    detector = detector or Detector()
    k = detector.config.k_char
    n = len(docs)
    rows = []

    multisets = [char_kgrams(d.normalized_text, k) for d in docs]
    full_bytes = sum(k * m.total for m in multisets)
    rows.append(_row(FULL_CHAR, n, multisets, full_resemblance, full_bytes))

    trigrams = [word_trigrams(d.normalized_text) for d in docs]
    tri_bytes = sum(len(g.encode("utf-8")) for t in trigrams for g in t)
    rows.append(
        _row(TRIGRAM, n, trigrams, lambda a, b: jaccard(a, b, TRIGRAM), tri_bytes)
    )

    entries = [detector.entry(d) for d in docs]
    profiles = [(e, d, detector._suspect(d)) for e, d in zip(entries, docs)]

    # `_suspect` already holds each document's statement fingerprint keys.
    keys = [suspect[0] for _, _, suspect in profiles]
    key_bytes = sum(len(key.encode("utf-8")) for ks in keys for key in ks)
    rows.append(
        _row(STATEMENT, n, keys, lambda a, b: jaccard(a, b, STATEMENT), key_bytes)
    )

    entry_bytes = sum(len(dumps_record(e.record(k)).encode("utf-8")) for e in entries)

    def score_pair(ref, susp):
        (entry, ref_doc, _), (_, susp_doc, suspect) = ref, susp
        return detector._score(entry, susp_doc, suspect, ref_doc)

    rows.append(_row(FEATURES_SCHEME, n, profiles, score_pair, entry_bytes))
    return rows


def format_table(rows: Sequence[BenchRow]) -> str:
    """Fixed-width text table of benchmark rows."""
    header = f"{'scheme':<16} {'docs':>5} {'pairs':>6} {'s/pair':>12} {'bytes/doc':>12}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.scheme:<16} {row.docs:>5} {row.pairs:>6} "
            f"{row.seconds_per_pair:>12.6f} {row.bytes_per_doc:>12.1f}"
        )
    return "\n".join(lines)

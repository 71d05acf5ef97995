"""Micro-benchmark comparing time and storage of the schemes.

For each scheme the per-document artifacts are built up front, every
ordered document pair is compared, and two numbers come out: wall seconds
per pair and stored bytes per document.  Storage is counted as:

* full_char: k bytes for each of the L-k+1 grams, multiplicity included,
* trigram_jaccard: UTF-8 bytes of the distinct trigrams,
* statement: UTF-8 bytes of the document's distinct fingerprint keys,
  so sentences that share a key store it once,
* features: UTF-8 bytes of the serialized index record.

The features scheme builds each document's reference and suspect as
`compare` does and scores them with `Detector._score`; `scan` ranks with
the same value pass and report builder.

Measurement only; nothing here passes or fails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

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


def _row(scheme: str, docs: int, artifacts: list, compare, total_bytes: int) -> BenchRow:
    """Time `compare(a, b)` over every ordered pair of distinct artifacts."""
    pairs = 0
    start = time.perf_counter()
    for a, b in permutations(artifacts, 2):
        compare(a, b)
        pairs += 1
    elapsed = time.perf_counter() - start
    return BenchRow(
        scheme=scheme,
        docs=docs,
        pairs=pairs,
        seconds_per_pair=elapsed / pairs if pairs else 0.0,
        bytes_per_doc=total_bytes / docs if docs else 0.0,
    )


def run_bench(docs: Sequence[Document], detector: Detector) -> list[BenchRow]:
    """One row per scheme; empty corpus yields an empty table."""
    if not docs:
        return []
    k = detector.config.k_char
    n = len(docs)
    rows = []

    multisets = [char_kgrams(d.normalized_text, k) for d in docs]
    full_bytes = sum(k * m.total for m in multisets)
    rows.append(_row(FULL_CHAR, n, multisets, full_resemblance, full_bytes))

    trigrams = [word_trigrams(d.normalized_text) for d in docs]
    tri_bytes = sum(len(g.encode("utf-8")) for t in trigrams for g in t)
    rows.append(_row(TRIGRAM, n, trigrams, jaccard, tri_bytes))

    # Each document as a reference and as a suspect, built as `compare` builds them.
    profiles = [(detector._reference(doc), detector._suspect(doc)) for doc in docs]

    # `_suspect` already holds each document's statement fingerprint keys.
    keys = [suspect.keys for _, suspect in profiles]
    key_bytes = sum(len(key.encode("utf-8")) for ks in keys for key in ks)
    rows.append(_row(STATEMENT, n, keys, jaccard, key_bytes))

    entry_bytes = sum(len(dumps_record(r.entry.record(k)).encode("utf-8")) for r, _ in profiles)
    rows.append(
        _row(FEATURES_SCHEME, n, profiles, lambda a, b: detector._score(a[0], b[1]), entry_bytes)
    )
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

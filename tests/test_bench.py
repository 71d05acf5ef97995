"""The scheme micro-benchmark."""

import simscan.bench
from simscan.bench import FEATURES_SCHEME, SCHEMES, run_bench
from simscan.detector import Detector, save_index


TEXTS = (
    "We conclude that players kick balls. Another sentence about games.",
    "The quick brown fox jumps over the lazy dog.",
    "In conclusion, the keeper saved the penalty kick.",
    "",
)


def test_run_bench_scores_the_reference_and_suspect_that_compare_builds(monkeypatch):
    det = Detector()
    texts = TEXTS + ("Caf\u00e9 na\u00efve r\u00e9sum\u00e9. In conclusion, \u00fcber stra\u00dfe.",)
    docs = [det.document(f"d{i}", text) for i, text in enumerate(texts)]
    scored = {}
    original = simscan.bench._row

    def recorded(scheme, n, artifacts, *args):
        scored[scheme] = artifacts
        return original(scheme, n, artifacts, *args)

    monkeypatch.setattr(simscan.bench, "_row", recorded)
    rows = run_bench(docs, det)
    assert [row.scheme for row in rows] == list(SCHEMES)
    assert all(row.pairs == len(docs) * (len(docs) - 1) for row in rows)
    assert scored[FEATURES_SCHEME] == [(det._reference(doc), det._suspect(doc)) for doc in docs]


def test_features_bytes_per_doc_is_the_mean_index_record_length(tmp_path):
    det = Detector()
    texts = TEXTS + ("Caf\u00e9 na\u00efve r\u00e9sum\u00e9.",)
    docs = [det.document(f"d{i}", text) for i, text in enumerate(texts)]
    row = next(row for row in run_bench(docs, det) if row.scheme == FEATURES_SCHEME)
    path = tmp_path / "index.jsonl"
    save_index(det.build_index(docs), path)
    records = path.read_bytes().splitlines()[1:]
    assert len(records) == len(docs)
    assert row.bytes_per_doc == sum(map(len, records)) / len(records)

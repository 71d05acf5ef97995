"""The scheme micro-benchmark."""

from simscan.bench import SCHEMES, run_bench
from simscan.detector import Detector


def test_run_bench_builds_each_document_once(monkeypatch):
    det = Detector()
    texts = (
        "We conclude that players kick balls. Another sentence about games.",
        "The quick brown fox jumps over the lazy dog.",
        "In conclusion, the keeper saved the penalty kick.",
        "",
    )
    docs = [det.document(f"d{i}", text) for i, text in enumerate(texts)]
    calls = {"entry": [], "_suspect": []}
    for name, ids in calls.items():
        original = getattr(Detector, name)

        def counted(self, doc, original=original, ids=ids):
            ids.append(doc.id)
            return original(self, doc)

        monkeypatch.setattr(Detector, name, counted)
    rows = run_bench(docs, det)
    assert [row.scheme for row in rows] == list(SCHEMES)
    assert all(row.pairs == len(docs) * (len(docs) - 1) for row in rows)
    for ids in calls.values():
        assert sorted(ids) == [doc.id for doc in docs]

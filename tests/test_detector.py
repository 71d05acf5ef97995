"""Pair reports, score combination, index persistence, and ranking."""

import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from simscan.detector import (
    ALL_FEATURES,
    DEFAULT_FEATURES,
    Detector,
    DetectorConfig,
    IndexFormatError,
    IndexVersionError,
    dumps_fixed,
    load_index,
    report_dict,
    save_index,
)

INDEX_AVAILABLE = ("statement", "top_keyword", "first_sentence", "query_phrase")

CORPUS = {
    "a": "the quick brown fox jumps over the lazy dog.",
    "b": "We conclude that players kick balls. Another sentence about games here.",
    "c": "zulu xray victor whisky quebec papa.",
}


@pytest.fixture()
def corpus_docs(detector):
    return [detector.document(doc_id, text) for doc_id, text in sorted(CORPUS.items())]


def test_config_defaults_and_validation():
    cfg = DetectorConfig()
    assert cfg.k_char == 4 and cfg.k_top == 10
    assert cfg.features == DEFAULT_FEATURES
    with pytest.raises(ValueError):
        DetectorConfig(k_char=0)
    with pytest.raises(ValueError):
        DetectorConfig(k_top=0)
    with pytest.raises(ValueError):
        DetectorConfig(beta_mode="wild")
    with pytest.raises(ValueError):
        DetectorConfig(beta=-2.0)
    with pytest.raises(ValueError):
        DetectorConfig(features=())
    with pytest.raises(ValueError):
        DetectorConfig(features=("nope",))
    with pytest.raises(ValueError):
        DetectorConfig(features=("lcs_f", "lcs_f"))
    with pytest.raises(ValueError):
        DetectorConfig(feature_weights={"nope": 1.0})
    with pytest.raises(ValueError):
        DetectorConfig(feature_weights={"lcs_f": -1.0})
    with pytest.raises(ValueError):
        DetectorConfig(
            features=("lcs_f", "statement"),
            feature_weights={"lcs_f": 0.0, "statement": 0.0},
        )
    for non_finite in (
        {"beta": float("nan")},
        {"beta": float("inf")},
        {"feature_weights": {"statement": float("nan")}},
        {"feature_weights": {"statement": float("inf")}},
        {"feature_weights": {"statement": 1e308, "lcs_f": 1e308}},
    ):
        with pytest.raises(ValueError, match="finite"):
            DetectorConfig(**non_finite)


def test_self_pair_combines_to_one(detector):
    doc = detector.document("x", CORPUS["a"])
    report = detector.analyze_pair(doc, doc)
    assert report.combined == 1.0
    assert report.skipped == {"query_phrase"}
    for name in ("statement", "top_keyword", "first_sentence", "lcs_f"):
        assert report.scores[name].value == 1.0


def test_disjoint_pair_combines_to_zero(detector):
    a = detector.document("a", CORPUS["a"])
    c = detector.document("c", CORPUS["c"])
    assert detector.analyze_pair(a, c).combined == 0.0


def test_both_empty_all_degenerate(detector):
    e1 = detector.document("e1", "")
    e2 = detector.document("e2", "...")
    report = detector.analyze_pair(e1, e2)
    assert report.combined == 0.0
    assert all(score.degenerate for score in report.scores.values())
    assert report.skipped == frozenset()


def test_combination_renormalizes_over_applicable(detector):
    # "a" has no cue phrase, so query_phrase is skipped and the mean runs
    # over the four remaining equally weighted features.
    a = detector.document("a", CORPUS["a"])
    b = detector.document("b", CORPUS["b"])
    report = detector.analyze_pair(a, b)
    assert report.skipped == {"query_phrase"}
    values = [
        report.scores[name].value
        for name in DEFAULT_FEATURES
        if name not in report.skipped
    ]
    assert report.combined == pytest.approx(sum(values) / len(values))


def test_combination_respects_weights():
    cfg = DetectorConfig(feature_weights={"lcs_f": 3.0})
    det = Detector(cfg)
    ref = det.document("r", "Player kicked the ball. Filler words pad this text.")
    susp = det.document("s", "Player kick the ball.")
    report = det.analyze_pair(ref, susp)
    num = den = 0.0
    for name in cfg.features:
        if name in report.skipped:
            continue
        w = cfg.weight(name)
        num += w * report.scores[name].value
        den += w
    assert report.combined == pytest.approx(num / den)


@given(st.floats(min_value=1.0, max_value=50.0))
def test_raising_weight_of_high_feature_never_lowers_combined(weight):
    base_cfg = DetectorConfig()
    det = Detector(base_cfg)
    ref = det.document("r", "Player kicked the ball. Filler words pad this text.")
    susp = det.document("s", "Player kick the ball.")
    base = det.analyze_pair(ref, susp)
    # lcs_f scores 0.75, above the equally weighted mean
    assert base.scores["lcs_f"].value >= base.combined
    heavier = Detector(DetectorConfig(feature_weights={"lcs_f": weight}))
    assert heavier.analyze_pair(ref, susp).combined >= base.combined - 1e-12


def test_statement_reported_even_when_not_combined():
    cfg = DetectorConfig(features=("lcs_f",))
    det = Detector(cfg)
    ref = det.document("r", "Player kicked the ball.")
    susp = det.document("s", "Player kick the ball.")
    report = det.analyze_pair(ref, susp)
    assert "statement" in report.scores
    assert report.combined == report.scores["lcs_f"].value == 0.75


def test_extra_whole_document_features():
    cfg = DetectorConfig(features=("full_char", "trigram_jaccard"))
    det = Detector(cfg)
    doc = det.document("d", "the quick brown fox jumps over the lazy dog today.")
    report = det.analyze_pair(doc, doc)
    assert report.scores["full_char"].value == 1.0
    assert report.scores["trigram_jaccard"].value == 1.0
    assert report.combined == 1.0


def test_build_index_rejects_duplicate_ids(detector):
    doc = detector.document("same", "words here.")
    with pytest.raises(ValueError, match="same"):
        detector.build_index([doc, doc])


def test_build_index_empty(detector):
    index = detector.build_index([])
    assert index.entries == {}


def test_entry_matches_direct_computation(detector, corpus_docs):
    from simscan.features import top_keywords
    from simscan.fingerprint import fingerprint_keys

    doc = corpus_docs[0]
    entry = detector.build_index([doc]).entries["a"]
    assert set(entry.fingerprints) == fingerprint_keys(doc)
    assert set(entry.keywords) == top_keywords(doc, 10).terms
    assert entry.fingerprints == tuple(sorted(entry.fingerprints))


def test_index_round_trip_byte_identical(detector, corpus_docs, tmp_path):
    index = detector.build_index(corpus_docs)
    path = tmp_path / "idx.jsonl"
    save_index(index, path)
    first = path.read_bytes()
    loaded = load_index(path)
    save_index(loaded, path)
    assert path.read_bytes() == first
    assert loaded.entries == index.entries
    assert dict(loaded.config) == dict(index.config)


def test_failed_save_keeps_previous_index(detector, corpus_docs, tmp_path, monkeypatch):
    path = tmp_path / "idx.jsonl"
    save_index(detector.build_index(corpus_docs[:1]), path)
    before = path.read_bytes()
    real_dumps = json.dumps
    calls = []

    def failing_dumps(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("disk full")
        return real_dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", failing_dumps)
    with pytest.raises(RuntimeError):
        save_index(detector.build_index(corpus_docs), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["idx.jsonl"]


def test_rebuild_is_deterministic(detector, corpus_docs, tmp_path):
    p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    save_index(detector.build_index(corpus_docs), p1)
    save_index(detector.build_index(list(reversed(corpus_docs))), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_index_distinct_errors(detector, corpus_docs, tmp_path):
    path = tmp_path / "idx.jsonl"
    save_index(detector.build_index(corpus_docs), path)
    lines = path.read_text().splitlines()

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(IndexFormatError):
        load_index(empty)

    with pytest.raises(OSError):
        load_index(tmp_path / "missing.jsonl")

    bad_version = tmp_path / "v9.jsonl"
    header = json.loads(lines[0])
    header["schema"] = 9
    bad_version.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(IndexVersionError):
        load_index(bad_version)

    truncated = tmp_path / "trunc.jsonl"
    truncated.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2] + "\n")
    with pytest.raises(IndexFormatError) as exc_info:
        load_index(truncated)
    assert exc_info.value.line == 2

    missing_key = tmp_path / "key.jsonl"
    record = json.loads(lines[1])
    del record["token_digest"]
    missing_key.write_text(lines[0] + "\n" + json.dumps(record) + "\n")
    with pytest.raises(IndexFormatError):
        load_index(missing_key)

    undecodable = tmp_path / "bytes.jsonl"
    undecodable.write_bytes(lines[0].encode() + b"\n\xff\xfe\n")
    with pytest.raises(IndexFormatError) as exc_info:
        load_index(undecodable)
    assert exc_info.value.line == 2

    dupe = tmp_path / "dupe.jsonl"
    dupe.write_text(lines[0] + "\n" + lines[1] + "\n" + lines[1] + "\n")
    with pytest.raises(IndexFormatError) as exc_info:
        load_index(dupe)
    assert exc_info.value.line == 3


def test_rank_identical_doc_first(detector, corpus_docs):
    index = detector.build_index(corpus_docs)
    susp = detector.document("susp", CORPUS["a"])
    ranked = detector.rank_candidates(susp, index)
    assert ranked[0][0] == "a"
    assert ranked[0][1].combined == 1.0
    assert [doc_id for doc_id, _ in ranked] == sorted(
        (doc_id for doc_id, _ in ranked),
        key=lambda d: (-dict(ranked)[d].combined, d),
    )


def test_rank_empty_index(detector):
    index = detector.build_index([])
    assert detector.rank_candidates(detector.document("s", "words."), index) == []


def test_rank_ties_break_by_doc_id(detector):
    docs = [
        detector.document("zeta", "identical words here."),
        detector.document("alpha", "identical words here."),
    ]
    index = detector.build_index(docs)
    ranked = detector.rank_candidates(detector.document("s", "identical words here."), index)
    assert [doc_id for doc_id, _ in ranked] == ["alpha", "zeta"]


def test_rank_top_n_cap(detector, corpus_docs):
    index = detector.build_index(corpus_docs)
    susp = detector.document("s", CORPUS["a"])
    assert len(detector.rank_candidates(susp, index, top_n=1)) == 1
    assert len(detector.rank_candidates(susp, index, top_n=0)) == 0
    with pytest.raises(ValueError):
        detector.rank_candidates(susp, index, top_n=-1)


def test_rank_rejects_mismatched_config(detector, corpus_docs):
    index = detector.build_index(corpus_docs)
    other = Detector(DetectorConfig(k_char=5))
    susp = other.document("s", CORPUS["a"])
    with pytest.raises(IndexVersionError):
        other.rank_candidates(susp, index)


def test_rank_skips_token_stream_features(detector, corpus_docs):
    index = detector.build_index(corpus_docs)
    susp = detector.document("s", CORPUS["b"])
    for _, report in detector.rank_candidates(susp, index):
        assert "lcs_f" in report.skipped
        assert report.scores["lcs_f"].not_applicable


def test_rank_scores_match_in_memory(detector, corpus_docs):
    # Every feature the index can serve must score identically to a fresh
    # in-memory comparison against the original text.
    index = detector.build_index(corpus_docs)
    susp = detector.document("s", "We conclude that players kick balls today.")
    for doc_id, report in detector.rank_candidates(susp, index):
        ref = detector.document(doc_id, CORPUS[doc_id])
        memory = detector.analyze_pair(ref, susp)
        for name in INDEX_AVAILABLE:
            assert report.scores[name].value == memory.scores[name].value, (doc_id, name)
            assert report.scores[name].detail == memory.scores[name].detail, (doc_id, name)
            assert report.scores[name].flags == memory.scores[name].flags, (doc_id, name)


# Small vocabulary so documents share grams and keywords; some sentences
# open with a cue phrase, and a document may have no sentences at all.
sentences = st.builds(
    lambda cue, words: f"{cue}{' '.join(words)}.",
    st.sampled_from(["", "", "We find that ", "In conclusion, "]),
    st.lists(st.sampled_from(["ball", "kick", "goal", "the", "net", "xy"]), max_size=6),
)
doc_texts = st.lists(sentences, max_size=4).map(" ".join)


@given(st.lists(doc_texts, max_size=4), doc_texts)
def test_rank_scores_equal_analyze_pair(detector, texts, susp_text):
    refs = {f"d{i}": detector.document(f"d{i}", text) for i, text in enumerate(texts)}
    susp = detector.document("s", susp_text)
    only_indexed = Detector(DetectorConfig(features=INDEX_AVAILABLE))
    ranked = detector.rank_candidates(susp, detector.build_index(refs.values()))
    assert sorted(doc_id for doc_id, _ in ranked) == sorted(refs)
    for doc_id, report in ranked:
        memory = detector.analyze_pair(refs[doc_id], susp)
        for name in INDEX_AVAILABLE:
            assert report.scores[name] == memory.scores[name], (doc_id, name)
        assert report.skipped == memory.skipped | {"lcs_f"}
        assert report.combined == only_indexed.analyze_pair(refs[doc_id], susp).combined


def test_report_dict_layout(detector):
    doc = detector.document("x", CORPUS["a"])
    payload = report_dict(detector.analyze_pair(doc, doc))
    assert set(payload) == {"ref_id", "susp_id", "scores", "skipped", "combined"}
    assert list(payload["scores"]) == [
        name for name in ALL_FEATURES if name in payload["scores"]
    ]
    for entry in payload["scores"].values():
        assert set(entry) == {"value", "detail", "flags"}


def test_dumps_fixed_formats_floats():
    out = dumps_fixed({"x": 1.0, "y": [0.5, 2], "z": "s", "b": True})
    assert out == '{"x": 1.000000000000, "y": [0.500000000000, 2], "z": "s", "b": true}'
    assert json.loads(out) == {"x": 1.0, "y": [0.5, 2], "z": "s", "b": True}

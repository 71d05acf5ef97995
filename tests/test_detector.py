"""Pair reports, score combination, index persistence, and ranking."""

import builtins
import io
import json
import math
import os
import random
import re
import string
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from cue_oracle import per_phrase_hits
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import simscan.detector
import simscan.features
import simscan.fingerprint
from simscan.detector import (
    ALL_FEATURES,
    DEFAULT_FEATURES,
    MAX_GRAM_LEN,
    MAX_WEIGHT,
    MIN_WEIGHT,
    Detector,
    DetectorConfig,
    IndexFormatError,
    IndexVersionError,
    Reference,
    _combine,
    load_index,
    save_index,
    write_index,
)
from simscan.cli import EXIT_IO, dumps_fixed, main, report_dict
from simscan.features import DEFAULT_QUERY_PHRASES, load_query_phrases, top_keywords
from simscan.fingerprint import char_kgrams, fingerprint_keys, outcome_value, overlap_bound
from simscan.porter import stem
from simscan.textprep import DEFAULT_STOPWORDS, load_stopwords

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
    assert cfg.stopwords is DEFAULT_STOPWORDS and cfg.phrases is DEFAULT_QUERY_PHRASES
    with pytest.raises(ValueError):
        DetectorConfig(k_char=0)
    assert DetectorConfig(k_char=MAX_GRAM_LEN).k_char == 64
    with pytest.raises(ValueError, match="<= 64"):
        DetectorConfig(k_char=MAX_GRAM_LEN + 1)
    with pytest.raises(ValueError):
        DetectorConfig(k_top=0)
    with pytest.raises(ValueError):
        DetectorConfig(beta="wild")
    with pytest.raises(ValueError):
        DetectorConfig(beta=-2.0)
    with pytest.raises(ValueError):
        DetectorConfig(beta=True)
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
    # Counts must be ints and weights numbers; a bool is neither.
    for wrong_type in (
        {"k_char": 4.0},
        {"k_char": True},
        {"k_top": 2.5},
        {"k_top": True},
        {"feature_weights": {"statement": "1"}},
        {"feature_weights": {"statement": True}},
        # A string would match its substrings or characters as words, and a
        # set's order, which the header hashes for phrases, follows the hash seed.
        {"stopwords": "the"},
        {"phrases": "in conclusion,"},
        {"stopwords": {"the"}},
        {"phrases": {"in conclusion,", "we find that"}},
        {"phrases": ["in conclusion,"]},
    ):
        with pytest.raises(ValueError):
            DetectorConfig(**wrong_type)
    # An entry must be in the form its matcher matches: "Players" would stop
    # nothing, and a newline in an entry would let two lists share a header hash.
    for wrong_form in (
        {"stopwords": frozenset({"Players"})},
        {"stopwords": frozenset({"a\nb"})},
        {"phrases": ("In Conclusion,",)},
        {"stopwords": frozenset({""})},
        {"phrases": ("",)},
        {"phrases": ("in  conclusion,",)},
    ):
        with pytest.raises(ValueError, match="must be"):
            DetectorConfig(**wrong_form)


# Any text a list file holds: `st.text()` draws every code point but the
# surrogates, which UTF-8 cannot encode.  The example has entries in other
# forms, "İ", which lowercases to "i" and a combining dot, and "\r" line ends.
@settings(max_examples=300)
@example("Players\nIn  Conclusion, ...\n a\tb \r\n\u0130stanbul\n# x\n\u03a3\u03a3...")
@given(st.text())
def test_every_list_file_gives_lists_the_config_accepts(text):
    """No stopword or phrase file the CLI reads gives a list its config refuses."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "list.txt")
        path.write_text(text, encoding="utf-8", newline="")
        DetectorConfig(stopwords=load_stopwords(path), phrases=load_query_phrases(path))


def test_detector_takes_its_lists_from_the_config_and_reads_no_file(monkeypatch):
    stopwords, phrases = frozenset({"players"}), ("we find that",)

    def refuse(*args, **kwargs):
        raise OSError("a Detector must open no file")

    with monkeypatch.context() as patched:
        patched.setattr(builtins, "open", refuse)
        patched.setattr(io, "open", refuse)
        det = Detector(DetectorConfig(stopwords=stopwords, phrases=phrases))
    assert det.stopwords is stopwords and det.phrases is phrases
    doc = det.document("d", "We find that players kick balls.")
    assert det.entry(doc).query_grams and "player" not in det.entry(doc).keywords


def test_phrase_files_that_differ_only_in_repeats_give_one_header(tmp_path):
    """The loader drops a repeated phrase, keeping the first; the config refuses one."""
    once, twice = tmp_path / "once.txt", tmp_path / "twice.txt"
    once.write_text("we find that\nin general,\n", encoding="utf-8")
    twice.write_text("We find that\nin general,\nwe  find that...\nin general,\n", "utf-8")
    assert load_query_phrases(twice) == load_query_phrases(once) == ("we find that", "in general,")
    snapshots = [
        Detector(DetectorConfig(phrases=load_query_phrases(path))).config_snapshot()
        for path in (once, twice)
    ]
    assert snapshots[0] == snapshots[1]
    with pytest.raises(ValueError, match="must not repeat: 'we find that'"):
        DetectorConfig(phrases=("we find that", "in general,", "we find that"))


def test_weights_outside_the_normal_range_are_refused():
    """A positive weight lies in [2**-500, 2**500]; ints are checked as the floats used."""
    for weight in (5e-324, 1e-320, 2.0**-501, 2.0**501, 1e308, 10**400, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"in \[2\*\*-500, 2\*\*500\]"):
            DetectorConfig(feature_weights={"statement": weight})
    for weight in (-(10**400), -math.inf):
        with pytest.raises(ValueError, match="negative weight"):
            DetectorConfig(feature_weights={"statement": weight})
    for weight in (0, 0.0, MIN_WEIGHT, MAX_WEIGHT, 2**500):
        assert DetectorConfig(feature_weights={"statement": weight}).weight("statement") == weight


def test_pair_memory_at_the_gram_length_cap_stays_near_the_default():
    """A document's gram list holds (L - k + 1) x k characters, so `k_char` is capped.

    On a one-sentence pair of about 118 KB each, building both documents and
    scoring them peaks within 4x as high at the cap as at the default k of 4.
    """
    rng = random.Random(0)
    vocabulary = [
        "".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 12))) for _ in range(300)
    ]
    texts = [" ".join(rng.choices(vocabulary, k=15_000)) + "." for _ in range(2)]
    assert all(110_000 < len(text) < 125_000 for text in texts)
    peaks = []
    for k in (4, MAX_GRAM_LEN):
        det = Detector(DetectorConfig(k_char=k))
        tracemalloc.start()
        try:
            ref, susp = det.document("r", texts[0]), det.document("s", texts[1])
            det.analyze_pair(ref, susp)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(ref.sentences) == len(susp.sentences) == 1
    assert peaks[1] <= 4 * peaks[0], peaks


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


def test_phrase_left_empty_matches_no_sentence(tmp_path):
    # "..." loses its trailing dots and would become "", a prefix of every
    # sentence; it must score as if the line were not there.
    reports = []
    for lines in ("in conclusion,\n...\n", "in conclusion,\n"):
        path = tmp_path / f"phrases{len(reports)}.txt"
        path.write_text(lines, encoding="utf-8")
        det = Detector(DetectorConfig(phrases=load_query_phrases(path)))
        ref = det.document("r", "The quick fox runs. A lazy dog sleeps. Birds sing.")
        susp = det.document("s", "The quick fox runs. A cat sleeps. Fish swim.")
        reports.append(det.analyze_pair(ref, susp))
    assert reports[0] == reports[1]
    assert "query_phrase" in reports[1].skipped


@pytest.mark.parametrize("gap", ["\n", "  ", "\t \r\n"])
def test_cue_phrase_matches_across_whitespace_runs(detector, gap):
    """A hard-wrapped or double-spaced cue phrase is still a cue."""
    text = "Players kick balls every day. In conclusion, the keeper saved the penalty kick."
    plain = detector.document("r", text)
    wrapped = detector.document("r", text.replace("In conclusion,", f"In{gap}conclusion,"))
    susp = detector.document("s", "In conclusion, the keeper saved the penalty kick.")
    assert detector.entry(plain).query_grams
    assert detector.entry(wrapped) == detector.entry(plain)
    report = detector.analyze_pair(plain, susp)
    assert "query_phrase" not in report.skipped
    assert detector.analyze_pair(wrapped, susp) == report


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
    assert set(entry.keywords) == top_keywords(doc, 10)
    assert entry.fingerprints == tuple(sorted(entry.fingerprints))


def test_document_does_not_depend_on_the_detector(tmp_path):
    # Stopwords and stems are read only by `top_keywords`, so every detector
    # builds the same document from one text.
    path = tmp_path / "stops.txt"
    path.write_text("players\nball\n", encoding="utf-8")
    text = "The players kicked the ball. We find that the ball rolled!"
    plain, stopped = Detector(), Detector(DetectorConfig(stopwords=load_stopwords(path)))
    assert plain.stopwords != stopped.stopwords
    doc = plain.document("d", text)
    assert doc == stopped.document("d", text)
    assert plain.entry(doc).keywords != stopped.entry(doc).keywords


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


def test_write_index_refuses_an_id_that_does_not_sort_after_the_last(
    detector, corpus_docs, tmp_path
):
    path = tmp_path / "idx.jsonl"
    save_index(detector.build_index(corpus_docs), path)
    before = path.read_bytes()
    a, b, c = map(detector.entry, corpus_docs)
    config = detector.config_snapshot()
    for entries in ([a, c, b], [a, b, b]):
        with pytest.raises(ValueError, match="does not sort after"):
            write_index(path, config, iter(entries))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["idx.jsonl"]
    assert write_index(path, config, iter([a, b, c])) == 3
    assert path.read_bytes() == before


def test_save_index_replaces_only_a_regular_file(detector, corpus_docs, tmp_path):
    """A link keeps pointing at the new index; a FIFO or a directory is refused untouched.

    A trailing slash names a directory, whether a file of that name is there or not.
    """
    index = detector.build_index(corpus_docs)
    direct = tmp_path / "direct.jsonl"
    save_index(index, direct)
    link = tmp_path / "link.jsonl"
    link.symlink_to("target.jsonl")
    save_index(index, link)
    assert link.is_symlink() and (tmp_path / "target.jsonl").read_bytes() == direct.read_bytes()
    (tmp_path / "dir").mkdir()
    with pytest.raises(IsADirectoryError):
        save_index(index, tmp_path / "dir")
    before = direct.read_bytes()
    for name in ("absent.jsonl", "direct.jsonl"):
        with pytest.raises(IsADirectoryError):
            save_index(index, f"{tmp_path / name}/")
    assert not (tmp_path / "absent.jsonl").exists() and direct.read_bytes() == before
    if hasattr(os, "mkfifo"):
        os.mkfifo(tmp_path / "pipe")
        with pytest.raises(OSError, match="not a regular file"):
            save_index(index, tmp_path / "pipe")
        assert (tmp_path / "pipe").is_fifo()
    assert not list(tmp_path.glob("*.tmp"))


def test_rebuild_is_deterministic(detector, corpus_docs, tmp_path):
    p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
    save_index(detector.build_index(corpus_docs), p1)
    save_index(detector.build_index(list(reversed(corpus_docs))), p2)
    assert p1.read_bytes() == p2.read_bytes()


def _refused(path, error, match=None):
    """`load_index` and `scan_index` both refuse `path` with `error` and one message."""
    with pytest.raises(error, match=match) as loaded:
        load_index(path)
    det = Detector()
    with pytest.raises(error, match=match) as scanned:
        det.scan_index(det.document("s", CORPUS["a"]), path)
    assert str(scanned.value) == str(loaded.value)
    return loaded


def test_load_index_distinct_errors(detector, corpus_docs, tmp_path, capsys):
    path = tmp_path / "idx.jsonl"
    save_index(detector.build_index(corpus_docs), path)
    lines = path.read_text().splitlines()

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    _refused(empty, IndexFormatError)

    _refused(tmp_path / "missing.jsonl", OSError)

    bad_version = tmp_path / "v9.jsonl"
    header = json.loads(lines[0])
    header["schema"] = 9
    bad_version.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    _refused(bad_version, IndexVersionError)

    truncated = tmp_path / "trunc.jsonl"
    truncated.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2] + "\n")
    exc_info = _refused(truncated, IndexFormatError)
    assert exc_info.value.line == 2

    missing_key = tmp_path / "key.jsonl"
    record = json.loads(lines[1])
    del record["token_digest"]
    missing_key.write_text(lines[0] + "\n" + json.dumps(record) + "\n")
    _refused(missing_key, IndexFormatError)

    for name, value in (("fingerprints", ["abcdefghijkl", 7]), ("keywords", "kick")):
        bad_list = tmp_path / f"{name}.jsonl"
        record = json.loads(lines[1])
        record[name] = value
        bad_list.write_text(lines[0] + "\n" + json.dumps(record) + "\n")
        exc_info = _refused(bad_list, IndexFormatError, f"{name} must be a list")
        assert exc_info.value.line == 2

    undecodable = tmp_path / "bytes.jsonl"
    undecodable.write_bytes(lines[0].encode() + b"\n\xff\xfe\n")
    exc_info = _refused(undecodable, IndexFormatError)
    assert exc_info.value.line == 2

    # nesting past the parser's recursion limit, and an integer past
    # Python's int-digit limit
    digits = lines[1].replace('"k":4', '"k":' + "7" * 5000)
    assert digits != lines[1]
    for name, line in (("nested", "[" * 100000), ("digits", digits)):
        hostile = tmp_path / f"{name}.jsonl"
        hostile.write_text(lines[0] + "\n" + line + "\n")
        exc_info = _refused(hostile, IndexFormatError)
        assert exc_info.value.line == 2

    dupe = tmp_path / "dupe.jsonl"
    dupe.write_text(lines[0] + "\n" + lines[1] + "\n" + lines[1] + "\n")
    exc_info = _refused(dupe, IndexFormatError)
    assert exc_info.value.line == 3

    # Ids must rise strictly, as write_index writes them.
    unsorted = tmp_path / "unsorted.jsonl"
    unsorted.write_text(lines[0] + "\n" + lines[2] + "\n" + lines[1] + "\n")
    exc_info = _refused(unsorted, IndexFormatError, "document id 'a' does not sort after 'b'")
    assert exc_info.value.line == 3
    suspect = tmp_path / "suspect.txt"
    suspect.write_text(CORPUS["a"])
    assert main(["scan", str(suspect), str(unsorted)]) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"simscan: error: malformed index {str(unsorted)!r}: "
        "line 3: document id 'a' does not sort after 'b'\n"
    )


def _index_lines(detector, corpus_docs, tmp_path):
    path = tmp_path / "idx.jsonl"
    save_index(detector.build_index(corpus_docs), path)
    return path.read_text().splitlines()


def _edited_index(tmp_path, header_line, record_line, name):
    path = tmp_path / f"{name}.jsonl"
    path.write_text(header_line + "\n" + record_line + "\n")
    return path


@pytest.mark.parametrize("name", ["fingerprints", "keywords", "first_grams", "query_grams"])
@pytest.mark.parametrize("damage", ["repeated", "unsorted"])
def test_load_index_rejects_unsorted_or_repeated_lists(
    detector, corpus_docs, tmp_path, name, damage
):
    header, _, line = _index_lines(detector, corpus_docs, tmp_path)[:3]
    record = json.loads(line)
    assert record["id"] == "b" and len(record[name]) >= 2
    if damage == "repeated":
        record[name] = record[name][:1] + record[name]
    else:
        record[name] = record[name][::-1]
    path = _edited_index(tmp_path, header, json.dumps(record), damage)
    exc_info = _refused(path, IndexFormatError, f"{name} must be sorted and distinct")
    assert exc_info.value.line == 2


@pytest.mark.parametrize(
    "edit",
    [
        {"scheme": "bogus"},
        {"k": 99},
        {"k": "4"},
        {"k": 4.0},
        {"k": True},
    ],
    ids=["scheme", "k-value", "k-string", "k-float", "k-bool"],
)
def test_load_index_checks_record_scheme_and_k(detector, corpus_docs, tmp_path, edit):
    header, line = _index_lines(detector, corpus_docs, tmp_path)[:2]
    record = {**json.loads(line), **edit}
    path = _edited_index(tmp_path, header, json.dumps(record), "edited")
    exc_info = _refused(path, IndexFormatError)
    assert exc_info.value.line == 2


@pytest.mark.parametrize(
    "value, message",
    [
        ("kick", "must be a list of strings"),
        ({}, "must be a list of strings"),
        ([7], "must be a list of strings"),
        ([1, 2], "must be a list of strings"),
        ([None, "a"], "must be a list of strings"),
        (["a", 7], "must be a list of strings"),
        (["a", ["b"]], "must be a list of strings"),
        (["b", "a", 7], "must be a list of strings"),
        (["a", "a"], "must be sorted and distinct"),
        (["b", "a"], "must be sorted and distinct"),
    ],
)
def test_load_index_names_the_first_list_fault(detector, corpus_docs, tmp_path, value, message):
    header, line = _index_lines(detector, corpus_docs, tmp_path)[:2]
    record = {**json.loads(line), "keywords": value}
    path = _edited_index(tmp_path, header, json.dumps(record), "list")
    exc_info = _refused(path, IndexFormatError)
    assert str(exc_info.value) == f"line 2: keywords {message}"


def test_load_index_header_without_k_char(detector, corpus_docs, tmp_path):
    header, line = _index_lines(detector, corpus_docs, tmp_path)[:2]
    head = json.loads(header)
    del head["config"]["k_char"]
    path = _edited_index(tmp_path, json.dumps(head), line, "no_k_char")
    exc_info = _refused(path, IndexFormatError, "k must equal")
    assert exc_info.value.line == 2


HEX = "0123456789abcdef"
# Digests that are not 64 lowercase hex digits: any text, the wrong length,
# a valid digest with more after it, or one digit swapped for another
# character (an uppercase one among them).
hex_digests = st.text(HEX, min_size=64, max_size=64)
bad_digests = st.one_of(
    st.text(max_size=80),
    st.text(HEX, max_size=80),
    st.builds(str.__add__, hex_digests, st.text(min_size=1, max_size=8)),
    st.builds(
        lambda digest, at, char: digest[:at] + char + digest[at + 1 :],
        hex_digests,
        st.integers(0, 63),
        st.one_of(st.sampled_from("ABCDEFg \n"), st.characters()),
    ),
).filter(lambda digest: re.fullmatch("[0-9a-f]{64}", digest) is None)
# Sorted distinct keys: one shorter or longer than 12 characters among keys of 12.
bad_key_lists = st.builds(
    lambda bad, keys: sorted({bad, *keys}),
    st.one_of(st.text(max_size=11), st.text(min_size=13, max_size=40)),
    st.lists(st.text(min_size=12, max_size=12), max_size=3),
)


@given(
    st.one_of(
        st.tuples(st.just("token_digest"), bad_digests),
        st.tuples(st.just("fingerprints"), bad_key_lists),
    )
)
def test_load_index_refuses_a_digest_or_key_that_save_index_cannot_write(edit):
    # The edited record passes every other check: its lists stay sorted and
    # distinct strings, its digest a string.
    name, value = edit
    det = Detector()
    with tempfile.TemporaryDirectory() as tmp:
        header, line = _index_lines(det, [det.document("a", CORPUS["b"])], Path(tmp))
        path = _edited_index(Path(tmp), header, json.dumps({**json.loads(line), name: value}), "x")
        exc_info = _refused(path, IndexFormatError)
    message = {
        "token_digest": "token_digest must be 64 lowercase hex digits",
        "fingerprints": "fingerprint keys must be 12 characters long",
    }[name]
    assert str(exc_info.value) == f"line 2: {message}"


@pytest.mark.parametrize("schema", [True, 1.0, "1"])
def test_load_index_schema_must_be_int(detector, corpus_docs, tmp_path, schema):
    header, line = _index_lines(detector, corpus_docs, tmp_path)[:2]
    head = {**json.loads(header), "schema": schema}
    path = _edited_index(tmp_path, json.dumps(head), line, "schema")
    exc_info = _refused(path, IndexFormatError, "schema must be an integer")
    assert exc_info.value.line == 1


def test_save_index_writes_header_k_char(tmp_path):
    det = Detector(DetectorConfig(k_char=3))
    index = det.build_index([det.document("a", CORPUS["a"])])
    path = tmp_path / "idx.jsonl"
    save_index(index, path)
    header, line = path.read_text().splitlines()
    assert json.loads(header)["config"]["k_char"] == json.loads(line)["k"] == 3
    assert load_index(path).entries == index.entries


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


def test_rank_scores_an_entry_whose_bound_ties_the_cut(detector):
    # "alpha" comes second, and its bound only ties the score of "zeta",
    # already held; it still wins the one place by id.
    docs = [detector.document(doc_id, "identical words here.") for doc_id in ("zeta", "alpha")]
    index = detector.build_index(docs)
    ranked = detector.rank_candidates(detector.document("s", "identical words here."), index, 1)
    assert [doc_id for doc_id, _ in ranked] == ["alpha"]


def test_rank_top_n_cap(detector, corpus_docs):
    index = detector.build_index(corpus_docs)
    susp = detector.document("s", CORPUS["a"])
    assert len(detector.rank_candidates(susp, index, top_n=1)) == 1
    assert len(detector.rank_candidates(susp, index, top_n=0)) == 0
    for bad in (-1, 2.5, True):
        with pytest.raises(ValueError):
            detector.rank_candidates(susp, index, top_n=bad)


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
# open with a cue phrase, some with a cue phrase's words inside a longer
# word or across a line break, and a document may have no sentences at all.
sentences = st.builds(
    lambda cue, words: f"{cue}{' '.join(words)}.",
    st.sampled_from(
        ["", "", "We find that ", "In conclusion, ", "We find thatched ", "In\nconclusion, "]
    ),
    st.lists(st.sampled_from(["ball", "kick", "goal", "the", "net", "xy"]), max_size=6),
)
doc_texts = st.lists(sentences, max_size=4).map(" ".join)


def _combined(det, ref_text, susp_text) -> tuple[float, float]:
    """The pair's combined score in memory and from an index of the reference."""
    ref, susp = det.document("r", ref_text), det.document("s", susp_text)
    [(_, ranked)] = det.rank_candidates(susp, det.build_index([ref]))
    return det.analyze_pair(ref, susp).combined, ranked.combined


accepted_weights = st.one_of(st.just(0.0), st.floats(MIN_WEIGHT, MAX_WEIGHT))
# A pair whose combined score subnormal weights used to change.
WEIGHTED_PAIR = (
    "Alpha beta gamma delta. In conclusion, we find that epsilon zeta eta.",
    "Alpha beta gamma delta epsilon. We find that zeta eta theta.",
)


@settings(max_examples=200)
@example(list(DEFAULT_FEATURES), {}, *WEIGHTED_PAIR, -1074)
@given(
    st.lists(st.sampled_from(ALL_FEATURES), min_size=1, unique=True),
    st.dictionaries(st.sampled_from(ALL_FEATURES), accepted_weights),
    doc_texts,
    doc_texts,
    st.integers(-1074, 1023),
)
def test_scaling_every_weight_by_a_power_of_two_keeps_combined(
    features, weights, ref_text, susp_text, shift
):
    """Every product and sum in `_combine` stays normal, so scaling is exact.

    `shift` is moved to the nearest power of two that keeps every weight accepted.
    """
    try:
        cfg = DetectorConfig(features=tuple(features), feature_weights=weights)
    except ValueError:
        reject()  # every enabled weight is 0
    full = {name: cfg.weight(name) for name in ALL_FEATURES}
    positive = [weight for weight in full.values() if weight]
    # A product by a power of two is exact unless it leaves the normal range,
    # and then it fails the range test.
    shifts = [
        shift for shift in range(-1074, 1024)
        if all(MIN_WEIGHT <= weight * 2.0**shift <= MAX_WEIGHT for weight in positive)
    ]
    scale = 2.0 ** min(max(shift, shifts[0]), shifts[-1])
    scaled = DetectorConfig(
        features=cfg.features,
        feature_weights={name: weight * scale for name, weight in full.items()},
    )
    assert _combined(Detector(scaled), ref_text, susp_text) == _combined(
        Detector(cfg), ref_text, susp_text
    )


@settings(max_examples=200)
@example(list(DEFAULT_FEATURES), MIN_WEIGHT, *WEIGHTED_PAIR)
@given(
    st.lists(st.sampled_from(ALL_FEATURES), min_size=1, unique=True),
    st.floats(MIN_WEIGHT, MAX_WEIGHT),
    doc_texts,
    doc_texts,
)
def test_equal_weights_give_the_unit_weight_combined(features, weight, ref_text, susp_text):
    """Each of the k products and k - 1 sums of the weighted mean rounds once."""
    unit = Detector(DetectorConfig(features=tuple(features)))
    equal = Detector(
        DetectorConfig(features=tuple(features), feature_weights=dict.fromkeys(features, weight))
    )
    for got, want in zip(
        _combined(equal, ref_text, susp_text), _combined(unit, ref_text, susp_text)
    ):
        assert abs(got - want) <= 2 * len(features) * math.ulp(want), (got, want)


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


def oracle_keys(doc):
    """Each sentence's three least frequent 4-grams over the document, ties by position."""
    counts = char_kgrams(" ".join(t for s in doc.sentences for t in s.tokens), 4).counts
    keys = set()
    for sentence in doc.sentences:
        own = list(char_kgrams(" ".join(sentence.tokens), 4).counts)  # first-occurrence order
        if len(own) >= 3:
            keys.add("".join(sorted(own, key=counts.__getitem__)[:3]))
    return keys


def oracle_keywords(doc, k_top, stopwords):
    counts = Counter(stem(t) for s in doc.sentences for t in s.tokens if t not in stopwords)
    return set(sorted(counts, key=lambda term: (-counts[term], term))[:k_top])


def oracle_grams(sentences, k):
    return set().union(*(char_kgrams(" ".join(s.tokens), k).gram_set() for s in sentences))


def oracle_jaccard(a, b):
    """(value, detail, flags) of the Jaccard of two sets."""
    intersection, union = len(a & b), len(a | b)
    detail = {"intersection": intersection, "union": union, "size_a": len(a), "size_b": len(b)}
    return (intersection / union if union else 0.0), detail, () if union else ("degenerate_input",)


@given(doc_texts, doc_texts, st.sampled_from([4, 1, 3, 6]), st.sampled_from([10, 1, 2]))
def test_index_available_scores_equal_a_brute_force_oracle(ref_text, susp_text, k, k_top):
    det = Detector(DetectorConfig(k_char=k, k_top=k_top))
    ref = det.document("r", ref_text)
    susp = det.document("s", susp_text)
    cues = [ref.sentences[i] for i in per_phrase_hits(ref, DEFAULT_QUERY_PHRASES)]
    cue_grams = oracle_grams(cues, k)
    susp_grams = char_kgrams(" ".join(t for s in susp.sentences for t in s.tokens), k).gram_set()
    expected = {
        "statement": oracle_jaccard(oracle_keys(ref), oracle_keys(susp)),
        "top_keyword": oracle_jaccard(
            oracle_keywords(ref, k_top, det.stopwords), oracle_keywords(susp, k_top, det.stopwords)
        ),
        "first_sentence": oracle_jaccard(oracle_grams(ref.sentences[:1], k), susp_grams),
        "query_phrase": oracle_jaccard(cue_grams, susp_grams),
    }
    if not ref.sentences:
        expected["first_sentence"] = expected["query_phrase"] = (0.0, {}, ("degenerate_input",))
    elif not cue_grams:
        expected["query_phrase"] = (0.0, {}, ("not_applicable",))
    scores = det.analyze_pair(ref, susp).scores
    for name in INDEX_AVAILABLE:
        score = scores[name]
        assert (score.value, dict(score.detail), score.flags) == expected[name], name


def gram_union(sentences, k):
    grams = set()
    for sentence in sentences:
        grams |= char_kgrams(" ".join(sentence.tokens), k).gram_set()
    return tuple(sorted(grams))


@given(doc_texts, st.integers(1, 6))
def test_entry_grams_are_the_key_sentences_grams(text, k):
    det = Detector(DetectorConfig(k_char=k))
    doc = det.document("d", text)
    cues = [doc.sentences[i] for i in per_phrase_hits(doc, det.phrases)]
    entry = det.entry(doc)
    assert entry.first_grams == gram_union(doc.sentences[:1], k)
    assert entry.query_grams == gram_union(cues, k)


finite_weights = st.floats(min_value=0, allow_nan=False, allow_infinity=False)


@st.composite
def finite_configs(draw):
    features = draw(st.lists(st.sampled_from(ALL_FEATURES), min_size=1, unique=True))
    weights = draw(st.dictionaries(st.sampled_from(ALL_FEATURES), finite_weights))
    try:
        return DetectorConfig(
            k_char=draw(st.integers(1, 8)),
            k_top=draw(st.integers(1, 12)),
            beta=draw(st.one_of(st.just("paper"), finite_weights)),
            features=tuple(features),
            feature_weights=weights,
        )
    except ValueError:
        reject()


@given(finite_configs(), doc_texts, doc_texts)
def test_combined_in_unit_interval(cfg, ref_text, susp_text):
    det = Detector(cfg)
    ref = det.document("r", ref_text)
    susp = det.document("s", susp_text)
    assert 0.0 <= det.analyze_pair(ref, susp).combined <= 1.0
    ranked = det.rank_candidates(susp, det.build_index([ref]))
    assert 0.0 <= ranked[0][1].combined <= 1.0


def full_ranking(det, susp, index):
    """Brute force: every entry scored with `_score`, by (-combined, id)."""
    suspect = det._suspect(susp)
    reports = [(e.doc_id, det._score(Reference(e), suspect)) for e in index.entries.values()]
    return sorted(reports, key=lambda item: (-item[1].combined, item[0]))


@settings(max_examples=300)
@given(finite_configs(), st.lists(doc_texts, max_size=5), st.data())
def test_rank_equals_full_ranking_cut_to_n(cfg, texts, data):
    det = Detector(cfg)
    if texts:
        # Repeated texts tie on every score, so ids decide their order.
        texts = texts + data.draw(st.lists(st.sampled_from(texts), max_size=3))
    index = det.build_index(det.document(f"d{i}", text) for i, text in enumerate(texts))
    suspect_texts = st.one_of(doc_texts, st.sampled_from(texts)) if texts else doc_texts
    susp = det.document("s", data.draw(suspect_texts))
    top_n = data.draw(st.none() | st.integers(0, len(texts) + 1))
    # FeatureReport equality compares every field, `combined` by ==.
    assert det.rank_candidates(susp, index, top_n) == full_ranking(det, susp, index)[:top_n]


@settings(max_examples=150)
@given(finite_configs(), st.lists(doc_texts, max_size=5), st.data())
def test_scan_index_equals_rank_candidates_on_the_saved_index(cfg, texts, data):
    det = Detector(cfg)
    if texts:
        texts = texts + data.draw(st.lists(st.sampled_from(texts), max_size=3))
    index = det.build_index(det.document(f"d{i}", text) for i, text in enumerate(texts))
    suspect_texts = st.one_of(doc_texts, st.sampled_from(texts)) if texts else doc_texts
    susp = det.document("s", data.draw(suspect_texts))
    top_n = data.draw(st.none() | st.integers(0, len(texts) + 1))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "idx.jsonl")
        save_index(index, path)
        scanned = det.scan_index(susp, path, top_n)
        assert scanned == det.rank_candidates(susp, load_index(path), top_n)
    assert scanned == full_ranking(det, susp, index)[:top_n]


def test_scan_index_holds_one_record_at_a_time(tmp_path):
    """Scanning a 60-document index peaks below a quarter of loading it."""
    rng = random.Random(1)
    vocabulary = [
        "".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 10))) for _ in range(2000)
    ]

    def text(sentences):
        return " ".join(" ".join(rng.choices(vocabulary, k=12)) + "." for _ in range(sentences))

    det = Detector()
    path = tmp_path / "idx.jsonl"
    save_index(det.build_index(det.document(f"d{i:02}", text(40)) for i in range(60)), path)
    susp = det.document("s", text(5))
    peaks = []
    for read in (lambda: load_index(path), lambda: det.scan_index(susp, path, 10)):
        tracemalloc.start()
        try:
            read()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] / 4, peaks


def test_scan_index_memory_does_not_grow_with_the_record_count(tmp_path):
    """Scanning 6,000 one-sentence records peaks within 1.5x of scanning 600."""
    rng = random.Random(1)
    vocabulary = [
        "".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 10))) for _ in range(2000)
    ]
    det = Detector()

    def doc(doc_id):
        return det.document(doc_id, " ".join(rng.choices(vocabulary, k=12)) + ".")

    susp = doc("s")
    peaks = []
    for count in (600, 6000):
        path = tmp_path / f"idx{count}.jsonl"
        write_index(path, det.config_snapshot(), (det.entry(doc(f"d{i:05}")) for i in range(count)))
        tracemalloc.start()
        try:
            det.scan_index(susp, path, 10)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_rank_finds_a_match_that_only_gram_features_show():
    # Scored on first_sentence alone: "a" shares a few grams with the
    # suspect and is visited first by id, so the bound for "b" must admit
    # its full gram overlap.
    det = Detector(DetectorConfig(features=("first_sentence",)))
    text = "The keeper saved the penalty kick."
    susp = det.document("s", text)
    index = det.build_index([det.document("a", "Penalty rules differ."), det.document("b", text)])
    ranked = det.rank_candidates(susp, index, top_n=1)
    assert [doc_id for doc_id, _ in ranked] == ["b"]
    assert ranked == full_ranking(det, susp, index)[:1]


def test_rank_skips_gram_intersections_that_cannot_reach_the_top(monkeypatch):
    # "copy" repeats the suspect; the others share no keyword or key with
    # it and have gram sets far smaller than the suspect's.
    det = Detector()
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel"]
    text = " ".join(f"Sentence {word} number {i} about goals." for i, word in enumerate(words))
    others = ["zu xy.", "qv wq.", "jj kk.", "pp oo.", "mm nn."]
    docs = [det.document("copy", text)]
    docs += [det.document(f"other{i}", other) for i, other in enumerate(others)]
    index = det.build_index(docs)
    susp = det.document("s", text)
    intersected = []

    class CountingGrams(frozenset):
        def intersection(self, *others):
            intersected.append(others)
            return super().intersection(*others)

    original = Detector._suspect

    def counting(self, doc):
        suspect = original(self, doc)
        return suspect._replace(grams=CountingGrams(suspect.grams))

    monkeypatch.setattr(Detector, "_suspect", counting)
    ranked = det.rank_candidates(susp, index, top_n=1)
    assert len(intersected) < len(index.entries)
    assert ranked == full_ranking(det, susp, index)[:1]
    assert ranked[0][0] == "copy"


def test_rank_bounds_every_entry_after_the_first_and_keeps_the_best(monkeypatch):
    # Each reference shares more of the suspect than the one before it, so
    # with top_n=1 every entry after the first is bounded, passes its bound
    # and is then scored exactly.
    det = Detector()
    sentences = [
        "Sentence alpha is about goals and keepers.",
        "Sentence bravo covers penalty kicks.",
        "Sentence charlie explains offside rules.",
    ]
    docs = [det.document(doc_id, " ".join(sentences[: i + 1])) for i, doc_id in enumerate("abc")]
    index = det.build_index(docs)
    susp = det.document("s", " ".join(sentences))
    expected = full_ranking(det, susp, index)
    assert [doc_id for doc_id, _ in expected] == ["c", "b", "a"]
    bounded = []
    original_bound = simscan.detector.overlap_bound

    def counting_bound(a, b):
        bounded.append(a)
        return original_bound(a, b)

    monkeypatch.setattr(simscan.detector, "overlap_bound", counting_bound)
    ranked = det.rank_candidates(susp, index, top_n=1)
    assert ranked == expected[:1]
    entries = index.entries
    assert [entry.first_grams for entry in (entries["b"], entries["c"])] == bounded


@settings(max_examples=300)
@example(DetectorConfig(features=INDEX_AVAILABLE), "", "Kick the ball.")
@example(DetectorConfig(features=INDEX_AVAILABLE), "Kick the ball. The goal.", "Kick the ball.")
@given(finite_configs(), doc_texts, doc_texts)
def test_bound_pass_bounds_the_exact_pass(cfg, ref_text, susp_text):
    """`_rank`'s invariant: the bound pass differs from the exact one only by
    raising gram counts, so its combined score is never lower."""
    det = Detector(cfg)
    doc = det.document("r", ref_text)
    suspect = det._suspect(det.document("s", susp_text))
    for ref in (Reference(det.entry(doc)), det._reference(doc)):
        bound = det._outcomes(ref, suspect, overlap_bound)
        exact = det._outcomes(ref, suspect)
        assert bound.keys() == exact.keys()
        for name, outcome in exact.items():
            assert outcome_value(bound[name])[1] == outcome_value(outcome)[1], name
            if name not in ("first_sentence", "query_phrase"):
                assert bound[name] == outcome, name
        assert _combine(bound, det._weights) >= _combine(exact, det._weights)


@given(st.one_of(doc_texts, st.text(max_size=200)), st.integers(1, 6))
def test_suspect_equals_separate_computations(text, k):
    det = Detector(DetectorConfig(k_char=k))
    doc = det.document("s", text)
    assert det._suspect(doc) == (
        doc,
        fingerprint_keys(doc),
        top_keywords(doc, det.config.k_top),
        char_kgrams(" ".join(t for s in doc.sentences for t in s.tokens), k).gram_set(),
    )


def test_suspect_counts_grams_once(monkeypatch):
    """One gram pass per distinct gram length: the statement's and k_char."""
    calls = []
    for module in (simscan.detector, simscan.fingerprint):
        original = module.document_grams

        def counted(*args, original=original):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, "document_grams", counted)
    for k_char, ks in ((4, [4]), (3, [4, 3])):
        det = Detector(DetectorConfig(k_char=k_char))
        doc = det.document("s", CORPUS["b"])
        calls.clear()
        det._suspect(doc)
        assert calls == [(doc, k) for k in ks]


def test_analyze_pair_finds_cue_sentences_once(detector, monkeypatch):
    ref = detector.document("r", CORPUS["b"])
    susp = detector.document("s", CORPUS["a"])
    calls = []
    for module in (simscan.detector, simscan.features):
        original = module.cue_sentences

        def counted(doc, *args, original=original):
            calls.append(doc.id)
            return original(doc, *args)

        monkeypatch.setattr(module, "cue_sentences", counted)
    report = detector.analyze_pair(ref, susp)
    assert calls == ["r"]
    assert {"lcs_f", "query_phrase"} <= set(report.scores)


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
    assert out == (
        '{\n  "x": 1.000000000000,\n  "y": [\n    0.500000000000,\n    2\n  ],\n'
        '  "z": "s",\n  "b": true\n}'
    )
    assert json.loads(out) == {"x": 1.0, "y": [0.5, 2], "z": "s", "b": True}

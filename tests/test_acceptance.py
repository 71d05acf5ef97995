"""End-to-end acceptance checks.

One test per criterion; each prints a [PASS]/[FAIL] line, visible with
`pytest tests/test_acceptance.py -v -s`.
"""

import functools
import json
import random
import time
from fractions import Fraction
from itertools import combinations

from fingerprint_oracle import gram_weights

from simscan.cli import main
from simscan.detector import Detector, load_index, save_index
from simscan.features import lcs_similarity
from simscan.fingerprint import (
    char_kgrams,
    full_resemblance,
    outcome_score,
    overlap,
    word_trigrams,
)
from simscan.kernels import lcs_length
from simscan.textprep import document

VOCAB = (
    "ball", "kick", "player", "game", "soccer", "goal", "team", "match",
    "score", "field", "crowd", "coach", "whistle", "corner", "penalty",
    "defender", "keeper", "strike", "pass", "tackle",
)


def _report(number, title):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {number:>2}. {title}")
                raise
            print(f"[PASS] {number:>2}. {title}")

        return wrapper

    return decorator


def random_text(rng, min_sentences=1, max_sentences=4):
    parts = []
    for _ in range(rng.randint(min_sentences, max_sentences)):
        words = [rng.choice(VOCAB) for _ in range(rng.randint(3, 9))]
        parts.append(" ".join(words).capitalize() + ".")
    return " ".join(parts)


@_report(1, "char 4-grams of 'touch' are {touc, ouch}, |D|-k+1 total, <1ms")
def test_criterion_1():
    char_kgrams("touch", 4)  # warm path
    best = min(
        _timed(lambda: char_kgrams("touch", 4)) for _ in range(5)
    )
    ms = char_kgrams("touch", 4)
    assert ms.gram_set() == {"touc", "ouch"}
    assert ms.total == len("touch") - 4 + 1 == 2
    assert best < 0.001, f"took {best:.6f}s"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


@_report(2, "word trigrams of the six-word title form exactly 4 trigrams")
def test_criterion_2():
    [title] = document("d", "Web Based Cross Language Plagiarism Detection").sentences
    assert word_trigrams(title.tokens) == {
        "web based cross",
        "based cross language",
        "cross language plagiarism",
        "language plagiarism detection",
    }


@_report(3, "char 4-grams of 'english word' ignore the space: 8 grams")
def test_criterion_3():
    ms = char_kgrams("english word", 4)
    assert ms.gram_set() == {
        "engl", "ngli", "glis", "lish", "ishw", "shwo", "hwor", "word",
    }
    assert ms.distinct == 8


@_report(4, "LCS F-measure: S1/S2 = 0.75 (LCS 3), S1/S3 = 0.5 (LCS 2)")
def test_criterion_4():
    s1 = document("d", "Player kicked the ball.")
    s2 = document("d", "Player kick the ball.")
    s3 = document("d", "The ball kick player.")
    # One sentence each, so the one sentence pair is the one scored.
    r12 = lcs_similarity(s1, s2, 1.0, ())
    r13 = lcs_similarity(s1, s3, 1.0, ())
    assert r12.detail["lcs_length"] == 3
    assert abs(r12.value - 0.75) <= 1e-12
    assert r13.detail["lcs_length"] == 2
    assert abs(r13.value - 0.5) <= 1e-12


@_report(5, "gram weights: 1000 random multisets sum to 1; exact rationals")
def test_criterion_5():
    rng = random.Random(20240501)
    alphabet = "abcd"
    for _ in range(1000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(4, 40)))
        ms = char_kgrams(text, rng.randint(1, 4))
        weights = gram_weights(ms)
        assert abs(float(sum(weights.values())) - 1.0) <= 1e-9
        assert sum(weights.values()) == Fraction(1)
        for gram, count in ms.counts.items():
            assert weights[gram] == Fraction(count, ms.total)


def _exhaustive_lcs(xs, ys):
    def is_subsequence(needle, haystack):
        it = iter(haystack)
        return all(any(tok == h for h in it) for tok in needle)

    best = 0
    for r in range(len(xs), -1, -1):
        for picks in combinations(range(len(xs)), r):
            candidate = [xs[i] for i in picks]
            if is_subsequence(candidate, ys):
                return len(candidate)
    return best


@_report(6, "oracle equivalence: DP LCS and k-gram counts, 500+ cases each")
def test_criterion_6():
    start = time.perf_counter()
    rng = random.Random(20240502)
    symbols = ("a", "b", "c")
    for _ in range(500):
        xs = [rng.choice(symbols) for _ in range(rng.randint(0, 8))]
        ys = [rng.choice(symbols) for _ in range(rng.randint(0, 8))]
        assert lcs_length(xs, ys) == _exhaustive_lcs(xs, ys)
    for _ in range(500):
        text = "".join(rng.choice("ab c") for _ in range(rng.randint(0, 30)))
        k = rng.randint(1, 5)
        stripped = text.replace(" ", "")
        expected = {}
        for i in range(max(0, len(stripped) - k + 1)):
            gram = stripped[i : i + k]
            expected[gram] = expected.get(gram, 0) + 1
        assert dict(char_kgrams(text, k).counts) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


@_report(7, "score contracts: [0,1] range, self-score 1, Jaccard symmetric")
def test_criterion_7():
    rng = random.Random(20240503)
    det = Detector()
    docs = [det.document(f"doc{i}", random_text(rng)) for i in range(1000)]
    for i, doc in enumerate(docs):
        self_report = det.analyze_pair(doc, doc)
        for name, score in self_report.scores.items():
            assert 0.0 <= score.value <= 1.0, (name, score.value)
        # identity for every feature whose fingerprint covers the whole doc
        for name in ("statement", "top_keyword", "lcs_f"):
            score = self_report.scores[name]
            if not score.degenerate:
                assert score.value == 1.0, (name, score)
        fs = self_report.scores["first_sentence"]
        if not fs.degenerate:
            assert fs.value == fs.detail["size_a"] / fs.detail["size_b"]
            if len(doc.sentences) == 1:
                assert fs.value == 1.0
        other = docs[(i + 1) % len(docs)]
        pair_report = det.analyze_pair(doc, other)
        for name, score in pair_report.scores.items():
            assert 0.0 <= score.value <= 1.0, (name, score.value)
        assert 0.0 <= pair_report.combined <= 1.0
        # full-document schemes score 1 on self-comparison
        words = [t for s in doc.sentences for t in s.tokens]
        grams = char_kgrams(" ".join(words), 4)
        if grams.distinct:
            assert full_resemblance(grams, grams).value == 1.0
        trigrams = word_trigrams(words)
        if trigrams:
            assert outcome_score(overlap(trigrams, trigrams)).value == 1.0
        assert self_report.scores["statement"].value in (0.0, 1.0)
        # Jaccard symmetry on this document pair
        a, b = (
            char_kgrams(" ".join(t for s in d.sentences for t in s.tokens), 4).gram_set()
            for d in (doc, other)
        )
        assert outcome_score(overlap(a, b)).value == outcome_score(overlap(b, a)).value


@_report(8, "end-to-end: self-compare combined 1.0, disjoint pair 0.0")
def test_criterion_8(tmp_path, capsys):
    same = tmp_path / "same.txt"
    same.write_text("the quick brown fox jumps over the lazy dog.\n", encoding="utf-8")
    other = tmp_path / "other.txt"
    other.write_text("zulu xray victor whisky quebec papa.\n", encoding="utf-8")

    assert main(["compare", str(same), str(same)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["combined"] == 1.0

    assert main(["compare", str(same), str(other)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["combined"] == 0.0


@_report(9, "persistence: saved/loaded scan matches in-memory, bytes stable")
def test_criterion_9(tmp_path):
    rng = random.Random(20240504)
    det = Detector()
    docs = [det.document(f"d{i:02d}.txt", random_text(rng)) for i in range(12)]
    index = det.build_index(docs)
    susp = det.document("susp.txt", random_text(rng))
    in_memory = det.rank_candidates(susp, index)

    path = tmp_path / "idx.jsonl"
    save_index(index, path)
    first_bytes = path.read_bytes()
    reloaded = det.rank_candidates(susp, load_index(path))

    assert [doc_id for doc_id, _ in reloaded] == [doc_id for doc_id, _ in in_memory]
    for (_, got), (_, want) in zip(reloaded, in_memory):
        assert abs(got.combined - want.combined) <= 1e-12
        for name in want.scores:
            assert abs(got.scores[name].value - want.scores[name].value) <= 1e-12

    save_index(det.build_index(docs), path)
    assert path.read_bytes() == first_bytes


@_report(10, "statement index is smaller per document than full 4-grams")
def test_criterion_10():
    from simscan.bench import run_bench

    rng = random.Random(20240505)
    det = Detector()
    docs = [
        det.document(f"d{i:02d}.txt", random_text(rng, 2, 6)) for i in range(20)
    ]
    rows = {row.scheme: row for row in run_bench(docs, det)}
    statement = rows["statement"].bytes_per_doc
    full = rows["full_char"].bytes_per_doc
    assert statement < full, (statement, full)

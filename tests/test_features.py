"""The four detection features."""

from collections import Counter

import pytest
from cue_oracle import per_phrase_hits
from hypothesis import example, given
from hypothesis import strategies as st

from simscan import features
from simscan.detector import Detector, DetectorConfig
from simscan.features import (
    DEFAULT_QUERY_PHRASES,
    cue_sentences,
    key_sentence_indices,
    lcs_similarity,
    load_query_phrases,
    top_keywords,
)
from simscan.fingerprint import ResemblanceScore
from simscan.kernels import encode_pair, lcs_length_ids_py
from simscan.porter import stem
from simscan.textprep import Document, Sentence, StemMemo, document

tokens = st.lists(st.sampled_from(["a", "b", "c"]), max_size=12)


def feature_score(name, ref, susp, **config):
    """The pair's `name` score from a one-feature `Detector`, as compare and scan score it."""
    det = Detector(DetectorConfig(features=(name,), **config))
    return det.analyze_pair(ref, susp).scores[name]


def test_default_phrase_list():
    assert DEFAULT_QUERY_PHRASES == (
        "in conclusion,",
        "in general,",
        "we conclude that",
        "we find that",
        "the survey shows that",
        "the experiment shows that",
    )
    assert load_query_phrases() == DEFAULT_QUERY_PHRASES


def test_phrase_file_parsing(tmp_path):
    path = tmp_path / "phrases.txt"
    path.write_text("# cues\nAs shown above...\n\nIn short,\n", encoding="utf-8")
    assert load_query_phrases(path) == ("as shown above", "in short,")


def test_phrase_file_whitespace_runs_are_one_space(tmp_path):
    path = tmp_path / "phrases.txt"
    path.write_text("In   short,\nwe\tfind \t that ...\n", encoding="utf-8")
    assert load_query_phrases(path) == ("in short,", "we find that")


def test_top_keywords_by_frequency_then_alphabet():
    doc = document("d", "ball ball ball ball ball kick kick kick player player.")
    assert top_keywords(doc, 2, frozenset()) == {"ball", "kick"}
    # all equal frequency: alphabetical order decides
    tie = document("t", "delta alpha charlie.")
    assert top_keywords(tie, 1, frozenset()) == {"alpha"}


# Few distinct words in many repeats, so most counts tie.
tied_word_texts = st.lists(
    st.sampled_from(["ball", "goal", "kick", "team", "park", "zone", "bank"]), max_size=30
).map(" ".join)


@given(tied_word_texts, st.integers(1, 8))
def test_top_keywords_match_a_count_then_term_oracle(text, k_top):
    stopwords = frozenset({"park", "zone"})
    doc = document("d", text)
    counts = Counter(stem(t) for s in doc.sentences for t in s.tokens if t not in stopwords)
    expected = sorted(counts, key=lambda term: (-counts[term], term))[:k_top]
    assert top_keywords(doc, k_top, stopwords) == frozenset(expected)


# Words whose stems collide ("play", "plays", "played"), with sentence ends
# after some.  A stopword list may stop one form of a stem and not another.
keyword_texts = st.lists(
    st.sampled_from(
        ["the", "we", "a", "play", "plays", "played", "playing", "ball", "balls.", "Kick",
         "kicked!", "goal", "goals", "relate", "related", "relational?", "it", "its."]
    ),
    max_size=40,
).map(" ".join)
keyword_stopwords = st.frozensets(
    st.sampled_from(["the", "we", "a", "play", "plays", "ball", "kick", "goals", "it", "its"])
)


def oracle_keywords(doc, k_top, stopwords):
    """Stem each non-stopword token with `porter.stem`, count, keep the k best by (-count, stem)."""
    counts = Counter(stem(t) for t in doc.normalized_text.split() if t not in stopwords)
    return frozenset(sorted(counts, key=lambda term: (-counts[term], term))[:k_top])


@given(keyword_texts, keyword_texts, keyword_stopwords, st.integers(1, 12))
def test_top_keywords_stem_and_count_the_non_stopword_tokens(text, other, stopwords, k_top):
    docs = [document("a", text), document("b", other)]
    shared = StemMemo()
    for doc in docs:
        expected = oracle_keywords(doc, k_top, stopwords)
        assert top_keywords(doc, k_top, stopwords, StemMemo()) == expected
        # One memo kept across documents, as a `Detector` keeps it.
        assert top_keywords(doc, k_top, stopwords, shared) == expected


def test_top_keywords_rejects_a_k_top_that_is_not_an_int_from_1():
    doc = document("d", "ball kick goal net.")
    for k_top in (2.5, True, 0):
        with pytest.raises(ValueError, match="k_top must be an int >= 1"):
            top_keywords(doc, k_top)


def test_top_keywords_uses_stemmed_content_terms():
    doc = document("d", "The players played plays. The play!")
    assert top_keywords(doc, 1) == {"plai"}


def test_top_keywords_fewer_terms_than_cap():
    doc = document("d", "just two.")
    assert top_keywords(doc, 10, frozenset()) == {"just", "two"}
    assert top_keywords(document("e", ""), 3, frozenset()) == frozenset()


def test_top_keywords_returns_a_frozenset():
    # `Detector._suspect` intersects it with each index entry's keywords as a set.
    for text in ("The players kicked the balls.", ""):
        assert type(top_keywords(document("d", text), 10)) is frozenset


def test_top_keywords_rejects_bad_cap():
    with pytest.raises(ValueError):
        top_keywords(document("d", "x y."), 0, frozenset())


def test_top_keyword_similarity_worked_jaccard():
    # keyword sets {ball, kick} and {ball, goal}: intersection 1, union 3
    a = document("a", "ball ball kick.")
    b = document("b", "ball ball goal.")
    score = feature_score("top_keyword", a, b, k_top=2)
    assert score.value == pytest.approx(1 / 3)


def test_top_keyword_similarity_identity_and_disjoint():
    a = document("a", "ball kick player.")
    b = document("b", "goal net referee.")
    assert feature_score("top_keyword", a, a).value == 1.0
    assert feature_score("top_keyword", a, b).value == 0.0


def test_top_keyword_similarity_empty_degenerate():
    a = document("a", "")
    score = feature_score("top_keyword", a, a)
    assert score.value == 0.0 and score.degenerate


def test_first_sentence_single_sentence_self_is_one():
    doc = document("d", "the quick brown fox jumps.")
    assert feature_score("first_sentence", doc, doc).value == 1.0


def test_first_sentence_self_is_subset_ratio_for_multi_sentence():
    doc = document("d", "the quick brown fox. pack my box with jugs.")
    score = feature_score("first_sentence", doc, doc)
    assert score.value == score.detail["size_a"] / score.detail["size_b"]
    assert 0 < score.value < 1


def test_first_sentence_disjoint_is_zero():
    a = document("a", "aaaa bbbb.")
    b = document("b", "cccc dddd.")
    assert feature_score("first_sentence", a, b).value == 0.0


def test_first_sentence_empty_ref_degenerate():
    empty, susp = document("e", ""), document("b", "x.")
    score = feature_score("first_sentence", empty, susp)
    assert score.value == 0.0 and score.degenerate


def test_extract_query_phrase_sentences_finds_default_cues():
    doc = document(
        "d",
        "We conclude that the main cause of the social ills is the family problem. "
        "In conclusion, it cannot be denied that teachers play an important role.",
    )
    assert cue_sentences(doc) == (0, 1)


def test_extract_query_phrase_case_insensitive_and_ordered():
    doc = document(
        "d",
        "Filler first sentence here. WE CONCLUDE THAT it works. "
        "More filler. The survey shows that people agree.",
    )
    assert cue_sentences(doc) == (1, 3)


def test_extract_query_phrase_one_hit_per_sentence():
    doc = document("d", "In general, we conclude that both cues appear.")
    assert cue_sentences(doc) == (0,)


def test_cue_phrases_match_in_cue_form(tmp_path):
    """A phrase file's variants of a cue reach the config in the one form it matches."""
    doc = document("d", "Filler first. In conclusion, it works. In general, no.")
    assert cue_sentences(doc, ("in conclusion,",)) == (1,)
    ref = document("r", "In conclusion, it works.")
    path = tmp_path / "phrases.txt"
    for phrase in ("in  conclusion,", "in\tconclusion,", "In conclusion,", " IN \t conclusion, "):
        path.write_text(phrase + "\n", encoding="utf-8")
        det = Detector(DetectorConfig(phrases=load_query_phrases(path)))
        assert det.phrases == ("in conclusion,",)
        assert cue_sentences(doc, det.phrases) == (1,)
        score = feature_score("query_phrase", ref, ref, phrases=det.phrases)
        assert not score.not_applicable
    # A phrase left empty would open every sentence; the file gives none.
    path.write_text("\n \t\n...\n", encoding="utf-8")
    assert load_query_phrases(path) == ()


def test_extract_query_phrase_no_hits():
    assert cue_sentences(document("d", "Nothing here.")) == ()


def test_cue_phrase_matches_only_whole_words():
    doc = document(
        "d", "This is a domain general, task-free method. We find thatched roofs. In general, yes."
    )
    assert cue_sentences(doc) == (2,)


# Mixed-case words drawn so that cue phrases, their substrings and their
# extensions all occur, also inside longer words ("domain general,", "we
# find thatched"); "İ" lowercases to two characters.
cue_words = st.one_of(
    st.sampled_from(
        ["We", "FIND", "that", "In", "general,", "GENERAL", "conclusion,", "x", "\u0130n",
         "domain", "thatched", "2nd"]
    ),
    st.text(max_size=4),
)
cue_texts = st.lists(
    st.lists(cue_words, min_size=1, max_size=6).map(" ".join).map(lambda s: s + "."),
    max_size=5,
).map(" ".join)
phrase_lists = st.one_of(
    st.just(DEFAULT_QUERY_PHRASES),
    st.lists(
        st.one_of(
            st.sampled_from(
                ["we find that", "find", "find that", "in general,", "in", "general",
                 "i\u0307n"]
            ),
            st.text(min_size=1, max_size=2),
        ),
        max_size=4,
    ).map(tuple),
)


@given(cue_texts, phrase_lists)
def test_cue_sentences_match_per_phrase_scan(text, phrases):
    """Phrases in `_cue_form`, as a config holds them, hit what the raw phrases hit."""
    doc = document("d", text)
    cues = tuple(cue for cue in map(features._cue_form, phrases) if cue)
    assert cue_sentences(doc, cues) == per_phrase_hits(doc, phrases)


def test_query_phrase_half_overlap_fixture():
    # k=1 grams of "we conclude that bd" are 12 distinct letters; the
    # suspect "conclud" covers 6 of them and adds none.
    ref = document("r", "We conclude that bd.")
    susp = document("s", "conclud")
    score = feature_score("query_phrase", ref, susp, k_char=1)
    assert score.value == 0.5


def test_query_phrase_identity_on_query_sentence():
    ref = document("r", "We conclude that balls roll.")
    susp = document("s", "We conclude that balls roll.")
    assert feature_score("query_phrase", ref, susp).value == 1.0


def test_query_phrase_no_hits_not_applicable():
    ref = document("r", "No cues in this text at all.")
    score = feature_score("query_phrase", ref, document("s", "x."))
    assert score.value == 0.0
    assert score.not_applicable and not score.degenerate


def test_query_phrase_empty_ref_degenerate():
    score = feature_score("query_phrase", document("r", ""), document("s", "x."))
    assert score.degenerate and not score.not_applicable


def test_shared_flagged_scores_cannot_be_changed_through_their_detail():
    # Every feature returns the same degenerate and not-applicable instances.
    empty, cueless = document("e", ""), document("c", "No cues here.")
    degenerate = lcs_similarity(empty, cueless, 1.0, cue_sentences(empty))
    not_applicable = feature_score("query_phrase", cueless, empty)
    for score in (degenerate, not_applicable):
        with pytest.raises(TypeError):
            score.detail["lcs_length"] = 1
    assert feature_score("query_phrase", empty, cueless) is degenerate
    assert degenerate.detail == {} and not_applicable.detail == {}


def hand_built(doc_id: str, token_lists) -> Document:
    """A Document of these token tuples; unlike `document`'s, a sentence may be empty."""
    sentences = tuple(Sentence(" ".join(t), tuple(t)) for t in token_lists)
    return Document(doc_id, " ".join(" ".join(s.tokens) for s in sentences), sentences)


def pair_score(xs, ys, beta=1.0):
    """The lcs_f score of one sentence pair: `lcs_similarity` of one-sentence documents."""
    return lcs_similarity(hand_built("r", [xs]), hand_built("s", [ys]), beta, ())


def lcs_fmeasure(xs, ys, beta=1.0) -> ResemblanceScore:
    """Oracle: the paper's LCS F-measure of one sentence pair, over the two-row DP.

    R = LCS/m, P = LCS/n and F = (1+b)RP / (R + bP), with b = `beta`, or P/R
    for "paper" (1 where LCS is 0, since P/R is then undefined).  LCS = 0
    scores 0, an empty side is degenerate, and F is clamped to 1, since with
    a huge b rounding can carry it past.  The float operations run in the
    order `lcs_similarity` runs them, so the two agree exactly.
    """
    m, n = len(xs), len(ys)
    length = lcs_length_ids_py(*encode_pair(xs, ys))
    r = length / m if m else 0.0
    p = length / n if n else 0.0
    if beta == "paper":
        b = p / r if length else 1.0
    else:
        b = float(beta) + 0.0
    f = min((1.0 + b) * r * p / (r + b * p), 1.0) if length else 0.0
    detail = {"lcs_length": length, "m": m, "n": n, "r_lcs": r, "p_lcs": p, "beta": b}
    return ResemblanceScore(f, detail, degenerate=not (m and n))


def test_lcs_fmeasure_worked_examples():
    s1 = "player kicked the ball".split()
    s2 = "player kick the ball".split()
    s3 = "the ball kick player".split()
    r12 = pair_score(s1, s2, 1.0)
    assert r12.detail["lcs_length"] == 3
    assert r12.value == 0.75
    r13 = pair_score(s1, s3, 1.0)
    assert r13.detail["lcs_length"] == 2
    assert r13.value == 0.5


def test_lcs_fmeasure_identity_and_zero():
    s = "a b c".split()
    assert pair_score(s, s).value == 1.0
    zero = pair_score(s, ["x"])
    assert zero.detail["lcs_length"] == 0 and zero.value == 0.0


def test_lcs_fmeasure_empty_degenerate():
    res = pair_score([], ["a"])
    assert res.degenerate and res.value == 0.0
    assert pair_score(["a"], []).degenerate


def test_lcs_fmeasure_rejects_bad_mode_and_beta():
    for beta in ("wild", "fixed", -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            pair_score(["a"], ["a"], beta)
        with pytest.raises(ValueError, match="beta must be"):
            DetectorConfig(beta=beta)


def test_lcs_fmeasure_paper_beta_is_one_without_common_words():
    assert pair_score(["a"], ["b"], "paper").detail["beta"] == 1.0
    assert pair_score([], ["b"], "paper").detail["beta"] == 1.0
    assert pair_score(["a", "b"], ["a"], "paper").detail["beta"] == 2.0


@given(tokens, tokens)
def test_lcs_fmeasure_paper_mode_matches_closed_form(xs, ys):
    # substituting beta = P/R turns the F formula into RP(R+P)/(R^2+P^2)
    res = pair_score(xs, ys, "paper")
    r, p = res.detail["r_lcs"], res.detail["p_lcs"]
    if res.detail["lcs_length"] == 0:
        assert res.value == 0.0
    else:
        closed = r * p * (r + p) / (r * r + p * p)
        assert res.value == pytest.approx(closed, abs=1e-9)


betas = st.one_of(
    st.just("paper"), st.floats(min_value=0.0, max_value=8.0), st.integers(min_value=0, max_value=8)
)


# With R = 1 and P = 0.75, F tends to 1 from below as beta grows; unclamped
# it rounded to 1.0000000000000002.
@example(["a", "b", "c"], ["a", "b", "c", "a"], 1.5582952287322294e16)
@given(tokens, tokens, betas)
def test_lcs_fmeasure_bounded(xs, ys, beta):
    res = pair_score(xs, ys, beta)
    assert list(res.detail) == [
        "lcs_length", "m", "n", "r_lcs", "p_lcs", "beta", "ref_sentence", "susp_sentence"
    ]
    assert res.detail["ref_sentence"] == res.detail["susp_sentence"] == 0
    assert 0.0 <= res.value <= 1.0
    length = res.detail["lcs_length"]
    assert length <= min(res.detail["m"], res.detail["n"])
    assert (res.detail["m"], res.detail["n"]) == (len(xs), len(ys))
    assert res.detail["r_lcs"] == (length / len(xs) if xs else 0.0)
    assert res.detail["p_lcs"] == (length / len(ys) if ys else 0.0)
    if beta != "paper":
        assert res.detail["beta"] == float(beta)
        assert type(res.detail["beta"]) is float
    assert res.degenerate == (not xs or not ys)
    if res.degenerate:
        assert res.detail["r_lcs"] == res.detail["p_lcs"] == 0.0


def test_key_sentence_indices():
    doc = document(
        "d",
        "Opening line of the text. Filler. We conclude that it holds. End.",
    )
    assert key_sentence_indices(doc, cue_sentences(doc)) == (0, 2)
    assert key_sentence_indices(doc, ()) == (0,)
    assert key_sentence_indices(document("e", ""), ()) == ()


def test_lcs_similarity_picks_best_pair():
    ref = document("r", "Player kicked the ball.")
    susp = document(
        "s", "Unrelated words entirely here. Player kick the ball."
    )
    score = lcs_similarity(ref, susp, 1.0, cue_sentences(ref))
    assert score.value == 0.75
    assert score.detail["ref_sentence"] == 0
    assert score.detail["susp_sentence"] == 1


def test_lcs_similarity_uses_query_sentences_too():
    ref = document(
        "r", "Totally different opening words. We conclude that players kick balls."
    )
    susp = document("s", "We conclude that players kick balls.")
    assert lcs_similarity(ref, susp, 1.0, cue_sentences(ref)).value == 1.0
    # Without the cue sentence only the opening one is key.
    assert lcs_similarity(ref, susp, 1.0, ()).value < 1.0


def test_lcs_similarity_empty_inputs_degenerate():
    ref = document("r", "Some words here.")
    empty = document("e", "")
    assert lcs_similarity(ref, empty, 1.0, cue_sentences(ref)).degenerate
    assert lcs_similarity(empty, ref, 1.0, cue_sentences(empty)).degenerate


# Sentences of up to five tokens over three words, empty ones included; ties
# are common.  Cue picks beyond the reference's last sentence are dropped.
sentence_lists = st.lists(st.lists(st.sampled_from(["a", "b", "c"]), max_size=5), max_size=4)
cue_picks = st.sets(st.integers(min_value=0, max_value=3))
lcs_betas = st.one_of(st.sampled_from((0, 0.5, 1, 2, "paper")), betas)


# Key sentence and suspect sentences of equal length that tie on F: the first wins.
@example([["a", "b"]], set(), [["a", "c"], ["c", "b"]], 1)
@example([["a", "b"]], set(), [["a", "c"], ["c", "b"]], "paper")
# The bound skips the second pair of the first example.  In the second, the
# exact match follows a pair of F 6/7; a bound taken at LCS = min(m, n) - 1
# (F 2/3) would skip it too.
@example([["a", "b"]], set(), [["a", "b"], ["a"]], 1)
@example([["a", "b", "c"]], set(), [["a", "b"], ["a", "b", "c"]], 0.5)
# Empty sentences on either side score 0 and can still win, as degenerate.
@example([[], ["a"]], {1}, [[], ["a"]], 2)
@example([[]], set(), [[]], 0)
# Unclamped, F rounds to 1.0000000000000002 here.
@example([["a", "b", "c"]], set(), [["a", "b", "c", "a"]], 1.5582952287322294e16)
@given(sentence_lists, cue_picks, sentence_lists, lcs_betas)
def test_lcs_similarity_matches_brute_force_first_maximum(ref_lists, picks, susp_lists, beta):
    ref = hand_built("r", ref_lists)
    susp = hand_built("s", susp_lists)
    cues = sorted(i for i in picks if i < len(ref_lists))
    best = None
    for ki in key_sentence_indices(ref, cues):
        for si, sentence in enumerate(susp.sentences):
            result = lcs_fmeasure(ref.sentences[ki].tokens, sentence.tokens, beta)
            if best is None or result.value > best[0].value:
                best = (result, ki, si)
    score = lcs_similarity(ref, susp, beta, cues)
    if best is None:
        assert score.value == 0.0 and score.degenerate and not score.detail
        return
    result, ki, si = best
    assert 0.0 <= score.value <= 1.0
    assert score.value == result.value
    assert score.degenerate == result.degenerate
    assert dict(score.detail) == {
        "lcs_length": result.detail["lcs_length"],
        "m": result.detail["m"],
        "n": result.detail["n"],
        "r_lcs": result.detail["r_lcs"],
        "p_lcs": result.detail["p_lcs"],
        "beta": result.detail["beta"],
        "ref_sentence": ki,
        "susp_sentence": si,
    }


def test_lcs_similarity_calls_the_kernel_positionally_on_fewer_pairs(monkeypatch):
    # The benchmark's tracer wraps `features.lcs_length` with a wrapper that
    # takes positional arguments only; the scan must still call through it.
    ref = document("r", "Players kick the ball hard. We find that the goal came late in the game.")
    susp = document(
        "s",
        "Some other words open it. Players kick the ball hard. Then a short one. "
        "We find that the goal came late in the game. It ends here.",
    )
    cues = cue_sentences(ref)
    unwrapped = lcs_similarity(ref, susp, 1.0, cues)
    # Replay the scan: the kernel runs once per non-empty pair the bound keeps.
    kept, best = 0, -1.0
    for ki in key_sentence_indices(ref, cues):
        xs = ref.sentences[ki].tokens
        for sentence in susp.sentences:
            ys = sentence.tokens
            if features._lcs_f(min(len(xs), len(ys)), len(xs), len(ys), 1.0)[3] < best:
                continue
            kept += bool(xs and ys)
            best = max(best, lcs_fmeasure(xs, ys).value)
    calls = []
    kernel = features.lcs_length

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(features, "lcs_length", counted)
    score = lcs_similarity(ref, susp, 1.0, cues)
    assert calls
    assert len(calls) == kept
    assert len(calls) < len(key_sentence_indices(ref, cues)) * len(susp.sentences)
    assert score.value == unwrapped.value == 1.0
    assert score.detail == unwrapped.detail

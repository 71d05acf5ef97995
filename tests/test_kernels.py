"""LCS kernel: agreement with the DP and exhaustive oracles, one segmented
pass against many sequences, encoding, and algebraic properties."""

from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

from simscan import kernels

ids = st.lists(st.integers(min_value=0, max_value=4), max_size=24)
short_ids = st.lists(st.integers(min_value=0, max_value=2), max_size=8)
# Long enough that the bit masks and their carries span several 64-bit words.
long_ids = st.lists(st.integers(min_value=0, max_value=6), min_size=65, max_size=300)
words = st.lists(st.sampled_from(["the", "ball", "kick", "player", "a", ""]), max_size=40)


def exhaustive_lcs(xs, ys) -> int:
    """Oracle: longest subsequence of xs that is also a subsequence of ys."""
    def subsequences(seq):
        for r in range(len(seq), -1, -1):
            for picks in combinations(range(len(seq)), r):
                yield [seq[i] for i in picks]

    def is_subsequence(needle, haystack):
        it = iter(haystack)
        return all(any(tok == h for h in it) for tok in needle)

    for candidate in subsequences(list(xs)):
        if is_subsequence(candidate, ys):
            return len(candidate)
    return 0


def test_backend_is_declared():
    assert kernels.LCS_BACKEND == "pure-python"


@given(short_ids, short_ids)
def test_matches_exhaustive_oracle(xs, ys):
    assert kernels.lcs_length(xs, ys) == exhaustive_lcs(xs, ys)


def agrees_with_dp(xs, ys):
    return kernels.lcs_length(xs, ys) == kernels.lcs_length_ids_py(
        *kernels.encode_pair(xs, ys)
    )


@given(ids, ids)
def test_backends_agree(xs, ys):
    assert agrees_with_dp(xs, ys)


@given(long_ids, long_ids)
def test_long_sequences_agree_with_dp(xs, ys):
    assert agrees_with_dp(xs, ys)


@given(words, words)
def test_string_tokens_agree_with_dp(xs, ys):
    assert agrees_with_dp(xs, ys)


@given(ids, ids)
def test_symmetry_and_bounds(xs, ys):
    length = kernels.lcs_length(xs, ys)
    assert length == kernels.lcs_length(ys, xs)
    assert 0 <= length <= min(len(xs), len(ys))


@given(ids)
def test_identity(xs):
    assert kernels.lcs_length(xs, xs) == len(xs)


@given(ids, ids, st.integers(min_value=0, max_value=4))
def test_appending_common_token_adds_one(xs, ys, token):
    base = kernels.lcs_length(xs, ys)
    assert kernels.lcs_length(xs + [token], ys + [token]) == base + 1


# One sequence and several to match it against, all over one alphabet: empty
# ones, ones longer than a 64-bit word, repeated tokens, and tokens of the
# one sequence that no other holds.
one_against_many = st.one_of(
    *(st.tuples(seq, st.lists(seq, max_size=6)) for seq in (ids, long_ids, words, short_ids))
)


@given(one_against_many, st.sets(st.integers(min_value=0, max_value=9) | st.sampled_from(["x", "a"])))
def test_one_table_serves_many_sequences(case, extra):
    xs, yss = case
    # The table may hold masks for tokens that `xs` lacks; it needs those `xs` has.
    table = kernels.segment_table(yss, set(xs) | extra)
    lengths = kernels.lcs_lengths(xs, table)
    assert lengths == [kernels.lcs_length_ids_py(*kernels.encode_pair(xs, ys)) for ys in yss]
    assert lengths == [kernels.lcs_length(xs, ys) for ys in yss]
    # The pass leaves the table as it was, so it serves the next sequence too.
    assert table == kernels.segment_table(yss, set(xs) | extra)


@given(st.lists(st.one_of(ids, long_ids, words), max_size=4), st.sets(st.sampled_from(range(5))))
def test_segment_table_gives_each_token_a_bit_and_each_sequence_a_zero_guard(yss, vocab):
    table = kernels.segment_table(yss, vocab)
    assert table.width == sum(len(ys) + 1 for ys in yss)
    bits = format(table.ones, f"0{table.width}b")[::-1]
    start = 0
    for ys, (a, b) in zip(yss, table.bounds):
        # Bit start + j is token j of ys; `bounds` reads it from the high end.
        assert (a, b) == (table.width - start - len(ys), table.width - start)
        assert bits[start : start + len(ys) + 1] == "1" * len(ys) + "0"
        for token, mask in table.masks.items():
            assert all((mask >> (start + j) & 1) == (y == token) for j, y in enumerate(ys))
        start += len(ys) + 1
    assert set(table.masks) == vocab & {y for ys in yss for y in ys}
    assert all(mask & ~table.ones == 0 for mask in table.masks.values())


def test_encode_pair_shares_ids():
    a, b = kernels.encode_pair(["x", "y", "x"], ["y", "z"])
    assert list(a) == [0, 1, 0]
    assert list(b) == [1, 2]


@given(st.lists(st.text(max_size=3), max_size=15), st.lists(st.text(max_size=3), max_size=15))
def test_encoding_preserves_equality_structure(xs, ys):
    a, b = kernels.encode_pair(xs, ys)
    joined_tokens = list(xs) + list(ys)
    joined_ids = list(a) + list(b)
    for i in range(len(joined_tokens)):
        for j in range(len(joined_tokens)):
            assert (joined_tokens[i] == joined_tokens[j]) == (
                joined_ids[i] == joined_ids[j]
            )


def test_word_level_tokens():
    assert kernels.lcs_length(
        "player kicked the ball".split(), "player kick the ball".split()
    ) == 3
    assert kernels.lcs_length(
        "player kicked the ball".split(), "the ball kick player".split()
    ) == 2


def test_empty_inputs():
    assert kernels.lcs_length([], []) == 0
    assert kernels.lcs_length(["a"], []) == 0
    assert kernels.lcs_length([], ["a"]) == 0

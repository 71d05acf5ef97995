"""Bit-parallel longest-common-subsequence lengths of one sequence against many.

The kernel runs the bit-vector recurrence of Allison & Dix, *A bit-string
longest-common-subsequence algorithm* (IPL 1986), in the form of Hyyrö,
*Bit-parallel LCS-length computation revisited* (2004), packed so that one
pass serves many sequences at once, as in Hyyrö, Fredriksson & Navarro,
*Increased bit-parallelism for approximate and multiple string matching*
(JEA 2005).

``segment_table(seqs, vocab)`` lays the sequences end to end in one Python
int, one bit per token, with a zero guard bit after each sequence, and keeps
one bit mask per token of ``vocab`` that they hold.  ``lcs_lengths(xs,
table)`` then walks the tokens of ``xs`` once, with one big-int update per
token, and returns the LCS length of ``xs`` with every sequence of the
table: the count of zero bits in that sequence's segment.  The guard bit
takes the carry out of a segment and is cleared after every step, so no
segment sees another.  ``features.lcs_similarity`` builds one table per
suspect and makes one pass per key sentence.  ``lcs_length(xs, ys)`` is the
case of one segment.

Tokens may be any hashable values, so word and character sequences are
handled alike, and sequences of any length need no native code.
``lcs_length_ids_py`` is the classic two-row DP over ``encode_pair`` ids;
the tests and the benchmark check the bit-parallel kernel against it.
"""

from __future__ import annotations

from array import array
from typing import Collection, Hashable, Iterable, NamedTuple, Sequence

# The kernel in use; this pure-Python one is the only one.
LCS_BACKEND = "pure-python"


def lcs_length_ids_py(xs: Sequence[int], ys: Sequence[int]) -> int:
    """Reference LCS length over integer id sequences (two-row DP)."""
    m, n = len(xs), len(ys)
    if m == 0 or n == 0:
        return 0
    prev = [0] * (n + 1)
    for xi in xs:
        curr = [0] * (n + 1)
        for j, yj in enumerate(ys):
            if yj == xi:
                curr[j + 1] = prev[j] + 1
            else:
                left = curr[j]
                up = prev[j + 1]
                curr[j + 1] = left if left > up else up
        prev = curr
    return prev[n]


def encode_pair(
    xs: Sequence[Hashable], ys: Sequence[Hashable]
) -> tuple[array, array]:
    """Map two token sequences onto shared dense int ids."""
    ids: dict[Hashable, int] = {}
    encoded = []
    for seq in (xs, ys):
        out = array("i")
        for token in seq:
            code = ids.get(token)
            if code is None:
                code = len(ids)
                ids[token] = code
            out.append(code)
        encoded.append(out)
    return encoded[0], encoded[1]


class SegmentTable(NamedTuple):
    """Sequences laid end to end in the bits of one int (see `segment_table`)."""

    masks: dict[Hashable, int]  # a vocab token: the bits of its positions
    ones: int  # every token's bit; the guard bits are zero
    width: int  # bits in all, guard bits included
    bounds: tuple[tuple[int, int], ...]  # each sequence's slice of the `width`-digit binary


def segment_table(seqs: Iterable[Sequence[Hashable]], vocab: Collection[Hashable]) -> SegmentTable:
    """The kernel's table of `seqs`, with masks for the tokens of `vocab` only.

    Token j of a sequence that starts at bit `start` owns bit start + j, and
    the bit after the sequence is its guard.  A token outside `vocab` gets no
    mask, so a pass over it leaves every segment as it is, just as it would
    over a token that no sequence holds.
    """
    masks: dict[Hashable, int] = {}
    spans = []
    pos = 0
    for seq in seqs:
        start = pos
        for token in seq:
            if token in vocab:
                masks[token] = masks.get(token, 0) | (1 << pos)
            pos += 1
        spans.append((start, pos))
        pos += 1
    ones = sum((1 << end) - (1 << start) for start, end in spans)
    # Bit i is digit pos - 1 - i of the binary string `lcs_lengths` reads.
    return SegmentTable(masks, ones, pos, tuple((pos - end, pos - start) for start, end in spans))


def lcs_lengths(xs: Sequence[Hashable], table: SegmentTable) -> list[int]:
    """The LCS length of `xs` with each sequence of `table`, in table order."""
    masks, ones = table.masks, table.ones
    # Zero bits of v mark the matched positions; a carry out of a segment
    # lands in its guard bit and `& ones` clears it before the next step.
    v = ones
    for token in xs:
        mask = masks.get(token)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & ones
    bits = format(v, f"0{table.width}b")
    return [bits.count("0", a, b) for a, b in table.bounds]


def lcs_length(xs: Sequence[Hashable], ys: Sequence[Hashable]) -> int:
    """Length of the longest common subsequence of two token sequences."""
    return lcs_lengths(xs, segment_table((ys,), frozenset(xs)))[0]

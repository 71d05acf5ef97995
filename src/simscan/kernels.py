"""Bit-parallel longest-common-subsequence length.

``lcs_length`` runs the bit-vector recurrence of Allison & Dix, *A
bit-string longest-common-subsequence algorithm* (IPL 1986), in the form of
Hyyrö, *Bit-parallel LCS-length computation revisited* (2004).  Each token
of ``xs`` owns one bit of a Python int, so one row of the DP table is a
single big-int update and sequences of any length need no native code.

Tokens may be any hashable values, so word and character sequences are
handled alike.  ``match_masks`` builds the kernel's table of ``xs``: one
bit mask per distinct token.  A caller that matches one sequence against
many, as ``features.lcs_similarity`` does with each key sentence, builds it
once and passes it to every ``lcs_length`` call.  ``lcs_length_ids_py`` is
the classic two-row DP over ``encode_pair`` ids; the tests and the
benchmark check the bit-parallel kernel against it.
"""

from __future__ import annotations

from array import array
from typing import Hashable, Sequence

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


def match_masks(xs: Sequence[Hashable]) -> dict[Hashable, int]:
    """Each token of `xs` mapped to the int whose bit i is set where `xs[i]` is that token."""
    masks: dict[Hashable, int] = {}
    for i, token in enumerate(xs):
        masks[token] = masks.get(token, 0) | (1 << i)
    return masks


def lcs_length(
    xs: Sequence[Hashable],
    ys: Sequence[Hashable],
    masks: dict[Hashable, int] | None = None,
) -> int:
    """Length of the longest common subsequence of two token sequences.

    `masks` must be `match_masks(xs)`; it is built here when not given.
    """
    if masks is None:
        masks = match_masks(xs)
    full = (1 << len(xs)) - 1
    # Zero bits of v mark the matched positions of xs; carries above bit
    # len(xs) never flow back down, so they are masked off once at the end.
    v = full
    for token in ys:
        u = v & masks.get(token, 0)
        v = (v + u) | (v - u)
    return len(xs) - (v & full).bit_count()

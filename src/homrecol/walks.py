"""Walk algebra for triangle-free reflexive hosts.

Walks are nonempty vertex tuples; a single vertex is the identity walk at its
basepoint.  Closed walks carry an explicit closing vertex (first == last).
In a triangle-free host every fixed-endpoint class has a unique reduced
representative (no immediate repeats, no backtracks), which makes homotopy
questions plain sequence comparisons after reduction.
"""

from __future__ import annotations

from itertools import islice
from math import isqrt
from operator import eq, ne
from typing import NamedTuple, Sequence

from .errors import InternalError, InvalidInputError
from .graphs import Graph

Walk = tuple[int, ...]


def check_walk(h: Graph, seq: Sequence[int]) -> Walk:
    """Validate seq as a walk in h (repeats need a loop); return it as a tuple."""
    if not seq:
        raise InvalidInputError("a walk needs at least one vertex")
    for x in seq:
        if not (0 <= x < h.n):
            raise InvalidInputError(f"walk vertex {x} out of range")
    for a, b in zip(seq, seq[1:]):
        if b not in h.adj_sets[a]:
            raise InvalidInputError(f"walk step {a} -> {b} is not an edge")
    return tuple(seq)


def concat(x: Walk, y: Walk) -> Walk:
    if x[-1] != y[0]:
        raise InternalError(f"cannot concatenate: {x[-1]} != {y[0]}")
    return x + y[1:]


def reverse(x: Walk) -> Walk:
    return x[::-1]


def is_reduced(seq: Sequence[int]) -> bool:
    """True iff seq has no immediate repeat (x, x) and no backtrack (x, y, x).

    Both scans read seq in place, against itself shifted by one and by two.
    """
    return all(map(ne, seq, islice(seq, 1, None))) and all(map(ne, seq, islice(seq, 2, None)))


def is_cyclically_reduced(c: Walk) -> bool:
    """True iff the closed walk c (first == last) is reduced read round the
    cycle, and is more than a point.

    This is the tightness rule: a cycle of G whose image is cyclically
    reduced is tight, so frozen.  It reads colours only; the caller has
    checked that c is a closed walk.  Read round the cycle, c continues
    with c[1], c[2], ...; the pairs that cross the closing vertex are
    tested directly, so c is never copied.
    """
    if len(c) < 2 or c[-1] == c[1] or not is_reduced(c):
        return False
    return len(c) < 3 or (c[-2] != c[1] and c[-1] != c[2])


def reduce_walk(x: Sequence[int]) -> Walk:
    """The unique shortest walk with the same endpoints in x's homotopy class.

    One stack pass removes immediate repeats (x, x) and backtracks (x, y, x);
    the stack is reduced after every push, so each input vertex costs O(1)
    amortized.
    """
    out: list[int] = []
    push = out.append
    for v in x:
        push(v)
        m = len(out)
        if m >= 2 and out[-2] == v:
            out.pop()
        elif m >= 3 and out[-3] == v:
            del out[-2:]
    return tuple(out)


class FreeDecomposition(NamedTuple):
    """Split of a closed walk into a tail and a cyclically reduced core.

    tail runs from the original basepoint to the core's first vertex; core is
    the cyclic word of the free-homotopy class, stored in its as-computed
    rotation (shift_match compares two cores up to rotation).  The class is
    contractible iff core is empty.
    """

    tail: Walk
    core: Walk


def free_decomposition(c: Walk) -> FreeDecomposition:
    """Reduce with fixed endpoints, then strip matching ends until cyclically reduced.

    The strip step removes the basepoint while its two neighbours on the walk
    agree, extending the tail one edge; a reduced closed walk admits no other
    shortening, so the result is the unique decomposition.
    """
    if c[0] != c[-1]:
        raise InternalError("free decomposition is for closed walks")
    red = reduce_walk(c)
    if len(red) == 1:
        return FreeDecomposition(tail=red, core=())
    lo, hi = 0, len(red) - 1
    while red[lo + 1] == red[hi - 1]:
        lo += 1
        hi -= 1
    if hi - lo < 4:
        raise InternalError("cyclically reduced closed walk shorter than 4")
    return FreeDecomposition(tail=red[: lo + 1], core=red[lo:hi])


def _failure_function(seq: Sequence[int]) -> list[int]:
    lps = [0] * len(seq)
    length = 0
    for i in range(1, len(seq)):
        while length and seq[i] != seq[length]:
            length = lps[length - 1]
        if seq[i] == seq[length]:
            length += 1
        lps[i] = length
    return lps


def primitive_root(core: Walk) -> Walk:
    """Shortest prefix whose repetition gives the cyclic word core.

    Its length is the least divisor p of len(core) with core[i] ==
    core[i + p] throughout, each divisor tried by one C-level scan of
    core against itself shifted by p, which stops at the first mismatch.
    By the Fine-Wilf theorem it is also the least period of core when
    that divides len(core), and len(core) otherwise.
    """
    if not core:
        raise InternalError("primitive root of an empty core")
    m = len(core)
    low = [p for p in range(1, isqrt(m) + 1) if not m % p]
    for period in low + [m // p for p in reversed(low)]:
        if all(map(eq, core, islice(core, period, None))):
            break
    if period != m and period < 4:
        raise InternalError("cyclically reduced core with period < 4")
    return core[:period]


def shift_match(a: Walk, b: Walk) -> int | None:
    """Smallest k >= 0 with b[j] == a[(j + k) % len] for all j, else None.

    This is the free-homotopy rule on two cores: the classes agree iff it is
    not None.  Two empty words (both classes contractible) match at 0, and
    words of different lengths never match.  Reversed matches deliberately
    do not count; a free class is matched by rotations only.
    """
    if len(a) != len(b):
        return None
    m = len(a)
    if not m:
        return 0
    lps = _failure_function(b)
    j = 0
    for i in range(2 * m):
        x = a[i] if i < m else a[i - m]
        while j and x != b[j]:
            j = lps[j - 1]
        if x == b[j]:
            j += 1
        if j == m:
            k = i - m + 1
            return k if k < m else None
    return None

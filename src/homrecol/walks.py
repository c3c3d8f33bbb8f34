"""Walk algebra for triangle-free reflexive hosts.

Walks are nonempty vertex tuples; a single vertex is the identity walk at its
basepoint.  Closed walks carry an explicit closing vertex (first == last).
In a triangle-free host every fixed-endpoint class has a unique reduced
representative (no immediate repeats, no backtracks), which makes homotopy
questions plain sequence comparisons after reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def basepoint_change(w: Walk, c: Walk) -> Walk:
    """Conjugate the closed walk c by w: the closed walk w . c . reverse(w)."""
    if c[0] != c[-1]:
        raise InternalError("basepoint change needs a closed walk")
    if w[-1] != c[0]:
        raise InternalError("walk must end at the basepoint of the closed walk")
    return w + c[1:] + w[-2::-1]


def closed_power(c: Walk, d: int) -> Walk:
    """The closed walk traversed d times (negative d reverses); d=0 is the point."""
    if c[0] != c[-1]:
        raise InternalError("power of a non-closed walk")
    if d < 0:
        c = reverse(c)
        d = -d
    out = (c[0],)
    for _ in range(d):
        out = out + c[1:]
    return out


def cyclic_shift(c: Walk, k: int) -> Walk:
    """Rotate the closed walk c so it starts k steps along."""
    if c[0] != c[-1]:
        raise InternalError("cyclic shift of a non-closed walk")
    body = c[:-1]
    if not body:  # the identity walk rotates to itself
        return c
    k %= len(body)
    body = body[k:] + body[:k]
    return body + (body[0],)


def is_reduced(seq: Sequence[int]) -> bool:
    return all(seq[i] != seq[i + 1] for i in range(len(seq) - 1)) and all(
        seq[i] != seq[i + 2] for i in range(len(seq) - 2)
    )


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


def is_contractible(c: Walk) -> bool:
    if c[0] != c[-1]:
        raise InternalError("contractibility is for closed walks")
    return len(reduce_walk(c)) == 1


def homotopic(x: Walk, y: Walk) -> bool:
    if x[0] != y[0] or x[-1] != y[-1]:
        raise InternalError("homotopy needs matching endpoints")
    return reduce_walk(x) == reduce_walk(y)


@dataclass(frozen=True)
class FreeDecomposition:
    """Split of a closed walk into a tail and a cyclically reduced core.

    tail runs from the original basepoint to the core's first vertex; core is
    the cyclic word of the free-homotopy class, stored in its as-computed
    rotation (shift_match compares two cores up to rotation).
    """

    tail: Walk
    core: Walk

    @property
    def contractible(self) -> bool:
        return not self.core

    def core_walk(self) -> Walk:
        """The core as a closed walk based at the tail's endpoint."""
        if not self.core:
            return (self.tail[-1],)
        return self.core + (self.core[0],)


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
    """Shortest prefix whose repetition gives the cyclic word core."""
    if not core:
        raise InternalError("primitive root of an empty core")
    m = len(core)
    period = m - _failure_function(core)[-1]
    if m % period:
        period = m
    if period != m and period < 4:
        raise InternalError("cyclically reduced core with period < 4")
    return core[:period]


def shift_match(a: Walk, b: Walk) -> int | None:
    """Smallest k >= 0 with b[j] == a[(j + k) % len] for all j, else None.

    Reversed matches deliberately do not count; a free class is matched by
    rotations only.
    """
    if not a or not b:
        raise InternalError("shift match needs nonempty cyclic words")
    if len(a) != len(b):
        return None
    m = len(a)
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

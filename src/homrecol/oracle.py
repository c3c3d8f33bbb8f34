"""Brute-force ground truth used to cross-check the solver and walk algebra.

Nothing here routes through walks.reduce_walk: the cover lift, the raw
move-graph search and random-order rewriting are independent computations,
deliberately kept at desk scale.
"""

from __future__ import annotations

import random
from collections import deque
from enum import Enum
from typing import Sequence

from .errors import InternalError, InvalidInputError
from .graphs import Graph, is_homomorphism


class Answer(Enum):
    YES = "yes"
    NO = "no"
    BUDGET_EXCEEDED = "budget-exceeded"


def reduce_via_cover(h: Graph, x: Sequence[int]) -> tuple[int, ...]:
    """Reduce a walk by lifting it into the universal cover of h.

    Cover vertices are walks from x[0] with no repeats at distance 1 or 2,
    tracked as a stack; the lift of each input edge either stays put (loop),
    steps to the parent, or extends by a child.  The cover is a tree, so the
    geodesic from the root to the final cover vertex projects to the stack
    itself, which is the reduced walk.
    """
    stack = [x[0]]
    for cur in x[1:]:
        top = stack[-1]
        if cur not in h.adj_sets[top]:
            raise InvalidInputError(f"not a walk: step {top} -> {cur}")
        if cur == top:
            continue
        if len(stack) >= 2 and stack[-2] == cur:
            stack.pop()
        else:
            stack.append(cur)
    return tuple(stack)


def _move_neighbours(h: Graph, w: tuple[int, ...], max_vertices: int):
    """Walks one elementary homotopy move away (endpoints fixed)."""
    n = len(w)
    if n < max_vertices:  # insert a repeat anywhere (needs a loop there)
        for i in range(n):
            if w[i] in h.loops:
                yield w[: i + 1] + (w[i],) + w[i + 1 :]
    for i in range(n - 1):  # delete one of an equal pair
        if w[i] == w[i + 1]:
            yield w[:i] + w[i + 1 :]
    for i in range(1, n - 1):  # middle-vertex replacements
        if w[i - 1] == w[i + 1]:
            z = w[i - 1]
            if w[i] != z:
                if z in h.loops:
                    yield w[:i] + (z,) + w[i + 1 :]
            else:
                for c in h.adj[z]:
                    if c != z:
                        yield w[:i] + (c,) + w[i + 1 :]


def enumerate_walk_class(
    h: Graph, x: Sequence[int], max_len: int, max_states: int = 200_000
) -> set[tuple[int, ...]] | Answer:
    """All walks reachable from x by moves, capped at max_len edges."""
    start = tuple(x)
    if len(start) - 1 > max_len:
        raise InternalError("length cap below the input walk")
    seen = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for y in _move_neighbours(h, w, max_len + 1):
            if y not in seen:
                if len(seen) >= max_states:
                    return Answer.BUDGET_EXCEEDED
                seen.add(y)
                queue.append(y)
    return seen


def brute_homotopy(
    h: Graph, x1: Sequence[int], x2: Sequence[int], max_len: int, max_states: int = 200_000
) -> Answer:
    """Decide homotopy by searching the move graph directly.

    Closing the search under the cap decides exactly: two homotopic walks are
    joined through their stepwise shortenings, which never lengthen a walk,
    so a cap covering both inputs suffices.
    """
    a, b = tuple(x1), tuple(x2)
    if a[0] != b[0] or a[-1] != b[-1]:
        raise InternalError("homotopy needs matching endpoints")
    if max_len < max(len(a), len(b)) - 1:
        raise InternalError("length cap below the input walks")
    if a == b:
        return Answer.YES
    seen = {a}
    queue = deque([a])
    while queue:
        w = queue.popleft()
        for y in _move_neighbours(h, w, max_len + 1):
            if y not in seen:
                if y == b:
                    return Answer.YES
                if len(seen) >= max_states:
                    return Answer.BUDGET_EXCEEDED
                seen.add(y)
                queue.append(y)
    return Answer.NO


def random_order_reduce(
    rng: random.Random, h: Graph, x: Sequence[int]
) -> tuple[int, ...]:
    """Apply shortening rewrites in random order until none apply."""
    w = list(x)
    while True:
        spots: list[tuple[int, int]] = []
        for i in range(len(w) - 1):
            if w[i] == w[i + 1]:
                spots.append((i, 1))  # drop w[i+1]
        for i in range(len(w) - 2):
            if w[i] == w[i + 2]:
                spots.append((i, 2))  # drop w[i+1], w[i+2]
        if not spots:
            return tuple(w)
        i, kind = spots[rng.randrange(len(spots))]
        del w[i + 1 : i + 1 + kind]


def random_expand(
    rng: random.Random, h: Graph, x: Sequence[int], steps: int
) -> tuple[int, ...]:
    """Random walk in the move graph biased toward growing the walk."""
    w = tuple(x)
    for _ in range(steps):
        grow = [y for y in _move_neighbours(h, w, len(w) + 2) if len(y) >= len(w)]
        if not grow:
            break
        w = grow[rng.randrange(len(grow))]
    return w


def hom_graph_path(
    g: Graph, h: Graph, phi: Sequence[int], psi: Sequence[int], max_states: int = 10**6
) -> list[tuple[int, ...]] | Answer:
    """A shortest move-by-move path from phi to psi, by BFS over single-vertex moves.

    On YES the path lists the colourings from phi to psi, each one move from
    the last; otherwise the answer is NO, exact, or BUDGET_EXCEEDED, never
    coerced to NO.  The budget counts visited states, the start included.

    A state packs one colour per vertex into an int, 4 bits each for hosts of
    at most 16 vertices and 8 bits beyond.  h's closed neighbourhoods become
    bitmasks, so the legal new colours for vertex v are the AND of its
    neighbours' masks; a looped vertex lists itself, which encodes the rule
    "stay adjacent to your own old colour".  Vertices are tried in order and
    colours in increasing order.
    """
    if not is_homomorphism(g, h, phi) or not is_homomorphism(g, h, psi):
        raise InvalidInputError("endpoints must be homomorphisms")
    if h.n > 64:
        raise InvalidInputError("oracle supports hosts with at most 64 vertices")
    masks = [0] * h.n
    for v in range(h.n):
        for u in h.adj[v]:
            masks[v] |= 1 << u
    g_adj = g.adj
    n = g.n
    bits = 4 if h.n <= 16 else 8
    colour_mask = (1 << bits) - 1

    def unpack(state: int) -> tuple[int, ...]:
        return tuple((state >> (bits * v)) & colour_mask for v in range(n))

    s0 = t0 = 0
    for v in range(n - 1, -1, -1):
        s0 = (s0 << bits) | phi[v]
        t0 = (t0 << bits) | psi[v]
    if s0 == t0:
        return [unpack(s0)]

    full = (1 << h.n) - 1
    prev: dict[int, int | None] = {s0: None}
    queue = deque([s0])
    while queue:
        state = queue.popleft()
        cols = [(state >> (bits * v)) & colour_mask for v in range(n)]
        for v in range(n):
            allowed = full
            for u in g_adj[v]:
                allowed &= masks[cols[u]]
            allowed &= ~(1 << cols[v])
            base = state & ~(colour_mask << (bits * v))
            while allowed:
                c = (allowed & -allowed).bit_length() - 1
                allowed &= allowed - 1
                nxt = base | (c << (bits * v))
                if nxt not in prev:
                    if nxt == t0:
                        chain = [nxt]
                        back: int | None = state
                        while back is not None:
                            chain.append(back)
                            back = prev[back]
                        return [unpack(s) for s in reversed(chain)]
                    if len(prev) >= max_states:
                        return Answer.BUDGET_EXCEEDED
                    prev[nxt] = state
                    queue.append(nxt)
    return Answer.NO


def hom_graph_bfs(
    g: Graph, h: Graph, phi: Sequence[int], psi: Sequence[int], max_states: int = 10**6
) -> Answer:
    """Exact reconfiguration answer: hom_graph_path without the path."""
    path = hom_graph_path(g, h, phi, psi, max_states)
    return Answer.YES if isinstance(path, list) else path

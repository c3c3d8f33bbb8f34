"""The exhaustive answer behind `homrecol oracle`.

A breadth-first search of the homomorphism graph: its states are the
colourings of G, and two colourings are joined when one single-vertex move
turns one into the other.  Nothing here routes through the solver, so on
small instances its answer cross-checks `solve`; the state budget keeps it
at desk scale and turns a search that would outgrow it into
BUDGET_EXCEEDED, never into NO.
"""

from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Sequence

from .errors import InvalidInputError
from .graphs import Graph, is_homomorphism


class Answer(Enum):
    YES = "yes"
    NO = "no"
    BUDGET_EXCEEDED = "budget-exceeded"


# the default budget of visited states, `homrecol oracle --max-states` included
MAX_STATES = 10**6


def hom_graph_path(
    g: Graph, h: Graph, phi: Sequence[int], psi: Sequence[int], max_states: int = MAX_STATES
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
    g: Graph, h: Graph, phi: Sequence[int], psi: Sequence[int], max_states: int = MAX_STATES
) -> Answer:
    """Exact reconfiguration answer: hom_graph_path without the path."""
    path = hom_graph_path(g, h, phi, psi, max_states)
    return Answer.YES if isinstance(path, list) else path

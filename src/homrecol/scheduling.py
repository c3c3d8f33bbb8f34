"""Executes a topologically valid walk system as single-vertex moves.

Each vertex walks along its assigned walk; a vertex may advance when its next
colour is adjacent to every neighbour's current colour.  If no unfinished
vertex can advance, following "waits for" arcs from any unfinished vertex
closes a cycle whose current images form a cyclically reduced closed walk —
the tight-cycle certificate that the system is unrealizable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InternalError, InvalidInputError
from .graphs import Graph, Scratch
from .systems import WalkSystem
from .walks import Walk


def is_tight(g: Graph, colours, cycle: Walk) -> bool:
    """True iff the cycle's image under colours is cyclically reduced and nonempty.

    colours may be a full map (sequence) or a mapping defined on the cycle.
    Vertices of a tight cycle are frozen: no reconfiguration step may ever
    change them.
    """
    if cycle[0] != cycle[-1]:
        raise InvalidInputError("tightness is for closed walks")
    for a, b in zip(cycle, cycle[1:]):
        if not g.adjacent(a, b):
            raise InvalidInputError(f"cycle step {a} -> {b} is not an edge")
    body = tuple(colours[x] for x in cycle[:-1])
    m = len(body)
    if m == 0:
        return False
    return all(
        body[i] != body[(i + 1) % m] and body[i] != body[(i + 2) % m] for i in range(m)
    )


@dataclass(frozen=True)
class TightWalkWitness:
    cycle: Walk  # closed vertex sequence in the instance graph
    images: Walk  # the colours the cycle was frozen at (aligned with cycle)


def waits_for(
    g: Graph, h: Graph, walks: dict[int, Walk], pos: Sequence[int] | Mapping[int, int], u: int
) -> int | None:
    """The lowest-id vertex u waits for, or None.

    pos[v] is v's index into its walk, for u and its neighbours: the
    scheduler's vertex-indexed list or any mapping.  u waits for v when both
    are unfinished, v's next colour is u's current colour and v's current
    colour clashes with u's next: u cannot move before v does.
    """
    w = walks[u]
    p = pos[u]
    if p + 1 == len(w):
        return None
    cur_u, nxt_u = w[p], w[p + 1]
    hs = h.adj_sets
    for v in g.adj[u]:
        if v == u:
            continue
        wv = walks[v]
        pv = pos[v]
        if pv + 1 != len(wv) and wv[pv + 1] == cur_u and nxt_u not in hs[wv[pv]]:
            return v
    return None


def schedule(
    g: Graph,
    h: Graph,
    system: WalkSystem,
    order: Sequence[int] | None = None,
    scratch: Scratch | None = None,
) -> list[tuple[int, int]] | TightWalkWitness:
    """Run the system to completion or extract a tight-cycle witness.

    Vertices are tried from a FIFO work list (seeded in ascending id order,
    or in the given order); moving a vertex re-queues itself and then its
    unfinished neighbours.  A drained queue with unfinished vertices is a
    deadlock.  A vertex may move when its next colour is adjacent to the
    current colour of every neighbour, its own loop included.  scratch
    holds the per-vertex arrays; a solve passes one for all its calls, and
    without it this call allocates its own.
    """
    walks = system.walks
    adj, hs = g.adj, h.adj_sets
    if scratch is None:
        scratch = Scratch(g.n)
    pos, cur, left, queued = scratch.pos, scratch.cur, scratch.left, scratch.queued
    for v, w in walks.items():
        pos[v] = 0
        cur[v] = w[0]
        left[v] = len(w) - 1
    moves: list[tuple[int, int]] = []
    seed = sorted(walks) if order is None else order
    queue = deque(v for v in seed if left[v])
    for v in queue:
        queued[v] = 1
    popleft, push = queue.popleft, queue.append
    emit = moves.append
    while queue:
        u = popleft()
        queued[u] = 0
        k = left[u]
        if not k:
            continue  # finished
        p = pos[u] + 1
        nxt = walks[u][p]
        # H is undirected, so "nxt is adjacent to cur[x]" reads nxt's row
        allowed = hs[nxt]
        for x in adj[u]:
            if cur[x] not in allowed:
                break  # re-queued when a neighbour moves
        else:
            pos[u] = p
            cur[u] = nxt
            left[u] = k - 1
            emit((u, nxt))
            if k != 1:
                push(u)
                queued[u] = 1
            for x in adj[u]:
                if not queued[x] and left[x]:
                    push(x)
                    queued[x] = 1

    # the drained queue has cleared every queued flag
    unfinished = [v for v in walks if left[v]]
    if not unfinished:
        return moves
    return _extract_tight_cycle(g, h, walks, pos, min(unfinished))


def _extract_tight_cycle(
    g: Graph,
    h: Graph,
    walks: dict[int, Walk],
    pos: Sequence[int] | Mapping[int, int],
    start: int,
) -> TightWalkWitness:
    """Follow waits_for arcs from start until a vertex repeats."""
    chain = [start]
    seen_at = {start: 0}
    while True:
        v = waits_for(g, h, walks, pos, chain[-1])
        if v is None:
            raise InternalError("deadlocked vertex without a blocking arc (system not staggered)")
        if v in seen_at:
            cycle = tuple(chain[seen_at[v] :]) + (v,)
            break
        seen_at[v] = len(chain)
        chain.append(v)

    current = {x: walks[x][pos[x]] for x in cycle}
    if not is_tight(g, current, cycle):
        raise InternalError("deadlock cycle is not tight (system not staggered)")
    return TightWalkWitness(cycle=cycle, images=tuple(current[x] for x in cycle))

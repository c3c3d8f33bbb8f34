"""Executes a topologically valid walk system as single-vertex moves.

Each vertex walks along its assigned walk; a vertex may advance when its next
colour is adjacent to every neighbour's current colour.  If no unfinished
vertex can advance, following "waits for" arcs from any unfinished vertex
closes a cycle whose images form a cyclically reduced closed walk — the
tight-cycle certificate that the system is unrealizable.  A tight cycle is
frozen, so none of its vertices has left its starting colour.  Tightness is
the one walk rule walks.is_cyclically_reduced, read on the cycle's colours;
the cycle's steps are edges of G because each is a waits_for arc.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Sequence

from .errors import InternalError
from .graphs import Graph, Scratch
from .systems import WalkSystem
from .walks import Walk, is_cyclically_reduced


class TightWalkWitness(NamedTuple):
    """A deadlock: a closed walk of the instance graph, built from waits_for
    arcs, whose image under the start colours is cyclically reduced."""

    cycle: Walk


def waits_for(g: Graph, h: Graph, system: WalkSystem, left: Sequence[int], u: int) -> int | None:
    """The lowest-id vertex u waits for, or None.

    left[v] is the number of steps v has still to go, for u and its
    neighbours, in the scheduler's vertex-indexed list.  With
    k = left[v] and e = system.end[v], v's colour is system.flat[e - k - 1],
    its next colour system.flat[e - k], and v is unfinished while k is
    nonzero.  u waits for v when both are unfinished, v's next colour is
    u's colour and v's colour clashes with u's next: u cannot move before v
    does.
    """
    k = left[u]
    if not k:
        return None
    flat, end = system.flat, system.end
    e = end[u] - k
    cur_u, nxt_u = flat[e - 1], flat[e]
    hs = h.adj_sets
    for v in g.adj[u]:
        if v == u:
            continue
        kv = left[v]
        if kv:
            ev = end[v] - kv
            if flat[ev] == cur_u and nxt_u not in hs[flat[ev - 1]]:
                return v
    return None


def schedule(
    g: Graph, h: Graph, system: WalkSystem, scratch: Scratch
) -> list[int] | TightWalkWitness:
    """Run the system to completion or extract a tight-cycle witness.

    Vertices are tried from a FIFO work list (seeded in ascending id
    order); moving a vertex re-queues itself and then its unfinished
    neighbours.  A drained queue with unfinished vertices is a deadlock.  A
    vertex may move when its next colour is adjacent to the current colour
    of every neighbour, its own loop included.  scratch holds the
    per-vertex arrays; a solve passes one for all its calls.

    The moves come as one flat list [v0, c0, v1, c1, ...]: move i takes
    vertex v_i to colour c_i, and no object is built per move.  Each vertex
    moves once per step of its walk, so the system fixes the number of
    moves, len(flat) - len(order), before the first one: the list is made
    at that size at the first move and written by index.  A schedule that
    succeeds returns it exactly full; a deadlock discards it, and one
    before the first move never makes it.
    """
    start, end, flat = system.start, system.end, system.flat
    adj, hs = g.adj, h.adj_sets
    left, cur, queued = scratch.left, scratch.cur, scratch.queued
    for v in system.order:
        s = start[v]
        left[v] = end[v] - s - 1
        cur[v] = flat[s]
    steps = len(flat) - len(system.order)
    moves: list[int] = []
    i = 0
    queue = deque(v for v in sorted(system.order) if left[v])
    for v in queue:
        queued[v] = 1
    popleft, push = queue.popleft, queue.append
    while queue:
        u = popleft()
        queued[u] = 0
        # a queued vertex is unfinished: only unfinished ones are pushed,
        # and only its own move lowers left[u]
        k = left[u]
        nxt = flat[end[u] - k]
        # H is undirected, so "nxt is adjacent to cur[x]" reads nxt's row
        allowed = hs[nxt]
        for x in adj[u]:
            if cur[x] not in allowed:
                break  # re-queued when a neighbour moves
        else:
            cur[u] = nxt
            left[u] = k - 1
            if not i:
                moves = [0] * (2 * steps)
            moves[i] = u
            moves[i + 1] = nxt
            i += 2
            if k != 1:
                push(u)
                queued[u] = 1
            for x in adj[u]:
                if not queued[x] and left[x]:
                    push(x)
                    queued[x] = 1

    if i == 2 * steps:  # every walk has run to its end
        return moves
    # the drained queue has cleared every queued flag
    first = min(v for v in system.order if left[v])
    return _extract_tight_cycle(g, h, system, scratch, first)


def _extract_tight_cycle(
    g: Graph, h: Graph, system: WalkSystem, scratch: Scratch, first: int
) -> TightWalkWitness:
    """Follow waits_for arcs from first until a vertex repeats.

    scratch.left and scratch.cur hold the scheduler's state, read as in
    waits_for, and scratch.queued must be all 0: it marks the vertices
    visited, and is cleared again before this returns.  The cycle closed
    must be tight, so frozen: each of its vertices must still be at the
    start of its walk, and its image under scratch.cur must be cyclically
    reduced.  Its steps are arcs, so edges of G, and are not checked again.
    Either failing means the system was not staggered, and raises
    InternalError.
    """
    left, marked = scratch.left, scratch.queued
    chain = [first]
    marked[first] = 1
    while True:
        v = waits_for(g, h, system, left, chain[-1])
        if v is None or marked[v]:
            break
        marked[v] = 1
        chain.append(v)
    for x in chain:
        marked[x] = 0
    if v is None:
        raise InternalError("deadlocked vertex without a blocking arc (system not staggered)")
    del chain[: chain.index(v)]
    chain.append(v)

    start, end, cur = system.start, system.end, scratch.cur
    for x in chain:
        if left[x] != end[x] - start[x] - 1:
            raise InternalError(f"deadlock cycle vertex {x} has moved (system not staggered)")
    if not is_cyclically_reduced(tuple(cur[x] for x in chain)):
        raise InternalError("deadlock cycle is not tight (system not staggered)")
    return TightWalkWitness(cycle=tuple(chain))

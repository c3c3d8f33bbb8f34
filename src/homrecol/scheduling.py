"""Executes a topologically valid walk system as single-vertex moves.

Each vertex walks along its assigned walk; a vertex may advance when its next
colour is adjacent to every neighbour's current colour.  If no unfinished
vertex can advance, following "waits for" arcs from any unfinished vertex
closes a cycle whose images form a cyclically reduced closed walk — the
tight-cycle certificate that the system is unrealizable.  A tight cycle is
frozen, so none of its vertices has left its starting colour.  Tightness is
the one walk rule walks.is_cyclically_reduced, read on the cycle's colours;
the cycle's steps are edges of G because each is a waits-for arc.

The moves are written straight into the witness, one flat array made at
its exact size at the first move: the system fixes the number of moves,
and a system that deadlocks before any move allocates no witness at all.
"""

from __future__ import annotations

from array import array
from collections import deque

from .errors import InternalError
from .graphs import Graph, move_code
from .systems import CycleWitness, WalkSystem
from .walks import is_cyclically_reduced


def schedule(g: Graph, h: Graph, system: WalkSystem) -> array | CycleWitness:
    """Run the system to completion, or return the tight cycle it deadlocks on.

    Vertices are tried from a FIFO work list (seeded in ascending id
    order); moving a vertex re-queues itself and then its unfinished
    neighbours.  A drained queue with unfinished vertices is a deadlock.  A
    vertex may move when its next colour is adjacent to the current colour
    of every neighbour, its own loop included.  The bounds of the walks
    and the scheduler's lists are those of system.scratch: its left and
    cur are made by the first call on it (Scratch.scheduler_lists), and are
    set at every vertex of the system before they are read, so one scratch
    serves every system of a solve.

    The moves come as one flat array.array [v0, c0, v1, c1, ...] of type
    graphs.move_code(g, h), 4 bytes per entry up to 2**32 vertices and
    colours: move i takes vertex v_i to colour c_i, and no object is built
    per move.  Each vertex moves once per step of its walk, so the system
    fixes the number of moves, len(flat) - len(order), before the first
    one.  The hot loop writes each move straight into the array, which is
    made at that exact size at the first move: a schedule that succeeds
    returns it exactly full, and one that deadlocks before any move, as a
    tight cycle frozen from the start does, never makes it.  Making it
    before the loop would hold it beside the work list for nothing on such
    a deadlock.  A system of constant walks returns an empty array.
    """
    scratch, flat = system.scratch, system.flat
    start, end, queued = scratch.start, scratch.end, scratch.queued
    left, cur = scratch.scheduler_lists()
    adj, hs = g.adj, h.adj_sets
    for v in system.order:
        s = start[v]
        left[v] = end[v] - s - 1
        cur[v] = flat[s]
    steps = len(flat) - len(system.order)
    code = move_code(g, h)
    i = 0  # entries written into moves
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
                moves = array(code, [0]) * (2 * steps)
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

    if i != 2 * steps:
        # the drained queue has cleared every queued flag
        first = min(filter(left.__getitem__, system.order))
        return _extract_tight_cycle(g, h, system, first)
    # every walk has run to its end
    return moves if i else array(code)


def _extract_tight_cycle(g: Graph, h: Graph, system: WalkSystem, first: int) -> CycleWitness:
    """Follow waits-for arcs from the unfinished vertex first until a vertex repeats.

    system.scratch holds the bounds and the scheduler's state: v has
    left[v] steps still to go, its colour is cur[v] and its next colour
    system.flat[end[v] - left[v]].  An unfinished u waits for its
    lowest-id neighbour v that is unfinished, whose next colour is u's
    colour and whose colour clashes with u's next: u cannot move before v
    does.  u never waits for itself through its loop: its next colour
    would be its colour, and no colour of a reflexive host clashes with
    itself.  The scratch's queued must be all 0: it marks the vertices
    visited, and is cleared again before this returns.  The cycle closed
    must be tight, so frozen: each of its vertices must still be at the
    start of its walk, and its image under cur must be cyclically reduced.
    Its steps are arcs, so edges of G, and are not checked again.  Either
    failing, or a vertex that waits for none, means the system was not
    staggered, and raises InternalError.  The tight cycle is returned as
    the CycleWitness on which the system fails.
    """
    scratch, flat = system.scratch, system.flat
    start, end, left, cur = scratch.start, scratch.end, scratch.left, scratch.cur
    marked = scratch.queued
    adj, hs = g.adj, h.adj_sets
    chain = [first]
    marked[first] = 1
    u = first
    while True:
        # every vertex of the chain is unfinished: first is, and so is
        # each vertex waited for
        cur_u, allowed = cur[u], hs[flat[end[u] - left[u]]]
        for v in adj[u]:
            k = left[v]
            if k and flat[end[v] - k] == cur_u and cur[v] not in allowed:
                break
        else:
            v = None
        if v is None or marked[v]:
            break
        marked[v] = 1
        chain.append(v)
        u = v
    for x in chain:
        marked[x] = 0
    if v is None:
        raise InternalError("deadlocked vertex without a blocking arc (system not staggered)")
    del chain[: chain.index(v)]
    chain.append(v)

    for x in chain:
        if left[x] != end[x] - start[x] - 1:
            raise InternalError(f"deadlock cycle vertex {x} has moved (system not staggered)")
    if not is_cyclically_reduced(tuple(map(cur.__getitem__, chain))):
        raise InternalError("deadlock cycle is not tight (system not staggered)")
    return CycleWitness(cycle=tuple(chain))

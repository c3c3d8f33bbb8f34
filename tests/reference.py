"""Brute-force references for the walk algebra, kept beside the tests that use them.

Nothing here routes through homrecol.walks.reduce_walk: the cover lift, the
raw move-graph search and random-order rewriting are independent
computations, deliberately kept at desk scale.  The solver needs none of
them, so they live with the tests rather than in the package.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Sequence

from homrecol.errors import InternalError, InvalidInputError
from homrecol.graphs import Graph, Scratch, bfs_tree
from homrecol.oracle import Answer
from homrecol.systems import WalkSystem, generate_system
from homrecol.walks import FreeDecomposition, Walk, reduce_walk


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


def move_neighbours(h: Graph, w: tuple[int, ...], max_vertices: int):
    """Walks one elementary homotopy move away (endpoints fixed)."""
    n = len(w)
    if n < max_vertices:  # insert a repeat anywhere (needs a loop there)
        for i in range(n):
            if h.adjacent(w[i], w[i]):
                yield w[: i + 1] + (w[i],) + w[i + 1 :]
    for i in range(n - 1):  # delete one of an equal pair
        if w[i] == w[i + 1]:
            yield w[:i] + w[i + 1 :]
    for i in range(1, n - 1):  # middle-vertex replacements
        if w[i - 1] == w[i + 1]:
            z = w[i - 1]
            if w[i] != z:
                if h.adjacent(z, z):
                    yield w[:i] + (z,) + w[i + 1 :]
            else:
                for c in h.adj[z]:
                    if c != z:
                        yield w[:i] + (c,) + w[i + 1 :]


def enumerate_walk_class(
    h: Graph,
    x: Sequence[int],
    max_len: int,
    max_states: int = 200_000,
    target: tuple[int, ...] | None = None,
) -> set[tuple[int, ...]] | Answer:
    """All walks reachable from x by moves, capped at max_len edges.

    With a target, the search stops with YES as soon as it reaches it.  The
    budget counts the walks seen, x included.
    """
    start = tuple(x)
    if len(start) - 1 > max_len:
        raise InternalError("length cap below the input walk")
    seen = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for y in move_neighbours(h, w, max_len + 1):
            if y not in seen:
                if y == target:
                    return Answer.YES
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
    found = enumerate_walk_class(h, a, max_len, max_states, target=b)
    return found if isinstance(found, Answer) else Answer.NO


def random_order_reduce(rng: random.Random, h: Graph, x: Sequence[int]) -> tuple[int, ...]:
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


def random_expand(rng: random.Random, h: Graph, x: Sequence[int], steps: int) -> tuple[int, ...]:
    """Random walk in the move graph biased toward growing the walk."""
    w = tuple(x)
    for _ in range(steps):
        grow = [y for y in move_neighbours(h, w, len(w) + 2) if len(y) >= len(w)]
        if not grow:
            break
        w = grow[rng.randrange(len(grow))]
    return w


def basepoint_change(w: Walk, c: Walk) -> Walk:
    """Conjugate the closed walk c by w: the closed walk w . c . reverse(w)."""
    if c[0] != c[-1]:
        raise InternalError("basepoint change needs a closed walk")
    if w[-1] != c[0]:
        raise InternalError("walk must end at the basepoint of the closed walk")
    return w + c[1:] + w[-2::-1]


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


def is_reduced_by_index(seq: Sequence[int]) -> bool:
    """The reduced-walk rule written index by index: no seq[i] equals
    seq[i + 1] or seq[i + 2]."""
    return all(seq[i] != seq[i + 1] for i in range(len(seq) - 1)) and all(
        seq[i] != seq[i + 2] for i in range(len(seq) - 2)
    )


def is_cyclically_reduced_by_copy(c: Walk) -> bool:
    """The tightness rule read on a copy of c extended round the cycle by
    c[1] and c[2]."""
    return len(c) > 1 and is_reduced_by_index(c + c[1:3])


def is_contractible(c: Walk) -> bool:
    if c[0] != c[-1]:
        raise InternalError("contractibility is for closed walks")
    return len(reduce_walk(c)) == 1


def homotopic(x: Walk, y: Walk) -> bool:
    if x[0] != y[0] or x[-1] != y[-1]:
        raise InternalError("homotopy needs matching endpoints")
    return reduce_walk(x) == reduce_walk(y)


def core_walk(d: FreeDecomposition) -> Walk:
    """The core as a closed walk based at the tail's endpoint."""
    if not d.core:
        return (d.tail[-1],)
    return d.core + (d.core[0],)


def hom_adjacent(g: Graph, h: Graph, f: Sequence[int], k: Sequence[int]) -> bool:
    """Adjacency in the homomorphism graph: f(u)k(v) is an edge for every edge uv."""
    h_nb = h.adj_sets
    for u in range(g.n):
        fu, ku = f[u], k[u]
        for v in g.adj[u]:
            if v < u:
                continue
            if k[v] not in h_nb[fu] or f[v] not in h_nb[ku]:
                return False
    return True


def bfs_tree_by(g: Graph, root: int, key: Sequence[int]) -> tuple[list[int], list[int]]:
    """graphs.bfs_tree with neighbours visited by ascending key[v] instead of id."""
    parent = [-1] * g.n
    parent[root] = root
    order = [root]
    for u in order:
        for v in sorted(g.adj[u], key=key.__getitem__):
            if parent[v] < 0:
                parent[v] = u
                order.append(v)
    return order, parent


def connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Components as sorted vertex tuples, ordered by smallest vertex: one
    bfs_tree, with its own parent list, from each vertex not yet reached."""
    seen: set[int] = set()
    comps = []
    for r in range(g.n):
        if r not in seen:
            order = bfs_tree(g, r)[0]
            seen.update(order)
            comps.append(tuple(sorted(order)))
    return tuple(comps)


def set_rows(n: int, edges: Sequence[tuple[int, int]], reflexive: bool = False) -> tuple[tuple[int, ...], ...]:
    """Adjacency rows built the set way: a set of neighbours per vertex, each
    row then sorted into a tuple."""
    neigh: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        neigh[u].add(v)
        neigh[v].add(u)
    if reflexive:
        for v in range(n):
            neigh[v].add(v)
    return tuple(tuple(sorted(s)) for s in neigh)


def waits_for(g: Graph, h: Graph, system: WalkSystem, left: Sequence[int], u: int) -> int | None:
    """The lowest-id vertex u waits for, or None: the waits-for rule that
    scheduling's deadlock scan applies in place, read here on system.flat
    alone.

    left[v] is the number of steps v has still to go.  With k = left[v] and
    e = system.scratch.end[v], v's colour is system.flat[e - k - 1], its next
    colour system.flat[e - k], and v is unfinished while k is nonzero.  u
    waits for v when both are unfinished, v's next colour is u's colour and
    v's colour clashes with u's next: u cannot move before v does.
    """
    k = left[u]
    if not k:
        return None
    flat, end = system.flat, system.scratch.end
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


def wander(
    rng: random.Random, g: Graph, h: Graph, f: Sequence[int], tries: int
) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    """f after up to tries random single-vertex moves, and the moves made.

    Each try draws a vertex v and a new colour c for it: any colour of h
    when v has no neighbour, else a colour adjacent to a random
    neighbour's colour, v itself through its loop included.  The move is
    made when it is legal under solver.verify_witness's rule, read here on
    its own: c differs from v's colour and is adjacent to the colour of
    every neighbour of v, its own loop included.  Moves reverse, so the
    map reached is connected to f both ways.
    """
    cur = list(f)
    adj, hs = g.adj, h.adj_sets
    moves = []
    for _ in range(tries):
        v = rng.randrange(g.n)
        row = adj[v]
        c = rng.choice(h.adj[cur[rng.choice(row)]]) if row else rng.randrange(h.n)
        if c != cur[v] and all(cur[u] in hs[c] for u in row):
            cur[v] = c
            moves.append((v, c))
    return tuple(cur), moves


def tight_mismatch(g: Graph, phi: Sequence[int], psi: Sequence[int]) -> bool:
    """Whether some closed walk of G has a cyclically reduced phi-image and
    passes a vertex where psi differs from phi: a tight cycle frozen at phi
    with a stuck vertex, so a NO.

    An SCC scan of the arc graph: its states are the arcs (u, v) of G with
    phi[u] != phi[v], and (u, v) steps to (v, w) when phi[w] differs from
    phi[v] and from phi[u], so a closed walk of states is one whose image
    neither stays nor backtracks, cyclically.  No arc steps to itself, so a
    component is cyclic when it has two arcs or more.
    """
    arcs = [(u, v) for u in range(g.n) for v in g.adj[u] if phi[u] != phi[v]]
    index = {a: i for i, a in enumerate(arcs)}
    succ = [[index[v, w] for w in g.adj[v] if phi[w] != phi[v] and phi[w] != phi[u]] for u, v in arcs]
    pred: list[list[int]] = [[] for _ in arcs]
    for i, out in enumerate(succ):
        for j in out:
            pred[j].append(i)
    # Kosaraju: states in finishing order by an iterative DFS, then the
    # components on the reversed arcs in reverse finishing order
    seen, order = [False] * len(arcs), []
    for s in range(len(arcs)):
        if seen[s]:
            continue
        seen[s] = True
        stack = [(s, iter(succ[s]))]
        while stack:
            i, it = stack[-1]
            for j in it:
                if not seen[j]:
                    seen[j] = True
                    stack.append((j, iter(succ[j])))
                    break
            else:
                stack.pop()
                order.append(i)
    placed = [False] * len(arcs)
    for s in reversed(order):
        if placed[s]:
            continue
        placed[s] = True
        members = [s]
        for i in members:
            for j in pred[i]:
                if not placed[j]:
                    placed[j] = True
                    members.append(j)
        if len(members) > 1 and any(phi[arcs[i][1]] != psi[arcs[i][1]] for i in members):
            return True
    return False


def family_moves(
    g: Graph,
    h: Graph,
    phi: Sequence[int],
    psi: Sequence[int],
    root: int,
    w: Walk,
    cycle: Sequence[int],
    turns: range = range(-3, 4),
) -> dict[int, int]:
    """The moves of each valid system of w's family, by turn k in turns.

    cycle is a closed walk of G at root whose phi-image is not
    contractible.  The image's reduced loop is tail . core . reversed tail,
    and one turn is tail . root loop . reversed tail, where the root loop is
    the shortest prefix of core whose power core is, closed.  Turn k is the
    root walk turn^k . w, reduced in the cover; its system comes from
    generate_system, and the moves of a valid one are the sum of |w_v| - 1.
    """
    loop = reduce_via_cover(h, [phi[x] for x in cycle])
    lo, hi = 0, len(loop) - 1
    while loop[lo + 1] == loop[hi - 1]:
        lo += 1
        hi -= 1
    tail, core = loop[: lo + 1], loop[lo:hi]
    m = len(core)
    p = min(p for p in range(1, m + 1) if not m % p and core == core[:p] * (m // p))
    turn = tail + core[1:p] + core[:1] + tail[::-1][1:]
    tree = bfs_tree(g, root)
    out = {}
    for k in turns:
        walk = tuple(w)
        for _ in range(abs(k)):
            walk = reduce_via_cover(h, (turn if k > 0 else turn[::-1]) + walk[1:])
        system = generate_system(g, h, phi, psi, tree, walk, Scratch(g.n))
        if isinstance(system, WalkSystem):
            out[k] = len(system.flat) - len(system.order)
    return out

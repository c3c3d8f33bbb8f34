"""Graph and homomorphism primitives.

Vertices are dense ids 0..n-1.  A loop is stored both in the loop set and in
the vertex's own adjacency list, so "every constraint is a neighbour check"
holds uniformly for looped and loopless vertices.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InvalidInputError


class Graph:
    """Immutable undirected graph with optional loops."""

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], reflexive: bool = False):
        if n < 0:
            raise InvalidInputError("vertex count must be nonnegative")
        neigh: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInputError(f"edge ({u}, {v}) out of range for {n} vertices")
            neigh[u].add(v)
            neigh[v].add(u)
        if reflexive:
            for v in range(n):
                neigh[v].add(v)
        self.n = n
        self.adj = tuple(tuple(sorted(s)) for s in neigh)
        self.loops = frozenset(v for v in range(n) if v in neigh[v])

    @cached_property
    def adj_sets(self) -> tuple[frozenset[int], ...]:
        """Neighbour sets for constant-time adjacency tests, built on first read."""
        return tuple(frozenset(a) for a in self.adj)

    def adjacent(self, u: int, v: int) -> bool:
        # binary search of the sorted row: no set view, and O(log deg) even
        # for a hostile certificate that steps through one huge row many times
        a = self.adj[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def is_reflexive(self) -> bool:
        return len(self.loops) == self.n

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u <= v; loops appear as (v, v)."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u <= v]

    def with_all_loops(self) -> "Graph":
        return Graph(self.n, self.edge_list(), reflexive=True)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        m = sum(len(a) for a in self.adj) - len(self.loops)
        return f"Graph(n={self.n}, edges={m // 2 + len(self.loops)})"


@dataclass(frozen=True)
class HostReport:
    is_reflexive: bool
    is_triangle_free: bool
    girth_at_least_5: bool
    components: tuple[tuple[int, ...], ...]


def _has_triangle(g: Graph) -> bool:
    for u in range(g.n):
        for v in g.adj[u]:
            if v <= u:
                continue
            # any third vertex adjacent to both ends of edge uv
            common = g.adj_sets[u] & g.adj_sets[v]
            if common - {u, v}:
                return True
    return False


def _has_square(g: Graph) -> bool:
    # a 4-cycle exists iff two distinct vertices share two distinct neighbours
    seen: set[tuple[int, int]] = set()
    for u in range(g.n):
        nb = [v for v in g.adj[u] if v != u]
        for i in range(len(nb)):
            for j in range(i + 1, len(nb)):
                pair = (nb[i], nb[j])
                if pair in seen:
                    return True
                seen.add(pair)
    return False


def validate_host(h: Graph) -> HostReport:
    """Report the structural hypotheses the solver relies on (report only)."""
    tri_free = not _has_triangle(h)
    return HostReport(
        is_reflexive=h.is_reflexive(),
        is_triangle_free=tri_free,
        girth_at_least_5=tri_free and not _has_square(h),
        components=connected_components(h),
    )


def is_homomorphism(g: Graph, h: Graph, f: Sequence[int]) -> bool:
    """True iff f maps every edge of g (loops included) onto an edge of h."""
    if len(f) != g.n:
        raise InvalidInputError(f"map has length {len(f)}, expected {g.n}")
    for v, c in enumerate(f):
        if not (0 <= c < h.n):
            raise InvalidInputError(f"image {c} of vertex {v} out of range")
    h_nb = h.adj_sets
    for u in range(g.n):
        fu = f[u]
        for v in g.adj[u]:
            if v < u:
                continue
            if f[v] not in h_nb[fu]:
                return False
    return True


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


def connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Components as sorted vertex tuples, ordered by smallest vertex."""
    seen = [False] * g.n
    comps: list[tuple[int, ...]] = []
    for r in range(g.n):
        if seen[r]:
            continue
        seen[r] = True
        comp = [r]
        queue = deque([r])
        while queue:
            u = queue.popleft()
            for v in g.adj[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
                    queue.append(v)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


class Scratch:
    """Vertex-indexed arrays for one solve, allocated once and shared by its components.

    A call uses only the entries of its own component's vertices and leaves
    parent all -1 and queued all 0, as it found them, so one solve over many
    small components costs their total size, not n per component.  Calls
    from outside a solve allocate their own.
    """

    __slots__ = ("parent", "lo", "hi", "pos", "cur", "left", "queued")

    def __init__(self, n: int):
        self.parent = [-1] * n  # bfs_tree
        self.lo = [0] * n  # cover lifts of phi and psi
        self.hi = [0] * n
        self.pos = [0] * n  # scheduler: index into the walk,
        self.cur = [0] * n  # the colour there,
        self.left = [0] * n  # the steps still to go,
        self.queued = bytearray(n)  # and membership of the work list


def bfs_tree(
    g: Graph,
    root: int,
    tie_break: Sequence[int] | None = None,
    parent: list[int] | None = None,
) -> tuple[list[int], list[int]]:
    """BFS order and parent list of root's component.

    parent[root] == root and parent[v] == -1 outside the component.  When
    parent is given it must hold -1 for every vertex, and is filled in place.
    Neighbours are visited in ascending id order, or by ascending
    tie_break[v] when given (tests force alternative orders with this).
    """
    if parent is None:
        parent = [-1] * g.n
    parent[root] = root
    order = [root]
    adj = g.adj
    for u in order:  # the order list is the queue
        nbrs = adj[u] if tie_break is None else sorted(adj[u], key=tie_break.__getitem__)
        for v in nbrs:
            if parent[v] < 0:  # u itself (its loop) is already reached
                parent[v] = u
                order.append(v)
    return order, parent


def shortest_walk(h: Graph, a: int, b: int) -> tuple[int, ...] | None:
    """Shortest (a, b)-walk by BFS with ascending tie-break; None if separated."""
    if a == b:
        return (a,)
    prev = {a: -1}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        for v in h.adj[u]:
            if v not in prev:
                prev[v] = u
                if v == b:
                    path = [b]
                    while path[-1] != a:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return tuple(path)
                queue.append(v)
    return None

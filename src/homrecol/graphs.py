"""Graph and homomorphism primitives.

Vertices are dense ids 0..n-1.  A graph's adjacency rows are sorted tuples
without repeats, and every row of one graph holds the same int object for
the same vertex id: n ints in all, however many edges there are.  A loop is
stored once, as the vertex in its own row: `adjacent(v, v)` tests it, and
"every constraint is a neighbour check" holds uniformly for looped and
loopless vertices.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import deque
from functools import cached_property
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import InvalidInputError


class Graph:
    """Immutable undirected graph with optional loops."""

    def __init__(self, n: int, edges: Iterable[Sequence[int]], reflexive: bool = False):
        """The graph on 0..n-1 with the given edges, checked and built in two passes.

        Each edge must be a list or tuple of two ints (not bools) in range;
        the InvalidInputError for one that is not names it as edges[i].
        Each endpoint goes into the other's row as ids[x], one int per
        vertex id, not as the int the caller made for that occurrence of it.

        The first pass checks the edges in order and keeps their endpoints
        in one flat array of type id_code(n, 4), 4 bytes each below 2**32
        vertices; the second files them into the rows as ids[x].  The n
        ids and the n row lists are made only after the last edge is drawn:
        a loader that frees each edge as it hands it over (jsonio does) has
        freed them all by then, so they reuse that memory rather than adding
        to it.  The checks come before the push, so an endpoint the array
        cannot hold is never pushed.  The 4-byte floor is for speed: an
        append to a "B" or "H" array parses its item through a format
        string and costs 2.6 list appends, an "I" append 1.3 (CPython 3.11).
        """
        if n < 0:
            raise InvalidInputError("vertex count must be nonnegative")
        ends = array(id_code(n, 4))
        push = ends.append
        # per-element checks build their message only on failure
        for i, e in enumerate(edges):
            if not (
                (type(e) is list or type(e) is tuple)
                and len(e) == 2
                and type(e[0]) is int
                and type(e[1]) is int
            ):
                raise InvalidInputError(f"edges[{i}] must be a pair of integers")
            u, v = e
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidInputError(f"edges[{i}] out of range")
            push(u)
            push(v)
        ids = list(range(n))
        rows: list[list[int]] = [[] for _ in ids]
        it = iter(ends)
        for u, v in zip(it, it):
            rows[u].append(ids[v])
            rows[v].append(ids[u])
        del it, ends, push
        # one row at a time, in place: sort, then drop repeats only from a
        # row that has some; no set is built for any row.  Rows with repeats
        # are rare, and the scan costs less than dict.fromkeys on every row
        for v, row in zip(ids, rows):
            if reflexive:
                row.append(v)
            row.sort()
            prev = -1
            for x in row:
                if x == prev:  # a repeat sits next to its twin once sorted
                    row = dict.fromkeys(row)  # keeps the sorted order
                    break
                prev = x
            rows[v] = tuple(row)
        self.n = n
        self.adj = tuple(rows)
        self._reflexive = reflexive or all(self.adjacent(v, v) for v in ids)

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
        return self._reflexive

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u <= v; loops appear as (v, v)."""
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u <= v]

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        loops = sum(self.adjacent(v, v) for v in range(self.n))
        m = sum(len(a) for a in self.adj) - loops
        return f"Graph(n={self.n}, edges={m // 2 + loops})"


class HostReport(NamedTuple):
    is_reflexive: bool
    is_triangle_free: bool
    girth_at_least_5: bool


def _two_colours(g: Graph) -> bool:
    """True iff g, its loops aside, is bipartite, so has no triangle.

    One BFS per component over g's rows gives each vertex the side opposite
    its parent's; an edge inside one side is an odd cycle.  O(n + m).
    """
    adj = g.adj
    side = [-1] * g.n
    for r in range(g.n):
        if side[r] >= 0:
            continue
        side[r] = 0
        todo = [r]
        for u in todo:
            s = 1 - side[u]
            for v in adj[u]:
                if side[v] < 0:
                    side[v] = s
                    todo.append(v)
                elif side[v] != s and v != u:
                    return False
    return True


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
    # a 4-cycle exists iff some u reaches a third vertex w by two different
    # 2-paths u-v-w; mark[w] == u records the first one, in O(n) memory
    adj = g.adj
    mark = [-1] * g.n
    for u in range(g.n):
        for v in adj[u]:
            if v == u:
                continue
            for w in adj[v]:
                if w == u or w == v:
                    continue
                if mark[w] == u:
                    return True
                mark[w] = u
    return False


def validate_host(h: Graph) -> HostReport:
    """Report the structural hypotheses the solver relies on (report only).

    A host that 2-colours is triangle-free without the set-intersection
    scan, which is cubic on dense bipartite hosts such as K_{n,n}.
    """
    tri_free = _two_colours(h) or not _has_triangle(h)
    return HostReport(
        is_reflexive=h.is_reflexive(),
        is_triangle_free=tri_free,
        girth_at_least_5=tri_free and not _has_square(h),
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


# (item size in bytes, typecode) of the unsigned array types below "Q"
_UNSIGNED = tuple((array(code).itemsize, code) for code in "BHI")


def id_code(n: int, least: int = 1) -> str:
    """The typecode of the narrowest unsigned array.array, of at least
    `least` bytes an item, whose items hold every id below n: "B", "H",
    "I", or "Q", whose 8 bytes hold every id a list can index.

    A walk system's colours take id_code(h.n): one byte each up to 256
    colours.  A witness's flat moves take move_code, never narrower than "I".
    """
    for size, code in _UNSIGNED:
        if size >= least and n <= 1 << 8 * size:
            return code
    return "Q"


def move_code(g: Graph, h: Graph) -> str:
    """The typecode of a witness's flat moves [v0, c0, v1, c1, ...] from g
    into h: "I", 4 bytes an entry, or "Q" when a vertex id or a colour
    needs more."""
    return id_code(max(g.n, h.n), 4)


class Scratch:
    """Vertex-indexed arrays for one solve, allocated once and shared by its components.

    A call uses only the entries of its own component's vertices and leaves
    queued all 0, as it found it, so one solve over many small components
    costs their total size, not n per component.  A recheck of a NO
    certificate allocates one for the calls it makes.

    start and end belong to the base-walk search.  It checks and counts
    systems with the cover lifts of phi and psi in them, and writes the
    valid system it returns over them: v's walk is flat[start[v]:end[v]]
    of that system's one flat array of colours, and the system carries
    the scratch, so it is scheduled in the one that holds its bounds.
    left, cur and queued belong to the scheduler.  Its one progress
    counter is left[v], the steps v has still to go: its colour is
    flat[end[v] - left[v] - 1] and its next colour
    flat[end[v] - left[v]].  cur[v] caches the colour,
    because the hot loop reads it for every neighbour it checks.  queued
    marks the work list while the scheduler runs and, once the drained
    queue has cleared it, the vertices a deadlock scan has visited.

    Each array exists only from the phase that reads it: start, end and
    queued from the start, left and cur (None until then) from the first
    scheduler_lists() call, which the solve's first schedule makes.  So
    the base-walk search, whose cover trie sets a solve's peak, runs
    without two n-sized lists it never reads.

    start, end, left and cur are lists, not typed arrays like the system's
    colours and the witness: CPython specialises list indexing and not
    array indexing, and the scheduler and the cover lift index them in
    their hot loops.  Measured on a 100k tight rotation (Python 3.11, in
    process), typed start and end, with a typed cover trie, took the
    base-walk search from 0.095 to 0.152 s and the schedule from 0.088 to
    0.11-0.12 s: about a quarter more solve time (ROADMAP item 16).
    """

    __slots__ = ("start", "end", "left", "cur", "queued")

    def __init__(self, n: int):
        self.start = [0] * n  # each walk's slice of the system's flat list
        self.end = [0] * n  # (or, while the system is checked, the lifts)
        self.queued = bytearray(n)  # scheduler: membership of the work list,
        self.left: list[int] | None = None  # the steps still to go,
        self.cur: list[int] | None = None  # and the colour now

    def scheduler_lists(self) -> tuple[list[int], list[int]]:
        """left and cur, made n-sized at the first call and the same lists after."""
        if self.left is None:
            n = len(self.queued)
            self.left, self.cur = [0] * n, [0] * n
        return self.left, self.cur


def bfs_tree(g: Graph, root: int, parent: list[int] | None = None) -> tuple[list[int], list[int]]:
    """BFS order and parent list of root's component.

    parent[root] == root and parent[v] == -1 outside the component.  When
    parent is given it must hold -1 on root's component, and is filled in
    place; entries outside it are left as they are, so the trees of several
    components can share one list.  Neighbours are visited in ascending
    id order.
    """
    if parent is None:
        parent = [-1] * g.n
    parent[root] = root
    order = [root]
    adj = g.adj
    for u in order:  # the order list is the queue
        for v in adj[u]:
            if parent[v] < 0:  # u itself (its loop) is already reached
                parent[v] = u
                order.append(v)
    return order, parent


def component_trees(g: Graph) -> Iterator[tuple[list[int], list[int]]]:
    """Each component's bfs_tree, rooted at its smallest vertex, in root order.

    The trees share one parent list, whose filled entries are the vertices
    already yielded, so the components cost O(n + m) together.
    """
    parent = [-1] * g.n
    for r in range(g.n):
        if parent[r] < 0:
            yield bfs_tree(g, r, parent=parent)


def tree_path(parent: Sequence[int] | Mapping[int, int], x: int) -> list[int]:
    """x, its parent, and so on up to the root (the vertex that is its own parent)."""
    path = [x]
    while parent[x] != x:
        x = parent[x]
        path.append(x)
    return path


def shortest_walk(h: Graph, a: int, b: int) -> tuple[int, ...] | None:
    """Shortest (a, b)-walk by BFS with ascending tie-break; None if separated."""
    if a == b:
        return (a,)
    prev = {a: a}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        for v in h.adj[u]:
            if v not in prev:
                prev[v] = u
                if v == b:
                    return tuple(reversed(tree_path(prev, b)))
                queue.append(v)
    return None

"""Topologically valid walk systems.

A system assigns each vertex v a reduced walk from phi(v) to psi(v); it is
valid when every edge of the instance graph is preserved, i.e. prepending the
phi-image of the edge and appending the reversed psi-image to one endpoint's
walk reduces to the other endpoint's walk.  Along a BFS spanning tree this
rule fixes every walk from the root's; the non-tree edges are then checked,
and a failing edge yields a closed-walk witness through the tree.

The check runs in the host's universal cover.  In a triangle-free reflexive
host the reduced walks from one colour form a tree, so a reduced walk is a
path of that tree and is fixed by its two ends.  phi and psi are lifted into
the cover along the BFS tree at constant cost per vertex, and an edge whose
lifts stay adjacent on both sides is preserved without building a walk.
Walks are built only for the endpoints of the edges left over, and for the
whole system once it is known to be valid.  A system that fails costs the
size of its component plus the walks of those few edges, not the total
length of all its walks, which grows quadratically on a mirrored cycle wrap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Sequence

from .errors import InternalError
from .graphs import Graph, Scratch, shortest_walk, tree_path
from .walks import (
    Walk,
    closed_power,
    concat,
    free_decomposition,
    is_reduced,
    primitive_root,
    reduce_walk,
    reverse,
    shift_match,
)


NO_VALID_WALK = "no-valid-walk"
CLASS_MISMATCH = "free-class-mismatch"
FROZEN_MISMATCH = "frozen-mismatch"
UNREALIZABLE = "unrealizable"


@dataclass(frozen=True)
class Obstruction:
    """A NO certificate: one of the four kinds above, on a closed walk of G."""

    kind: str
    cycle: Walk
    vertex: int | None = None
    cores: tuple[Walk, Walk] | None = None


@dataclass(frozen=True)
class WalkSystem:
    walks: dict[int, Walk]


@dataclass(frozen=True)
class CycleWitness:
    """A closed walk of the instance graph on which the base walk fails."""

    cycle: Walk


def edge_preserved(
    phi: Sequence[int],
    psi: Sequence[int],
    u: int,
    v: int,
    w_u: Walk,
    w_v: Walk,
) -> bool:
    """True iff carrying v's walk across the edge uv reproduces u's walk."""
    return reduce_walk((phi[u],) + w_v + (psi[u],)) == w_u


def generate_system(
    g: Graph,
    h: Graph,
    phi: Sequence[int],
    psi: Sequence[int],
    tree: tuple[list[int], list[int]],
    w_root: Walk,
    scratch: Scratch | None = None,
) -> WalkSystem | CycleWitness:
    """Build the unique reduced system containing w_root, or a failing cycle.

    tree is the (order, parent) BFS tree of one component, as bfs_tree
    returns it, and w_root the walk of its root order[0].  Each vertex's
    walk is the reduction of (phi(v),) + w_parent + (psi(v),) down the tree,
    so w_root fixes the system; a valid system is the same along any
    spanning tree, so one tree serves every system of the component.
    To check it, phi and psi are lifted into the host's universal cover from
    the two ends of w_root; w_v is the cover path between v's two lifts.
    Every non-tree, non-loop edge is checked, in ascending order of its
    endpoints, and its two walks are built only when its lifts are not
    adjacent on both sides.  The witness for a failing edge uv is the closed
    walk tree-path(root, u) . uv . tree-path(v, root).  On success every walk
    is built once, from its parent's walk.  scratch holds the lift arrays; a
    solve passes one for all its calls, and without it this call allocates
    its own.
    """
    order, parent = tree
    root = order[0]
    if w_root[0] != phi[root] or w_root[-1] != psi[root]:
        raise InternalError("base walk endpoints do not match the maps")
    if not is_reduced(w_root):
        raise InternalError("base walk must be reduced")
    if scratch is None:
        scratch = Scratch(g.n)
    failing = _failing_edge(g, h, phi, psi, order, parent, w_root, scratch)
    if failing is None:
        out = WalkSystem(walks=_carry_walks(phi, psi, order, parent, w_root))
    else:
        u, v = failing
        cycle = tuple(reversed(tree_path(parent, u))) + tuple(tree_path(parent, v))
        out = CycleWitness(cycle=cycle)
    # Drop the lifts: their cover node ids would otherwise stay allocated
    # through the schedule.
    lo, hi = scratch.lo, scratch.hi
    for v in order:
        lo[v] = hi[v] = 0
    return out


class _Cover:
    """The universal cover of a triangle-free reflexive host, grown on demand.

    Its nodes are the reduced walks from one base colour, kept as a trie:
    node i is a walk ending in colour label[i] whose last step leaves node
    up[i], depth[i] steps from the base node 0 (its own parent).  The cover
    is a tree, so the reduced walk between two nodes is their tree path.
    """

    __slots__ = ("label", "up", "depth", "child", "nh")

    def __init__(self, nh: int, walk: Walk):
        """The trie of the one reduced walk `walk`; node i is walk[: i + 1]."""
        m = len(walk)
        self.nh = nh
        self.label = list(walk)
        self.up = [0] + list(range(m - 1))
        self.depth = list(range(m))
        self.child = {i * nh + walk[i + 1]: i + 1 for i in range(m - 1)}

    def lift(
        self, order: list[int], parent: list[int], f: Sequence[int], start: int, at: list[int]
    ) -> list[int]:
        """Lift f along the BFS tree into at, sending order[0] to node start.

        A step to colour c stays on a node coloured c, goes up when the
        parent is coloured c, and otherwise goes down to the child c.  Only
        the entries of the tree's vertices are written.
        """
        label, up, depth, child, nh = self.label, self.up, self.depth, self.child, self.nh
        at[order[0]] = start
        for v in islice(order, 1, None):
            x = at[parent[v]]
            c = f[v]
            if label[x] != c:
                p = up[x]
                if label[p] == c:
                    x = p
                else:
                    key = x * nh + c
                    y = child.get(key)
                    if y is None:
                        y = child[key] = len(label)
                        label.append(c)
                        up.append(x)
                        depth.append(depth[x] + 1)
                    x = y
            at[v] = x
        return at

    def walk(self, a: int, b: int) -> Walk:
        """The reduced walk from node a to node b: up to their meet, then down."""
        label, up, depth = self.label, self.up, self.depth
        left, right = [], []
        while depth[a] > depth[b]:
            left.append(label[a])
            a = up[a]
        while depth[b] > depth[a]:
            right.append(label[b])
            b = up[b]
        while a != b:
            left.append(label[a])
            a = up[a]
            right.append(label[b])
            b = up[b]
        left.append(label[a])
        left.extend(reversed(right))
        return tuple(left)


def _failing_edge(
    g: Graph,
    h: Graph,
    phi: Sequence[int],
    psi: Sequence[int],
    order: list[int],
    parent: list[int],
    w_root: Walk,
    scratch: Scratch,
) -> tuple[int, int] | None:
    """The first non-tree edge uv (u < v) the system does not preserve, if any."""
    cover = _Cover(h.n, w_root)
    lo = cover.lift(order, parent, phi, 0, scratch.lo)
    hi = cover.lift(order, parent, psi, len(w_root) - 1, scratch.hi)
    up = cover.up
    for u in sorted(order):
        lo_u, hi_u = lo[u], hi[u]
        for v in g.adj[u]:
            if v <= u:  # each edge once; loops are always preserved
                continue
            # The edge lifts to a cover edge (or a node) on both sides, as
            # every tree edge does, so carrying w_v across it gives back w_u
            # without building either walk.
            lo_v, hi_v = lo[v], hi[v]
            if (lo_v == lo_u or up[lo_v] == lo_u or up[lo_u] == lo_v) and (
                hi_v == hi_u or up[hi_v] == hi_u or up[hi_u] == hi_v
            ):
                continue
            w_u = cover.walk(lo_u, hi_u)
            w_v = cover.walk(lo_v, hi_v)
            if not edge_preserved(phi, psi, u, v, w_u, w_v):
                return u, v
    return None


def _carry_walks(
    phi: Sequence[int],
    psi: Sequence[int],
    order: list[int],
    parent: list[int],
    w_root: Walk,
) -> dict[int, Walk]:
    """Every walk of the system, each the reduction of (phi(v),) + w_parent + (psi(v),).

    order is any sequence of vertices in which each one after the first is
    adjacent to its parent, which comes earlier.  The parent's walk is
    reduced, so the reduction changes at most one vertex at each end: it
    keeps, drops or adds the end vertex.
    """
    walks: dict[int, Walk] = {order[0]: w_root}
    for v in islice(order, 1, None):
        w = walks[parent[v]]
        a = phi[v]
        if w[0] != a:
            w = w[1:] if len(w) > 1 and w[1] == a else (a,) + w
        b = psi[v]
        if w[-1] != b:
            w = w[:-1] if len(w) > 1 and w[-2] == b else w + (b,)
        walks[v] = w
    return walks


def _candidate_family(
    phi: Sequence[int], psi: Sequence[int], cycle: Walk
) -> tuple[list[Walk] | None, tuple[Walk, Walk] | None]:
    """Candidate base walks that preserve the witness cycle.

    Returns (candidates, None), or (None, the two free cores) when the cycle's
    images are not freely homotopic, in which case no base walk exists.
    """
    img_phi = reduce_walk(tuple(phi[x] for x in cycle))
    img_psi = reduce_walk(tuple(psi[x] for x in cycle))
    da = free_decomposition(img_phi)
    db = free_decomposition(img_psi)
    if da.contractible and db.contractible:
        raise InternalError("witness cycle with both images contractible")
    if da.contractible or db.contractible:
        return None, (da.core, db.core)
    k = shift_match(da.core, db.core)
    if k is None:
        return None, (da.core, db.core)
    prefix = da.core[: k + 1]
    root = primitive_root(da.core)
    root_loop = root + (root[0],)
    out: list[Walk] = []
    for d in (-1, 0, 1):
        w = concat(concat(concat(da.tail, closed_power(root_loop, d)), prefix), reverse(db.tail))
        out.append(reduce_walk(w))
    return out, None


def find_valid_base_walk(
    g: Graph,
    h: Graph,
    phi: Sequence[int],
    psi: Sequence[int],
    tree: tuple[list[int], list[int]],
    scratch: Scratch | None = None,
) -> WalkSystem | Obstruction:
    """The system of a topologically valid (phi(root), psi(root))-walk, or why none exists.

    tree is the BFS tree of the component, rooted at root = order[0]; every
    candidate system is generated along it.  Stage 1 tries the shortest walk
    between the endpoint colours.  On failure, the witness cycle pins every
    preserving walk to a finite candidate family (tail . core-root-power .
    core-prefix . reversed tail); a second witness from the zero-power
    candidate pins it further.  Every candidate is validated by generating
    its system, so extra candidates can never cost soundness.  Among a
    family's valid candidates the shortest wins, then the first.  One
    scratch, passed in or else allocated here, serves every generate_system
    call.

    The obstruction is no-valid-walk on (root,) when the endpoint colours
    lie in different components of H, free-class-mismatch on a witness
    cycle whose images are not freely homotopic, and no-valid-walk on the
    first witness cycle when neither family holds a valid walk.
    """
    root = tree[0][0]
    w0 = shortest_walk(h, phi[root], psi[root])
    if w0 is None:
        return Obstruction(kind=NO_VALID_WALK, cycle=(root,))
    if scratch is None:
        scratch = Scratch(g.n)
    out = generate_system(g, h, phi, psi, tree, w0, scratch=scratch)
    if isinstance(out, WalkSystem):
        return out
    # At most two witness cycles each pin a candidate family; the second
    # comes from the first family's zero-power candidate.
    first_cycle = cycle = out.cycle
    results: dict[Walk, WalkSystem | CycleWitness] = {}
    for _ in range(2):
        candidates, cores = _candidate_family(phi, psi, cycle)
        if candidates is None:
            return Obstruction(kind=CLASS_MISMATCH, cycle=cycle, cores=cores)
        for cand in candidates:
            if cand not in results:
                results[cand] = generate_system(g, h, phi, psi, tree, cand, scratch=scratch)
        valid = [c for c in candidates if isinstance(results[c], WalkSystem)]
        if valid:
            return results[min(valid, key=len)]
        second = results[candidates[1]]
        if not isinstance(second, CycleWitness):
            raise InternalError("zero-power candidate left no witness cycle")
        cycle = second.cycle
    return Obstruction(kind=NO_VALID_WALK, cycle=first_cycle)

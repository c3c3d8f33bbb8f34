"""Topologically valid walk systems.

A system assigns each vertex v a reduced walk from phi(v) to psi(v); it is
valid when every edge of the instance graph is preserved, i.e. prepending the
phi-image of the edge and appending the reversed psi-image to one endpoint's
walk reduces to the other endpoint's walk.  Along a BFS spanning tree this
rule fixes every walk from the root's; the non-tree edges are then checked,
and the first failing edge closes a witness cycle through the tree.  Each
step of the base-walk search returns its answer or the certificate that
ends it: _failing_cycle the failing cycle or None, _candidate_family the
candidates a cycle pins or the free-class-mismatch on it, and
find_valid_base_walk a valid system or an Obstruction.

The check runs in the host's universal cover.  In a triangle-free reflexive
host the reduced walks from one colour form a tree, so a reduced walk is a
path of that tree and is fixed by its two ends.  phi and psi are lifted into
the cover along the BFS tree at constant cost per vertex, and an edge whose
lifts stay adjacent on both sides is preserved without building a walk.
Walks are built only for the endpoints of the edges left over, and for the
whole system once it is known to be valid.  A system that fails costs the
size of its component plus the walks of those few edges, not the total
length of all its walks, which grows quadratically on a mirrored cycle wrap.

A valid system is laid out flat: every walk, in BFS order, in one array of
colours, with its start and end index in the Scratch it carries.  Of the
several candidate base walks a search may find valid, only the one chosen
is written out, so a system holds its component's walks and nothing
n-sized.  While a system is checked, the same start and end lists hold
the lifts of phi and psi; writing out a valid system overwrites them.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import NamedTuple, Sequence

from .errors import InternalError
from .graphs import Graph, Scratch, id_code, shortest_walk, tree_path
from .walks import (
    Walk,
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


class Obstruction(NamedTuple):
    """A NO certificate: one of the four kinds above, on a closed walk of G."""

    kind: str
    cycle: Walk
    vertex: int | None = None
    cores: tuple[Walk, Walk] | None = None


class WalkSystem(NamedTuple):
    """A valid system: v's walk is flat[scratch.start[v]:scratch.end[v]]
    for each v of order.

    order is the component in the BFS order its walks were written in.
    flat is an array.array of the narrowest unsigned type that holds a
    colour of the host, graphs.id_code(h.n): one byte per colour up to 256
    colours, where a list would hold an 8-byte pointer.  scratch is the
    Scratch the system was generated in: its start and end hold the
    bounds, read only at order's vertices, and the scheduler runs the
    system in its left, cur and queued.  Generating another system in that
    scratch overwrites the bounds.
    """

    order: list[int]
    flat: array
    scratch: Scratch


class CycleWitness(NamedTuple):
    """A closed walk of G on which the system fails: a non-tree edge that
    generate_system finds unpreserved, or a tight cycle that schedule finds
    deadlocked."""

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
    scratch: Scratch,
) -> WalkSystem | CycleWitness:
    """Build the unique reduced system containing w_root, or its failing cycle.

    tree is the (order, parent) BFS tree of one component, as bfs_tree
    returns it, and w_root the walk of its root order[0].  Each vertex's
    walk is the reduction of (phi(v),) + w_parent + (psi(v),) down the tree,
    so w_root fixes the system; a valid system is the same along any
    spanning tree, so one tree serves every system of the component.
    _failing_cycle checks the system in the host's universal cover; on
    success every walk is built once, from its parent's walk.  scratch.start
    and scratch.end hold the lifts while the system is checked, and the
    bounds of its walks once it is valid, and the system returned carries
    scratch; a solve passes one scratch for all its calls.
    """
    witness = _failing_cycle(g, h, phi, psi, tree, w_root, scratch)
    if witness is not None:
        return witness
    return _carry_walks(h, phi, psi, tree, w_root, scratch)


class _Cover:
    """The universal cover of a triangle-free reflexive host, grown on demand.

    Its nodes are the reduced walks from one base colour, kept as a trie:
    node i is a walk ending in colour label[i] whose last step leaves node
    up[i]; the base node 0 is its own parent.  A node is added after its
    parent, so up[i] < i for every i >= 1, and an ancestor's id is smaller
    than its descendants'.  The cover is a tree, so the reduced walk between
    two nodes is their tree path.  kid[i] is node i's first child, 0 when it
    has none (node 0 is no node's child); a second or later child of i
    coloured c is more[i * nh + c].  On a cycle wrap no node has a second
    child, so more stays empty.
    """

    __slots__ = ("label", "up", "kid", "more", "nh")

    def __init__(self, nh: int, walk: Walk):
        """The trie of the one reduced walk `walk`; node i is walk[: i + 1]."""
        m = len(walk)
        self.nh = nh
        self.label = list(walk)
        self.up = [0] + list(range(m - 1))
        self.kid = list(range(1, m)) + [0]
        self.more: dict[int, int] = {}

    def lift(
        self,
        order: list[int],
        parent: list[int],
        phi: Sequence[int],
        psi: Sequence[int],
        lo: list[int],
        hi: list[int],
        hi_root: int,
    ) -> None:
        """Lift phi into lo and psi into hi along the BFS tree.

        order[0] goes to node 0 under phi and to node hi_root under psi.  A
        step to colour c stays on a node coloured c, goes up when the parent
        is coloured c, and otherwise goes down to the child c, made when
        missing.  Only the entries of the tree's vertices are written.
        """
        label, up, kid, more, nh = self.label, self.up, self.kid, self.more, self.nh
        for colours, nodes, x in ((phi, lo, 0), (psi, hi, hi_root)):
            nodes[order[0]] = x
            for v in islice(order, 1, None):
                x = nodes[parent[v]]
                c = colours[v]
                if label[x] != c:
                    q = up[x]
                    if label[q] == c:
                        x = q
                    else:
                        y = kid[x]
                        if not y:  # x's first child
                            y = kid[x] = len(label)
                            label.append(c)
                            up.append(x)
                            kid.append(0)
                        elif label[y] != c:  # a second or later child
                            key = x * nh + c
                            y = more.get(key, 0)
                            if not y:
                                y = more[key] = len(label)
                                label.append(c)
                                up.append(x)
                                kid.append(0)
                        x = y
                nodes[v] = x

    def walk(self, a: int, b: int) -> Walk:
        """The reduced walk from node a to node b: up to their meet, then down.

        While a != b, the larger of the two ids is no ancestor of the other
        node, so it lies strictly below their meet and steps up.
        """
        label, up = self.label, self.up
        left, right = [], []
        while a != b:
            if a > b:
                left.append(label[a])
                a = up[a]
            else:
                right.append(label[b])
                b = up[b]
        left.append(label[a])
        left.extend(reversed(right))
        return tuple(left)


def _failing_cycle(
    g: Graph,
    h: Graph,
    phi: Sequence[int],
    psi: Sequence[int],
    tree: tuple[list[int], list[int]],
    w_root: Walk,
    scratch: Scratch,
) -> CycleWitness | None:
    """The failing cycle of w_root's system, or None when the system is valid.

    phi and psi are lifted into the host's universal cover from the two ends
    of w_root, so w_v is the cover path between v's two lifts.  Every
    non-tree, non-loop edge uv (u < v) is checked in ascending order of u,
    and its two walks are built only when its lifts are not adjacent on both
    sides.  The first edge that fails closes the cycle tree-path(root, u) .
    uv . tree-path(v, root).  The lifts are left in scratch.start and
    scratch.end, where _carry_walks writes over them at every vertex of a
    valid system."""
    order, parent = tree
    root = order[0]
    if w_root[0] != phi[root] or w_root[-1] != psi[root]:
        raise InternalError("base walk endpoints do not match the maps")
    if not is_reduced(w_root):
        raise InternalError("base walk must be reduced")
    cover = _Cover(h.n, w_root)
    lo, hi = scratch.start, scratch.end
    cover.lift(order, parent, phi, psi, lo, hi, len(w_root) - 1)
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
                return CycleWitness(
                    cycle=tuple(reversed(tree_path(parent, u))) + tuple(tree_path(parent, v))
                )
    return None


def _carry_walks(
    h: Graph,
    phi: Sequence[int],
    psi: Sequence[int],
    tree: tuple[list[int], list[int]],
    w_root: Walk,
    scratch: Scratch,
) -> WalkSystem:
    """Every walk of the system, each the reduction of (phi(v),) + w_parent + (psi(v),).

    The walks go into one flat array in tree order, each after its
    parent's, and their bounds into scratch.start and scratch.end.  The
    array's type is the narrowest that holds h's colours, id_code(h.n), and
    it grows in place by append, extend and pop as a list would.  The
    parent's walk is reduced, so the reduction changes at most one vertex at
    each end: it keeps, drops or adds the end vertex.  Each walk starts
    where the one before it ends, and both bounds are the same int object.
    """
    order, parent = tree
    start, end = scratch.start, scratch.end
    flat = array(id_code(h.n), w_root)
    e = len(flat)
    start[order[0]] = 0
    end[order[0]] = e
    for v in islice(order, 1, None):
        s = e
        p = parent[v]
        i, j = start[p], end[p]
        a = phi[v]
        if flat[i] != a:
            if j - i > 1 and flat[i + 1] == a:
                i += 1
            else:
                flat.append(a)
        flat += flat[i:j]
        b = psi[v]
        if flat[-1] != b:
            if len(flat) - s > 1 and flat[-2] == b:
                flat.pop()
            else:
                flat.append(b)
        e = len(flat)
        start[v] = s
        end[v] = e
    return WalkSystem(order=order, flat=flat, scratch=scratch)


def _candidate_family(
    phi: Sequence[int], psi: Sequence[int], cycle: Walk
) -> list[Walk] | Obstruction:
    """Candidate base walks that preserve the witness cycle, or the
    free-class-mismatch obstruction on it when the cycle's images are not
    freely homotopic, in which case no base walk exists."""
    da = free_decomposition(tuple(phi[x] for x in cycle))
    db = free_decomposition(tuple(psi[x] for x in cycle))
    k = shift_match(da.core, db.core)
    if k is None:
        return Obstruction(kind=CLASS_MISMATCH, cycle=cycle, cores=(da.core, db.core))
    if not da.core:
        raise InternalError("witness cycle with both images contractible")
    prefix = da.core[: k + 1]
    root = primitive_root(da.core)
    root_loop = root + (root[0],)
    # the root loop turned -1, 0 and 1 times, so candidates[1] is the zero power
    return [
        reduce_walk(concat(concat(concat(da.tail, turn), prefix), reverse(db.tail)))
        for turn in (reverse(root_loop), root_loop[:1], root_loop)
    ]


def find_valid_base_walk(
    g: Graph,
    h: Graph,
    phi: Sequence[int],
    psi: Sequence[int],
    tree: tuple[list[int], list[int]],
    scratch: Scratch,
) -> WalkSystem | Obstruction:
    """The system of a topologically valid (phi(root), psi(root))-walk, or why none exists.

    tree is the BFS tree of the component, rooted at root = order[0]; every
    candidate system is generated along it.  Stage 1 tries the shortest walk
    between the endpoint colours.  On failure, the witness cycle pins every
    preserving walk to a finite candidate family (tail . core-root-power .
    core-prefix . reversed tail); a second witness, the failing cycle of
    the zero-power candidate, pins it further.  Every candidate of a family
    is checked in the cover, so extra candidates can never cost soundness;
    no result is kept past its family, so a candidate both families hold
    is checked twice, which only the rare search that reaches the second
    family pays.  Among a family's valid candidates the shortest wins, then
    the first, and only its walks are built.  The one scratch serves every
    system checked.

    The obstruction is no-valid-walk on (root,) when the endpoint colours
    lie in different components of H, free-class-mismatch on a witness
    cycle whose images are not freely homotopic, and no-valid-walk on the
    first witness cycle when neither family holds a valid walk.
    """
    root = tree[0][0]
    w0 = shortest_walk(h, phi[root], psi[root])
    if w0 is None:
        return Obstruction(kind=NO_VALID_WALK, cycle=(root,))
    out = generate_system(g, h, phi, psi, tree, w0, scratch)
    if isinstance(out, WalkSystem):
        return out
    # At most two witness cycles each pin a candidate family; the second
    # comes from the first family's zero-power candidate.
    first_cycle = cycle = out.cycle
    for _ in range(2):
        candidates = _candidate_family(phi, psi, cycle)
        if isinstance(candidates, Obstruction):
            return candidates
        # each candidate's failing cycle, or None when its system is valid
        failing = [_failing_cycle(g, h, phi, psi, tree, cand, scratch) for cand in candidates]
        valid = [c for c, f in zip(candidates, failing) if f is None]
        if valid:
            return _carry_walks(h, phi, psi, tree, min(valid, key=len), scratch)
        cycle = failing[1].cycle
    return Obstruction(kind=NO_VALID_WALK, cycle=first_cycle)

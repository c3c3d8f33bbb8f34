"""Topologically valid walk systems.

A system assigns each vertex v a reduced walk from phi(v) to psi(v); it is
valid when every edge of the instance graph is preserved, i.e. prepending the
phi-image of the edge and appending the reversed psi-image to one endpoint's
walk reduces to the other endpoint's walk.  Along a BFS spanning tree this
rule fixes every walk from the root's; the non-tree edges are then checked,
and the first failing edge closes a witness cycle through the tree.  Each
step of the base-walk search returns its answer or the certificate that
ends it: _failing_cycle the failing cycle, or for a valid system the edge
that pins its family or None, _candidate_family the candidates a cycle
pins or the free-class-mismatch on it, and find_valid_base_walk a valid
system or an Obstruction.

Which valid system is scheduled is a free choice, and its schedule makes
one move per step of a walk.  Every valid root walk lies in the family of
turns of one root loop, pinned by the first cycle whose phi-image is not
contractible, so the search ends with a greedy descent over that family
(_fewest_moves): a neighbour of one more or one fewer turn replaces the
system while it counts strictly fewer moves and is valid.  The count
(_move_count) reads the cover lifts and builds no walk, and the descent
runs only where it could save at least the component's size in moves.

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
is written out, and after a descent only the one it ends on, so a system
holds its component's walks and nothing n-sized.  While a system is
checked or counted, the same start and end lists hold the lifts of phi
and psi; writing out a valid system overwrites them.
"""

from __future__ import annotations

from array import array
from itertools import islice
from operator import ne
from typing import NamedTuple, Sequence

from .errors import InternalError
from .graphs import Graph, Scratch, id_code, shortest_walk, tree_path
from .walks import (
    FreeDecomposition,
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
    if isinstance(witness, CycleWitness):
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
        order: Sequence[int],
        parent: Sequence[int],
        colours: Sequence[int],
        nodes: list[int],
        x: int,
    ) -> None:
        """Lift the map colours into nodes along the tree, order[0] to node x.

        A step to colour c stays on a node coloured c, goes up when the
        parent is coloured c, and otherwise goes down to the child c, made
        when missing.  Only the entries of the tree's vertices are written.
        """
        label, up, kid, more, nh = self.label, self.up, self.kid, self.more, self.nh
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

    def node(self, walk: Walk) -> int:
        """The node of the reduced walk `walk` from the base colour, made
        when missing: the walk lifted as a path, each step from the last."""
        nodes = [0] * len(walk)
        self.lift(range(len(walk)), range(-1, len(walk) - 1), walk, nodes, 0)
        return nodes[-1]

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
) -> CycleWitness | tuple[int, int] | None:
    """The failing cycle of w_root's system; for a valid system, the edge
    that pins its family, or None.

    phi and psi are lifted into the host's universal cover from the two ends
    of w_root, so w_v is the cover path between v's two lifts, and
    _unpreserved_cycle checks the edges.  The lifts are left in
    scratch.start and scratch.end, where _carry_walks writes over them at
    every vertex of a valid system."""
    order, parent = tree
    root = order[0]
    if w_root[0] != phi[root] or w_root[-1] != psi[root]:
        raise InternalError("base walk endpoints do not match the maps")
    if not is_reduced(w_root):
        raise InternalError("base walk must be reduced")
    cover = _Cover(h.n, w_root)
    cover.lift(order, parent, phi, scratch.start, 0)
    cover.lift(order, parent, psi, scratch.end, len(w_root) - 1)
    return _unpreserved_cycle(g, phi, psi, tree, cover, scratch)


def _unpreserved_cycle(
    g: Graph,
    phi: Sequence[int],
    psi: Sequence[int],
    tree: tuple[list[int], list[int]],
    cover: _Cover,
    scratch: Scratch,
) -> CycleWitness | tuple[int, int] | None:
    """The cycle of the first edge the lifted system fails; when it fails
    none, the first edge (u, v) whose phi-lifts are not adjacent, or None.

    scratch.start and scratch.end hold the lifts of phi and psi in cover.
    Every non-tree, non-loop edge uv (u < v) is checked in ascending order
    of u, and its two walks are built only when its lifts are not adjacent
    on both sides.  The first edge that fails closes the cycle
    tree-path(root, u) . uv . tree-path(v, root).  On an edge whose
    phi-lifts are not adjacent, that cycle's phi-image is not contractible,
    so it pins every valid root walk to one family (_fewest_moves)."""
    order, parent = tree
    lo, hi, up = scratch.start, scratch.end, cover.up
    pin = None
    for u in sorted(order):
        lo_u, hi_u = lo[u], hi[u]
        for v in g.adj[u]:
            if v <= u:  # each edge once; loops are always preserved
                continue
            # The edge lifts to a cover edge (or a node) on both sides, as
            # every tree edge does, so carrying w_v across it gives back w_u
            # without building either walk.
            lo_v, hi_v = lo[v], hi[v]
            near = lo_v == lo_u or up[lo_v] == lo_u or up[lo_u] == lo_v
            if near and (hi_v == hi_u or up[hi_v] == hi_u or up[hi_u] == hi_v):
                continue
            if pin is None and not near:
                pin = (u, v)
            w_u = cover.walk(lo_u, hi_u)
            w_v = cover.walk(lo_v, hi_v)
            if not edge_preserved(phi, psi, u, v, w_u, w_v):
                return CycleWitness(
                    cycle=tuple(reversed(tree_path(parent, u))) + tuple(tree_path(parent, v))
                )
    return pin


def _move_count(
    cover: _Cover, tree: tuple[list[int], list[int]], lo: list[int], hi: list[int]
) -> int:
    """The moves of the system lifted into lo and hi, the sum of |w_v| - 1,
    with no walk built.

    |w_v| - 1 is the cover distance between v's lifts, and it follows
    _carry_walks' keep/drop/add rule down the tree: a lift that stays keeps
    the distance, and one that steps along the cover edge xy drops a step
    when y lies on the way from x to the other lift z, or adds one.  That
    is read off the edge's lower end c, the larger id: y lies on the way
    iff z is in c's subtree exactly when c is y.  A subtree is a preorder
    interval [first[c], last[c]), numbered in two passes over the nodes, as
    an ancestor's id is smaller than its descendants'.  Each vertex's
    distance is kept at its place in order: in a BFS order the parents
    come in the order of their children.
    """
    order, parent = tree
    up = cover.up
    n = len(up)
    # Children are numbered in descending id order.  The first pass leaves
    # subtree sizes in last, and in first[x] the size of the subtrees of
    # x's later siblings; the second adds the parent's number and 1 to
    # first[x], and first[x] to last[x].
    last = array(id_code(n + 1, 4), [1]) * n
    first = array(last.typecode, [0]) * n
    for x, q in zip(range(n - 1, 0, -1), reversed(up)):
        first[x] = last[q] - 1
        last[q] += last[x]
    for x, q in zip(range(1, n), islice(up, 1, None)):
        f = first[x] = first[x] + first[q] + 1
        last[x] += f
    dist = [0] * len(order)
    total = dist[0] = len(cover.walk(lo[order[0]], hi[order[0]])) - 1
    j = 0  # the parent's place in order
    for i in range(1, len(order)):
        v = order[i]
        y, t = lo[v], hi[v]
        if y == t:
            continue  # a constant walk: dist[i] is 0
        p = parent[v]
        while order[j] != p:
            j += 1
        d = dist[j]
        x = lo[p]
        if x != y:
            c = x if x > y else y
            d += -1 if (first[c] <= first[hi[p]] < last[c]) == (c == y) else 1
        x = hi[p]
        if x != t:
            c = x if x > t else t
            d += -1 if (first[c] <= first[y] < last[c]) == (c == t) else 1
        dist[i] = d
        total += d
    return total


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
    base = reduce_walk(concat(concat(da.tail, da.core[: k + 1]), reverse(db.tail)))
    turn = _root_turn(da)
    # the root loop turned -1, 0 and 1 times, so candidates[1] is the zero power
    return [reduce_walk(concat(reverse(turn), base)), base, reduce_walk(concat(turn, base))]


def _root_turn(d: FreeDecomposition) -> Walk:
    """One turn of the primitive root of d's core, as a closed walk from
    where d's tail starts: tail . root loop . reversed tail, reduced.

    Every walk w that preserves a cycle whose image decomposes as d lies in
    one family: turn^k . w, over all integers k, reduced."""
    root = primitive_root(d.core)
    return reduce_walk(concat(concat(d.tail, root + root[:1]), reverse(d.tail)))


def _fewest_moves(
    g: Graph,
    h: Graph,
    phi: Sequence[int],
    psi: Sequence[int],
    tree: tuple[list[int], list[int]],
    w: Walk,
    pin: tuple[int, int] | None,
    scratch: Scratch,
) -> WalkSystem:
    """The system of fewest moves in the family of the valid root walk w.

    pin is the non-tree edge uv that _unpreserved_cycle found pinning the
    family, or None: then every cycle's phi-image is contractible, every
    walk between the root's colours is valid, and w's system is kept.
    Every valid root walk is turn^k . w, reduced, for an integer k, where
    turn is one turn of the root loop of the phi-image of uv's cycle
    (_root_turn), and either every one of them is valid or w alone is.

    w's system is carried first, for its moves M = len(flat) - len(order).
    _descend runs only while the moves a step could save, M - D, are at
    least the component's size, where D counts its vertices with
    phi != psi: no system makes fewer than D moves.  D is counted only as
    far as that bound, so a component at its floor, such as a tight
    rotation with M = D, pays one short scan.  Past the gate, w's walks
    and their bounds, then uv's cycle, are dropped before _descend builds
    its cover, and the walk it ends on is carried.
    """
    system = _carry_walks(h, phi, psi, tree, w, scratch)
    if pin is None:
        return system
    order, parent = tree
    m = len(order)
    moves = len(system.flat) - m
    if moves < m:
        return system
    differs = filter(None, map(ne, map(phi.__getitem__, order), map(psi.__getitem__, order)))
    floor = sum(islice(differs, moves - m + 1))
    if moves - floor < m:
        return system
    del system
    end = scratch.end
    for v in order:  # start and end share each bound: the lifts free them
        end[v] = 0
    cycle = tree_path(parent, pin[0])
    cycle.reverse()
    cycle += tree_path(parent, pin[1])
    turn = _root_turn(free_decomposition(tuple(map(phi.__getitem__, cycle))))
    del cycle
    w = _descend(g, h, phi, psi, tree, w, turn, moves, floor, scratch)
    return _carry_walks(h, phi, psi, tree, w, scratch)


def _descend(
    g: Graph,
    h: Graph,
    phi: Sequence[int],
    psi: Sequence[int],
    tree: tuple[list[int], list[int]],
    w: Walk,
    turn: Walk,
    moves: int,
    floor: int,
    scratch: Scratch,
) -> Walk:
    """The valid root walk of fewest moves that greedy steps reach from w.

    w is valid, its system makes moves moves, turn is one turn of its
    family's root loop, and floor is the gate's D.  The descent steps to
    turn . w, or else to reversed(turn) . w, and on in that direction while
    the gate holds and the step counts strictly fewer moves;
    _unpreserved_cycle checks a step only once it counts fewer.  A tie
    keeps w.  One cover serves every step: phi is lifted into
    scratch.start once, and each step's psi into scratch.end.
    """
    order, parent = tree
    m = len(order)
    lo, hi = scratch.start, scratch.end
    cover = _Cover(h.n, w)
    cover.lift(order, parent, phi, lo, 0)
    for step in (turn, reverse(turn)):
        moved = False
        while moves - floor >= m:
            cand = reduce_walk(concat(step, w))
            cover.lift(order, parent, psi, hi, cover.node(cand))
            count = _move_count(cover, tree, lo, hi)
            if count >= moves:
                break
            if isinstance(_unpreserved_cycle(g, phi, psi, tree, cover, scratch), CycleWitness):
                return w  # w is the one valid walk of its family
            w, moves, moved = cand, count, True
        if moved:
            break
    return w


def find_valid_base_walk(
    g: Graph,
    h: Graph,
    phi: Sequence[int],
    psi: Sequence[int],
    tree: tuple[list[int], list[int]],
    scratch: Scratch,
) -> WalkSystem | Obstruction:
    """The fewest-move system of the family of a topologically valid
    (phi(root), psi(root))-walk, or why no valid walk exists.

    tree is the BFS tree of the component, rooted at root = order[0]; every
    candidate system is generated along it.  Stage 1 tries the shortest walk
    between the endpoint colours.  On failure, the witness cycle pins every
    preserving walk to a finite candidate family (tail . core-root-power .
    core-prefix . reversed tail); a second witness, the failing cycle of
    the zero-power candidate, pins it further.  Every candidate of a family
    is checked in the cover, so extra candidates can never cost soundness;
    no result is kept past its family, so a candidate both families hold
    is checked twice, which only the rare search that reaches the second
    family pays.  Among a family's valid candidates the shortest root walk
    wins, then the first, and _fewest_moves descends from it.  The one
    scratch serves every system checked.

    The obstruction is no-valid-walk on (root,) when the endpoint colours
    lie in different components of H, free-class-mismatch on a witness
    cycle whose images are not freely homotopic, and no-valid-walk on the
    first witness cycle when neither family holds a valid walk.
    """
    root = tree[0][0]
    w0 = shortest_walk(h, phi[root], psi[root])
    if w0 is None:
        return Obstruction(kind=NO_VALID_WALK, cycle=(root,))
    out = _failing_cycle(g, h, phi, psi, tree, w0, scratch)
    if not isinstance(out, CycleWitness):
        return _fewest_moves(g, h, phi, psi, tree, w0, out, scratch)
    # At most two witness cycles each pin a candidate family; the second
    # comes from the first family's zero-power candidate.
    first_cycle = cycle = out.cycle
    for _ in range(2):
        candidates = _candidate_family(phi, psi, cycle)
        if isinstance(candidates, Obstruction):
            return candidates
        # each candidate's failing cycle, or its pinning edge when it is valid
        checks = [_failing_cycle(g, h, phi, psi, tree, cand, scratch) for cand in candidates]
        valid = [(c, pin) for c, pin in zip(candidates, checks) if not isinstance(pin, CycleWitness)]
        if valid:
            w, pin = min(valid, key=lambda found: len(found[0]))
            return _fewest_moves(g, h, phi, psi, tree, w, pin, scratch)
        cycle = checks[1].cycle
    return Obstruction(kind=NO_VALID_WALK, cycle=first_cycle)

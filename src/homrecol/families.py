"""Instance generators: named constructions and seeded random instances.

The random generators only ever emit triangle-free reflexive hosts, drawn
from a small catalogue (cycles of length >= 4, paths, random trees, a cycle
with a pendant, two squares sharing a vertex) trimmed to the requested size.
"""

from __future__ import annotations

import random
from typing import Sequence

from .errors import InvalidInputError
from .graphs import Graph, is_homomorphism
from .solver import GIRTH5, REFLEXIVE, Instance


def cycle_graph(n: int, reflexive: bool = True) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)], reflexive=reflexive)


def path_graph(n: int, reflexive: bool = True) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)], reflexive=reflexive)


def cycle_with_pendant(n: int) -> Graph:
    """Reflexive n-cycle plus one pendant vertex attached to vertex 0."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(0, n)]
    return Graph(n + 1, edges, reflexive=True)


def two_squares_shared(trim: int = 0) -> Graph:
    """Two 4-cycles sharing vertex 0 (7 vertices), with trim vertices removed."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)]
    n = 7 - trim
    if trim:
        edges = [(u, v) for u, v in edges if u < n and v < n]
    return Graph(n, edges, reflexive=True)


def make_cycle_wrap(g_len: int, h_len: int, shift: int) -> Instance:
    """Reflexive g_len-cycle wrapping a reflexive h_len-cycle, with the
    leftover vertices parked on colour 0; psi is phi rotated by shift.
    """
    if h_len < 4:
        raise InvalidInputError("host cycle must have length at least 4")
    if g_len < h_len + 1:
        raise InvalidInputError("instance cycle must be longer than the host cycle")
    slack = g_len % h_len or h_len
    wrapped = g_len - slack
    phi = tuple(i % h_len if i < wrapped else 0 for i in range(g_len))
    psi = tuple(phi[(i - shift) % g_len] for i in range(g_len))
    return Instance(
        g=cycle_graph(g_len), h=cycle_graph(h_len), phi=phi, psi=psi, mode=REFLEXIVE
    )


def make_figure_eight() -> Instance:
    """Reflexive 5-cycle into two squares sharing a vertex, one wrap per square."""
    h = two_squares_shared()
    g = cycle_graph(5)
    phi = (0, 1, 2, 3, 0)
    psi = (0, 4, 5, 6, 0)
    return Instance(g=g, h=h, phi=phi, psi=psi, mode=REFLEXIVE)


def make_double_bridge() -> Instance:
    """Two bridged squares with the approach route flipped between the maps.

    The host has a left and a right square joined by a top and a bottom
    bridge vertex.  The instance graph is a 5-cycle around the left square
    sharing a vertex with a 13-cycle around the right square; phi routes the
    long cycle's approach over the top bridge, psi over the bottom one.  No
    cycle image is tight and each cycle is separately reconfigurable, yet the
    two routes cannot be exchanged, so the answer is NO.
    """
    L0, L1, L2, L3, R0, R1, R2, R3, W1, W2 = range(10)
    h = Graph(
        10,
        [
            (L0, L1), (L1, L2), (L2, L3), (L3, L0),
            (R0, R1), (R1, R2), (R2, R3), (R3, R0),
            (L0, W1), (W1, R0), (L2, W2), (W2, R2),
        ],
        reflexive=True,
    )
    # vertices 0..4: short cycle; 0, 5..16: long cycle (0 shared)
    edges = [(i, (i + 1) % 5) for i in range(5)]
    long_cycle = [0] + list(range(5, 17))
    edges += [(long_cycle[i], long_cycle[(i + 1) % 13]) for i in range(13)]
    g = Graph(17, edges, reflexive=True)
    phi = (L0, L1, L2, L3, L0, W1, R0, R1, R2, R3, R0, W1, L0, L0, L0, L0, L0)
    psi = (L0, L1, L2, L3, L0, L1, L2, W2, R2, R3, R0, R1, R2, W2, L2, L1, L1)
    return Instance(g=g, h=h, phi=phi, psi=psi, mode=REFLEXIVE)


def make_locked_link() -> Instance:
    """Two tightly wrapped squares joined by one vertex that must swap sides.

    The maps agree on both squares (so both are frozen) but the linking
    vertex has to cross between opposite square colours, which single-vertex
    moves cannot do.  Exercises the second-deadlock branch of the solver.
    """
    h = cycle_graph(4)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 5)]
    g = Graph(9, edges, reflexive=True)
    phi = (0, 1, 2, 3, 1, 2, 3, 0, 1)
    psi = (0, 1, 2, 3, 3, 2, 3, 0, 1)
    return Instance(g=g, h=h, phi=phi, psi=psi, mode=REFLEXIVE)


def make_twisted_loop() -> Instance:
    """A tight square sharing its basepoint with a loop whose image is the
    other square conjugated by the first.

    The only topologically valid base walk is a full turn around the tight
    square, which its frozen vertices cannot perform; the constant retry walk
    is not even valid.  Exercises the invalid-retry branch of the solver.
    """
    h = two_squares_shared()
    edges = [(i, (i + 1) % 4) for i in range(4)]
    long_cycle = [0] + list(range(4, 16))
    edges += [(long_cycle[i], long_cycle[(i + 1) % 13]) for i in range(13)]
    g = Graph(16, edges, reflexive=True)
    phi = (0, 1, 2, 3) + (4, 5, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    psi = (0, 1, 2, 3) + (1, 2, 3, 0, 4, 5, 6, 0, 3, 2, 1, 1)
    return Instance(g=g, h=h, phi=phi, psi=psi, mode=REFLEXIVE)


def make_double_turn() -> Instance:
    """An instance whose only valid base walk turns twice around a square.

    Host: two squares sharing a vertex.  A 13-cycle rewires its image from a
    plain left-square wrap to the same wrap conjugated by the right square; a
    29-cycle rewires its right-square wrap by two left-square turns.  The
    joint conjugator is two left turns then one right turn back, which sits
    outside the first witness's single-turn candidate family, so the search
    must derive candidates from the second witness to find it.
    """
    h = two_squares_shared()
    edges = [(i, (i + 1) % 13) for i in range(13)]
    long_cycle = [0] + list(range(13, 41))
    edges += [(long_cycle[i], long_cycle[(i + 1) % 29]) for i in range(29)]
    g = Graph(41, edges, reflexive=True)
    phi = (0, 1, 2, 3) + (0,) * 9 + (4, 5, 6) + (0,) * 25
    psi = (0, 4, 5, 6, 0, 1, 2, 3, 0, 6, 5, 4, 0) + (
        4, 5, 6, 0, 3, 2, 1, 0, 3, 2, 1, 0, 4, 5, 6, 0, 1, 2, 3, 0, 1, 2, 3, 0, 6, 5, 4, 0,
    )
    return Instance(g=g, h=h, phi=phi, psi=psi, mode=REFLEXIVE)


def host_catalogue(max_n: int) -> list[Graph]:
    """Triangle-free reflexive hosts with at most max_n vertices."""
    hosts: list[Graph] = []
    for n in range(4, max_n + 1):
        hosts.append(cycle_graph(n))
    for n in range(2, max_n + 1):
        hosts.append(path_graph(n))
    if max_n >= 6:
        hosts.append(cycle_with_pendant(5))
    if max_n >= 5:
        hosts.append(star_graph(max_n - 1))
    hosts.append(two_squares_shared(trim=max(0, 7 - max_n)))
    return hosts


def star_graph(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)], reflexive=True)


def random_tree(rng: random.Random, n: int, reflexive: bool = True) -> Graph:
    edges = [(i, rng.randrange(i)) for i in range(1, n)]
    return Graph(n, edges, reflexive=reflexive)


def random_graph(rng: random.Random, n: int, p: float, reflexive: bool = True) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges, reflexive=reflexive)


def random_hom(rng: random.Random, g: Graph, h: Graph, tries: int = 50) -> tuple[int, ...]:
    """A random homomorphism by greedy colouring; falls back to a constant map."""
    for _ in range(tries):
        order = list(range(g.n))
        rng.shuffle(order)
        img: dict[int, int] = {}
        ok = True
        for v in order:
            allowed = set(range(h.n))
            for u in g.adj[v]:
                if u in img:  # own loop constrains nothing before v is coloured
                    allowed &= h.adj_sets[img[u]]
            if not allowed:
                ok = False
                break
            img[v] = rng.choice(sorted(allowed))
        if ok:
            f = tuple(img[v] for v in range(g.n))
            if is_homomorphism(g, h, f):
                return f
    c = rng.randrange(h.n)
    if h.n and not h.adjacent(c, c):  # constant maps need a looped colour
        c = min(x for x in range(h.n) if h.adjacent(x, x))
    return tuple([c] * g.n)


def random_walk_hom(
    rng: random.Random, g: Graph, h: Graph, phi: Sequence[int], steps: int
) -> tuple[int, ...]:
    """Endpoint of a random walk in the homomorphism graph starting at phi."""
    cur = list(phi)
    hs = h.adj_sets
    for _ in range(steps):
        candidates = []
        for v in range(g.n):
            allowed = set(h.adj[cur[v]]) if g.adjacent(v, v) else set(range(h.n))
            for u in g.adj[v]:
                if u != v:
                    allowed &= hs[cur[u]]
            allowed.discard(cur[v])
            candidates.extend((v, c) for c in sorted(allowed))
        if not candidates:
            break
        v, c = candidates[rng.randrange(len(candidates))]
        cur[v] = c
    return tuple(cur)


def random_instance(rng: random.Random, gv: int, hv: int) -> Instance:
    """A seeded reflexive-mode instance; psi is either independent or reachable.

    A slice of the corpus maps a cycle around a host cycle (tight or with
    slack, psi rotated or reversed) so that frozen and winding obstructions
    actually occur; purely random maps are almost always YES instances.
    """
    style = rng.random()
    if style < 0.45 and gv >= 4 and hv >= 4:
        k = rng.choice([k for k in (4, 5, 6) if k <= min(gv, hv)])
        h = cycle_graph(k)
        g = cycle_graph(gv)
        wraps = (gv // k) * k
        phi = tuple(i % k if i < wraps else 0 for i in range(gv))
        r = rng.random()
        if r < 0.4:
            shift = rng.randrange(gv)
            psi = tuple(phi[(i - shift) % gv] for i in range(gv))
        elif r < 0.7:
            psi = tuple(phi[(-i) % gv] for i in range(gv))  # reversed wrap
        else:
            psi = random_hom(rng, g, h)
        return Instance(g=g, h=h, phi=phi, psi=psi, mode=REFLEXIVE)

    h = rng.choice([x for x in host_catalogue(hv) if x.n <= hv])
    g = random_graph(rng, gv, rng.uniform(0.25, 0.7))
    phi = random_hom(rng, g, h)
    if rng.random() < 0.5:
        psi = random_hom(rng, g, h)
    else:
        psi = random_walk_hom(rng, g, h, phi, rng.randrange(1, 3 * gv))
    return Instance(g=g, h=h, phi=phi, psi=psi, mode=REFLEXIVE)


def girth5_hosts(max_n: int, rng: random.Random) -> list[Graph]:
    hosts = [cycle_graph(5), cycle_graph(6)]
    hosts.append(random_tree(rng, rng.randrange(2, max(3, max_n + 1))))
    return [x for x in hosts if x.n <= max(max_n, 6)]


def random_girth5_instance(rng: random.Random, gv: int) -> Instance:
    """Irreflexive instance graph (isolated vertices allowed) over a girth-5 host."""
    if rng.random() < 0.4 and gv >= 5:
        k = rng.choice([x for x in (5, 6) if x <= gv])
        h = cycle_graph(k)
        g = cycle_graph(gv, reflexive=False)
        wraps = (gv // k) * k
        phi = tuple(i % k if i < wraps else 0 for i in range(gv))
        shift = rng.randrange(gv)
        if rng.random() < 0.5:
            psi = tuple(phi[(i - shift) % gv] for i in range(gv))
        else:
            psi = tuple(phi[(-i) % gv] for i in range(gv))
        return Instance(g=g, h=h, phi=phi, psi=psi, mode=GIRTH5)
    h = rng.choice(girth5_hosts(6, rng))
    g = random_graph(rng, gv, rng.uniform(0.15, 0.6), reflexive=False)
    phi = random_hom(rng, g, h)
    if rng.random() < 0.5:
        psi = random_hom(rng, g, h)
    else:
        psi = random_walk_hom(rng, g, h, phi, rng.randrange(1, 3 * gv))
    return Instance(g=g, h=h, phi=phi, psi=psi, mode=GIRTH5)

"""Input generation for the three workloads.

Generation is not timed.  It runs in a child process of its own, so the
run.py process stays small: a child inherits its parent's peak RSS as the
floor of its own ``ru_maxrss``.

The wrap instances are fixed constructions; the seed changes only the
corpus.  Every instance is written as the JSON document ``homrecol solve``
reads.
"""

from __future__ import annotations

import json
import os
import random

from homrecol import families, jsonio
from homrecol.graphs import Graph
from homrecol.solver import GIRTH5, Instance

# Corpus make-up: (slice, count).  Sizes cycle through their ranges by index,
# so two seeds draw the same mix of sizes and differ only in structure.
CORPUS_RANDOM = 1600   # families.random_instance, G 2..40, host 4..12
CORPUS_GIRTH5 = 200    # families.random_girth5_instance, G 2..12
CORPUS_TF_HOST = 200   # random triangle-free reflexive hosts, 4..12 vertices
CONSTRUCTED = (
    "figure_eight",
    "double_bridge",
    "locked_link",
    "twisted_loop",
    "double_turn",
)


def tight_rotated_wrap(n: int) -> Instance:
    """Tight 4-wrap of an n-cycle with psi rotated one step: frozen-mismatch."""
    if n % 4:
        raise ValueError("the tight wrap needs a multiple of 4 vertices")
    phi = tuple(i % 4 for i in range(n))
    psi = tuple((i - 1) % 4 for i in range(n))
    return Instance(g=families.cycle_graph(n), h=families.cycle_graph(4), phi=phi, psi=psi)


def mirrored_wrap(n: int) -> Instance:
    """Cycle wrap of C4 with psi[i] = phi[-i mod n]: free-class-mismatch."""
    base = families.make_cycle_wrap(n, 4, 0)
    psi = tuple(base.phi[(-i) % n] for i in range(n))
    return Instance(g=base.g, h=base.h, phi=base.phi, psi=psi)


def random_triangle_free_host(rng: random.Random, n: int) -> Graph:
    """Connected reflexive triangle-free host on n vertices.

    A random spanning tree, then random extra edges that close no triangle.
    """
    nbrs: list[set[int]] = [set() for _ in range(n)]
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        nbrs[u].add(v)
        nbrs[v].add(u)
        edges.append((u, v))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if v not in nbrs[u]]
    rng.shuffle(pairs)
    for u, v in pairs[: rng.randrange(0, n + 1)]:
        if not nbrs[u] & nbrs[v]:
            nbrs[u].add(v)
            nbrs[v].add(u)
            edges.append((u, v))
    return Graph(n, edges, reflexive=True)


def random_tf_instance(rng: random.Random, gv: int, hv: int) -> Instance:
    h = random_triangle_free_host(rng, hv)
    g = families.random_graph(rng, gv, rng.uniform(0.2, 0.6))
    phi = families.random_hom(rng, g, h)
    if rng.random() < 0.5:
        psi = families.random_hom(rng, g, h)
    else:
        psi = families.random_walk_hom(rng, g, h, phi, rng.randrange(1, 3 * gv))
    return Instance(g=g, h=h, phi=phi, psi=psi)


def separated_loop() -> Instance:
    """Girth-5 host of two disjoint 5-cycles; G has a looped isolated vertex
    whose colours lie in different components (no-valid-walk on one vertex),
    a loopless isolated vertex that jumps between the components, and an edge.
    """
    ring = [(i, (i + 1) % 5) for i in range(5)]
    h = Graph(10, ring + [(u + 5, v + 5) for u, v in ring], reflexive=True)
    g = Graph(4, [(0, 0), (2, 3)])
    return Instance(g=g, h=h, phi=(0, 0, 0, 1), psi=(5, 5, 0, 1), mode=GIRTH5)


def constructed(name: str) -> Instance:
    return getattr(families, "make_" + name)()


def corpus(seed: int) -> list[tuple[str, Instance]]:
    rng = random.Random(seed)
    out = []
    for i in range(CORPUS_RANDOM):
        out.append((f"random-{i}", families.random_instance(rng, 2 + i % 39, 4 + i % 9)))
    for i in range(CORPUS_GIRTH5):
        out.append((f"girth5-{i}", families.random_girth5_instance(rng, 2 + i % 11)))
    for i in range(CORPUS_TF_HOST):
        out.append((f"tfhost-{i}", random_tf_instance(rng, 2 + i % 9, 4 + i % 9)))
    for name in CONSTRUCTED:
        out.append((name, constructed(name)))
    out.append(("separated_loop", separated_loop()))
    return out


def instances(workload: str, seed: int) -> list[tuple[str, Instance]]:
    if workload == "wrap-yes":
        return [("wrap-100k-shift40", families.make_cycle_wrap(100_000, 4, 40))]
    if workload == "wrap-no":
        return [
            ("tight-100k-rot1", tight_rotated_wrap(100_000)),
            ("mirror-6k", mirrored_wrap(6_000)),
        ]
    if workload == "corpus":
        return corpus(seed)
    raise ValueError(f"unknown workload {workload!r}")


def write(workload: str, seed: int, directory: str) -> list[str]:
    """Write the workload's instance files; return their names in order."""
    names = []
    for name, inst in instances(workload, seed):
        with open(os.path.join(directory, name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(jsonio.dumps(jsonio.instance_to_dict(inst)))
        names.append(name)
    with open(os.path.join(directory, "index.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "names": names}, fh)
    return names

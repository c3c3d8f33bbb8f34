"""Shared helpers: small hosts, random walks, brute-force counterparts."""

from __future__ import annotations

import importlib.util
import os
import random
from array import array
from collections import deque
from itertools import combinations
from pathlib import Path

import pytest

import homrecol
from homrecol.errors import InternalError
from homrecol.families import cycle_graph, host_catalogue, make_cycle_wrap
from homrecol.graphs import Graph, bfs_tree
from homrecol.oracle import Answer
from homrecol.solver import REFLEXIVE, Instance
from homrecol.systems import CycleWitness, WalkSystem, edge_preserved
from homrecol.walks import is_cyclically_reduced, reduce_walk
from reference import bfs_tree_by, waits_for


@pytest.fixture
def c5():
    return cycle_graph(5)


def child_env() -> dict[str, str]:
    """Environment for a child Python that imports homrecol from this tree."""
    src = str(Path(homrecol.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def benchmark_workloads():
    """recolbench's instance generators, for their random triangle-free hosts."""
    path = Path(__file__).resolve().parents[1] / "recolbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("recolbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def small_hosts(max_n: int = 10) -> list[Graph]:
    hosts = list(host_catalogue(min(max_n, 6)))
    for n in (7, 8, 10):
        if n <= max_n:
            hosts.append(cycle_graph(n))
    seen, out = set(), []
    for h in hosts:
        key = (h.n, tuple(h.adj))
        if key not in seen:
            seen.add(key)
            out.append(h)
    return out


def random_walk(rng: random.Random, h: Graph, length: int, start: int | None = None):
    """Uniform random walk; loops make staying put a legal step."""
    v = rng.randrange(h.n) if start is None else start
    walk = [v]
    for _ in range(length):
        walk.append(rng.choice(h.adj[walk[-1]]))
    return tuple(walk)


def brute_has_triangle(g: Graph) -> bool:
    return any(
        g.adjacent(a, b) and g.adjacent(b, c) and g.adjacent(a, c)
        for a, b, c in combinations(range(g.n), 3)
    )


def brute_has_square(g: Graph) -> bool:
    for quad in combinations(range(g.n), 4):
        for a, b, c, d in set(
            (quad[0],) + p for p in _perms(quad[1:])
        ):
            if g.adjacent(a, b) and g.adjacent(b, c) and g.adjacent(c, d) and g.adjacent(d, a):
                return True
    return False


def _perms(items):
    a, b, c = items
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


def simple_cycles(g: Graph) -> list[tuple[int, ...]]:
    """All simple cycles (length >= 3) as closed tuples, each listed once."""
    cycles = []
    for s in range(g.n):
        stack = [(s, (s,))]
        while stack:
            v, path = stack.pop()
            for w in g.adj[v]:
                if w == v or w < s:
                    continue
                if w == s and len(path) >= 3:
                    if path[1] < path[-1]:  # one orientation only
                        cycles.append(path + (s,))
                elif w not in path:
                    stack.append((w, path + (w,)))
    return cycles


def tight_vertices(g: Graph, h: Graph, colours) -> set[int]:
    """Vertices on a tight simple cycle (the shape deadlock extraction emits)."""
    out: set[int] = set()
    for cyc in simple_cycles(g):
        if is_cyclically_reduced(tuple(colours[x] for x in cyc)):
            out.update(cyc)
    return out


def system_of(walks: dict[int, tuple[int, ...]]) -> WalkSystem:
    """The WalkSystem holding walks[v] for each v, laid out in the dict's order."""
    n = max(walks) + 1
    start, end, flat = [0] * n, [0] * n, []
    for v, w in walks.items():
        start[v] = len(flat)
        flat += w
        end[v] = len(flat)
    return WalkSystem(order=list(walks), start=start, end=end, flat=flat)


def walks_of(outcome):
    """A WalkSystem's walks as a dict in its order; any other outcome as it is."""
    if isinstance(outcome, WalkSystem):
        flat, start, end = outcome.flat, outcome.start, outcome.end
        return {v: tuple(flat[start[v] : end[v]]) for v in outcome.order}
    return outcome


def brute_generate_system(g, h, phi, psi, root, w_root, key=None):
    """generate_system the direct way: every walk built down the BFS tree
    (neighbours by ascending key[v] when given, as reference.bfs_tree_by)
    by full reduction, then every non-tree edge checked on the built walks."""
    order, parent = bfs_tree(g, root) if key is None else bfs_tree_by(g, root, key)
    walks = {root: w_root}
    for v in order[1:]:
        walks[v] = reduce_walk((phi[v],) + walks[parent[v]] + (psi[v],))
    for u in sorted(order):
        for v in g.adj[u]:
            if v <= u or parent[v] == u or parent[u] == v:
                continue
            if not edge_preserved(phi, psi, u, v, walks[u], walks[v]):
                up_u, up_v = [u], [v]
                for chain in (up_u, up_v):
                    while parent[chain[-1]] != chain[-1]:
                        chain.append(parent[chain[-1]])
                return CycleWitness(cycle=tuple(reversed(up_u)) + tuple(up_v))
    return system_of(walks)


def pairs(flat) -> list[tuple[int, int]]:
    """The (vertex, colour) moves of a flat move list [v0, c0, v1, c1, ...]."""
    it = iter(flat)
    return list(zip(it, it))


def listed(outcome):
    """A schedule's move array as a list, to compare with brute_schedule's;
    a deadlock as it is."""
    return list(outcome) if isinstance(outcome, array) else outcome


class BruteScheduleState:
    """Per-vertex walk suffixes behind method calls, as the scheduler once
    kept them; the moves in the scheduler's flat layout."""

    def __init__(self, g: Graph, h: Graph, system: WalkSystem):
        self.g = g
        self.h = h
        self.walks = walks_of(system)
        self.pos = {v: 0 for v in self.walks}
        self.moves: list[int] = []

    def current(self, v: int) -> int:
        return self.walks[v][self.pos[v]]

    def next_colour(self, v: int) -> int | None:
        w, p = self.walks[v], self.pos[v]
        return w[p + 1] if p + 1 < len(w) else None

    def finished(self, v: int) -> bool:
        return self.pos[v] + 1 == len(self.walks[v])

    def movable(self, u: int) -> bool:
        nxt = self.next_colour(u)
        if nxt is None:
            raise InternalError("movable is for unfinished vertices")
        hs = self.h.adj_sets
        return all(nxt in hs[self.current(x)] for x in self.g.adj[u])

    def move(self, u: int) -> None:
        self.pos[u] += 1
        self.moves += u, self.current(u)


def brute_schedule(g, h, system, order=None):
    """schedule through BruteScheduleState: a method call per check and per
    move; tight-cycle extraction follows reference.waits_for."""
    state = BruteScheduleState(g, h, system)
    seed = sorted(state.walks) if order is None else list(order)
    queue = deque(v for v in seed if not state.finished(v))
    queued = set(queue)
    while queue:
        u = queue.popleft()
        queued.discard(u)
        if state.finished(u):
            continue
        if not state.movable(u):
            continue
        state.move(u)
        for x in (u, *g.adj[u]):
            if x not in queued and not state.finished(x):
                queue.append(x)
                queued.add(x)

    unfinished = sorted(v for v in state.walks if not state.finished(v))
    if not unfinished:
        return state.moves
    return _brute_tight_cycle(state, system, unfinished[0])


def _brute_tight_cycle(state: BruteScheduleState, system: WalkSystem, start: int) -> CycleWitness:
    left = [0] * state.g.n
    for v, w in state.walks.items():
        left[v] = len(w) - 1 - state.pos[v]
    chain = [start]
    seen_at = {start: 0}
    while True:
        v = waits_for(state.g, state.h, system, left, chain[-1])
        if v is None:
            raise InternalError("deadlocked vertex without a blocking arc (system not staggered)")
        if v in seen_at:
            cycle = tuple(chain[seen_at[v] :]) + (v,)
            break
        seen_at[v] = len(chain)
        chain.append(v)

    if any(state.pos[x] for x in cycle):
        raise InternalError("deadlock cycle vertex has moved (system not staggered)")
    if not is_cyclically_reduced(tuple(state.current(x) for x in cycle)):
        raise InternalError("deadlock cycle is not tight (system not staggered)")
    return CycleWitness(cycle=cycle)


def brute_hom_graph_path(g, h, phi, psi, max_states=10**6):
    """hom_graph_path over colour tuples and Python sets, as the oracle once
    searched.  Its budget inserts a state before checking the cap, so it trips
    one state earlier than the packed search."""
    start, target = tuple(phi), tuple(psi)
    if start == target:
        return [start]
    hs = h.adj_sets
    prev = {start: None}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for v in range(g.n):
            allowed = set(h.adj[state[v]]) if g.adjacent(v, v) else set(range(h.n))
            for u in g.adj[v]:
                if u != v:
                    allowed &= hs[state[u]]
            allowed.discard(state[v])
            for c in sorted(allowed):
                nxt = state[:v] + (c,) + state[v + 1 :]
                if nxt not in prev:
                    prev[nxt] = state
                    if nxt == target:
                        path = [nxt]
                        while path[-1] != start:
                            path.append(prev[path[-1]])
                        path.reverse()
                        return path
                    if len(prev) >= max_states:
                        return Answer.BUDGET_EXCEEDED
                    queue.append(nxt)
    return Answer.NO


def relabel(inst: Instance, label) -> Instance:
    """inst with G's vertex v renamed label[v]."""
    edges = [(label[u], label[v]) for u, v in inst.g.edge_list()]
    phi, psi = [0] * inst.g.n, [0] * inst.g.n
    for v, x in enumerate(label):
        phi[x], psi[x] = inst.phi[v], inst.psi[v]
    return Instance(
        g=Graph(inst.g.n, edges), h=inst.h, phi=tuple(phi), psi=tuple(psi), mode=inst.mode
    )


def relabel_host(inst: Instance, label) -> Instance:
    """inst with H's vertex c renamed label[c]."""
    edges = [(label[a], label[b]) for a, b in inst.h.edge_list()]
    return Instance(
        g=inst.g,
        h=Graph(inst.h.n, edges),
        phi=tuple(label[c] for c in inst.phi),
        psi=tuple(label[c] for c in inst.psi),
        mode=inst.mode,
    )


def tight_rotation(n: int) -> Instance:
    """Tight 4-wrap of an n-cycle with psi rotated one step: frozen-mismatch."""
    phi = tuple(i % 4 for i in range(n))
    psi = tuple((i - 1) % 4 for i in range(n))
    return Instance(g=cycle_graph(n), h=cycle_graph(4), phi=phi, psi=psi)


def mirrored_wrap(n: int) -> Instance:
    """Cycle wrap of C4 with psi[i] = phi[-i mod n]: free-class-mismatch."""
    base = make_cycle_wrap(n, 4, 0)
    return Instance(g=base.g, h=base.h, phi=base.phi, psi=tuple(base.phi[(-i) % n] for i in range(n)))


def disjoint_union(parts: list[Instance], interleave: bool) -> Instance:
    """The instances side by side on the disjoint union of their hosts.

    With interleave, vertex ids are dealt round robin (vertex i of every part
    before vertex i + 1 of any), so the components' vertex sets interleave;
    otherwise each part's ids follow the previous part's.
    """
    ids: list[list[int]] = [[0] * p.g.n for p in parts]
    n = 0
    if interleave:
        for i in range(max(p.g.n for p in parts)):
            for k, p in enumerate(parts):
                if i < p.g.n:
                    ids[k][i], n = n, n + 1
    else:
        for k, p in enumerate(parts):
            ids[k], n = list(range(n, n + p.g.n)), n + p.g.n
    g_edges, h_edges, phi, psi, offset = [], [], [0] * n, [0] * n, 0
    for k, p in enumerate(parts):
        m = ids[k]
        g_edges += [(m[u], m[v]) for u, v in p.g.edge_list()]
        h_edges += [(offset + a, offset + b) for a, b in p.h.edge_list()]
        for i in range(p.g.n):
            phi[m[i]], psi[m[i]] = offset + p.phi[i], offset + p.psi[i]
        offset += p.h.n
    return Instance(
        g=Graph(n, g_edges), h=Graph(offset, h_edges), phi=tuple(phi), psi=tuple(psi), mode=REFLEXIVE
    )

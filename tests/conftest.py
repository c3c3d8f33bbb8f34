"""Shared helpers: small hosts, random walks, brute-force counterparts."""

from __future__ import annotations

import os
import random
from collections import deque
from itertools import combinations
from pathlib import Path

import pytest

import homrecol
from homrecol.errors import InternalError
from homrecol.families import (
    cycle_graph,
    cycle_with_pendant,
    host_catalogue,
    two_squares_shared,
)
from homrecol.graphs import Graph, bfs_tree
from homrecol.oracle import Answer
from homrecol.scheduling import TightWalkWitness, is_tight
from homrecol.systems import CycleWitness, WalkSystem, edge_preserved
from homrecol.walks import reduce_walk


@pytest.fixture
def c5():
    return cycle_graph(5)


@pytest.fixture
def pendant_c5():
    return cycle_with_pendant(5)


@pytest.fixture
def figure_eight_host():
    return two_squares_shared()


def child_env() -> dict[str, str]:
    """Environment for a child Python that imports homrecol from this tree."""
    src = str(Path(homrecol.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


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


def random_walk_between(rng, h, a, length):
    """Random walk from a, of roughly the requested length (ends wherever)."""
    return random_walk(rng, h, length, start=a)


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
        if is_tight(g, colours, cyc):
            out.update(cyc)
    return out


def brute_generate_system(g, h, phi, psi, root, w_root, tie_break=None):
    """generate_system the direct way: every walk built down the BFS tree
    by full reduction, then every non-tree edge checked on the built walks."""
    order, parent = bfs_tree(g, root, tie_break)
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
    return WalkSystem(root=root, walks=walks)


class BruteScheduleState:
    """Per-vertex walk suffixes behind method calls, as the scheduler once kept them."""

    def __init__(self, g: Graph, h: Graph, system: WalkSystem):
        self.g = g
        self.h = h
        self.walks = system.walks
        self.pos = {v: 0 for v in system.walks}
        self.moves: list[tuple[int, int]] = []

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
        self.moves.append((u, self.current(u)))


def brute_schedule(g, h, system, order=None):
    """schedule through BruteScheduleState: a method call per check and per
    move, and a closure for the blocking arc of tight-cycle extraction."""
    state = BruteScheduleState(g, h, system)
    seed = sorted(system.walks) if order is None else list(order)
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

    unfinished = sorted(v for v in system.walks if not state.finished(v))
    if not unfinished:
        return state.moves
    return _brute_tight_cycle(state, unfinished[0])


def _brute_tight_cycle(state: BruteScheduleState, start: int) -> TightWalkWitness:
    g, hs = state.g, state.h.adj_sets

    def out_arc(u: int) -> int:
        cur_u = state.current(u)
        nxt_u = state.next_colour(u)
        for v in g.adj[u]:
            if v == u or state.finished(v):
                continue
            if state.walks[v][state.pos[v] + 1] == cur_u and nxt_u not in hs[state.current(v)]:
                return v
        raise InternalError("deadlocked vertex without a blocking arc (system not staggered)")

    chain = [start]
    seen_at = {start: 0}
    while True:
        v = out_arc(chain[-1])
        if v in seen_at:
            cycle = tuple(chain[seen_at[v] :]) + (v,)
            break
        seen_at[v] = len(chain)
        chain.append(v)

    if not is_tight(state.g, {x: state.current(x) for x in cycle}, cycle):
        raise InternalError("deadlock cycle is not tight (system not staggered)")
    return TightWalkWitness(cycle=cycle, images=tuple(state.current(x) for x in cycle))


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
            allowed = set(h.adj[state[v]]) if v in g.loops else set(range(h.n))
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

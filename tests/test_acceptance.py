"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass; tolerances (counts, time and memory budgets, state caps) are fixed
here and nowhere else.
"""

import functools
import json
import random
import subprocess
import sys
import time

from conftest import child_env, pairs, random_walk, tight_vertices
from homrecol.families import (
    cycle_graph,
    host_catalogue,
    make_cycle_wrap,
    make_double_bridge,
    make_figure_eight,
    random_girth5_instance,
    random_instance,
    random_tree,
    random_walk_hom,
)
from homrecol.oracle import Answer, hom_graph_bfs, hom_graph_path
from homrecol.solver import Instance, recheck_obstruction, solve, verify_witness
from homrecol.systems import edge_preserved
from homrecol.walks import reduce_walk
from reference import random_expand, random_order_reduce, reduce_via_cover


def criterion(number, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {number} FAIL  {summary}")
                raise
            print(f"criterion {number} PASS  {summary}")

        return run

    return wrap


def _corpus(count):
    for i in range(count):
        rng = random.Random(9000 + i)
        yield random_instance(rng, rng.randrange(1, 7), rng.randrange(4, 7))


@criterion(1, "solver matches exhaustive search on 500 random instances in <60s")
def test_oracle_equivalence_500():
    start = time.monotonic()
    agreements = 0
    for inst in _corpus(500):
        verdict = solve(inst)
        answer = hom_graph_bfs(inst.g, inst.h, inst.phi, inst.psi, max_states=10**6)
        assert answer is not Answer.BUDGET_EXCEEDED
        assert (answer is Answer.YES) == verdict.yes
        agreements += 1
    elapsed = time.monotonic() - start
    assert agreements == 500
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@criterion(2, "every YES witness replays cleanly")
def test_witness_soundness():
    failures = 0
    checked = 0
    for inst in _corpus(500):
        verdict = solve(inst)
        if verdict.yes:
            checked += 1
            if not verify_witness(inst, pairs(verdict.moves)).ok:
                failures += 1
    for inst in [
        make_cycle_wrap(13, 4, 1),
        make_cycle_wrap(100, 5, 3),
        make_cycle_wrap(24, 4, 2),
        make_cycle_wrap(18, 6, 5),
    ]:
        verdict = solve(inst)
        checked += 1
        if not (verdict.yes and verify_witness(inst, pairs(verdict.moves)).ok):
            failures += 1
    rng = random.Random(71)
    for _ in range(40):
        g = cycle_graph(rng.randrange(4, 10))
        h = cycle_graph(rng.randrange(4, 7))
        phi = tuple(0 for _ in range(g.n))
        psi = random_walk_hom(rng, g, h, phi, rng.randrange(0, 25))
        reachable = Instance(g=g, h=h, phi=phi, psi=psi)
        verdict = solve(reachable)
        checked += 1
        if not (verdict.yes and verify_witness(reachable, pairs(verdict.moves)).ok):
            failures += 1
    assert failures == 0 and checked > 400


def _walk_hosts(rng):
    hosts = [h for h in host_catalogue(6)] + [
        cycle_graph(rng.randrange(4, 11)),
        random_tree(rng, rng.randrange(2, 11)),
    ]
    return [h for h in hosts if h.n <= 10]


@criterion(3, "1000 walk reductions agree across three routes and re-expand stably")
def test_reduction_confluence_1000():
    for i in range(1000):
        rng = random.Random(20_000 + i)
        h = rng.choice(_walk_hosts(rng))
        walk = random_walk(rng, h, rng.randrange(0, 51))
        reduced = reduce_walk(walk)
        assert random_order_reduce(rng, h, walk) == reduced
        assert reduce_via_cover(h, walk) == reduced
        grown = random_expand(rng, h, reduced, steps=rng.randrange(0, 21))
        assert reduce_walk(grown) == reduced


@criterion(4, "pentagon rotation: frozen-vertex NO, exhaustive cross-check, <1s")
def test_constructed_frozen_obstruction():
    start = time.monotonic()
    c5 = cycle_graph(5)
    inst = Instance(g=c5, h=c5, phi=(0, 1, 2, 3, 4), psi=(1, 2, 3, 4, 0))
    verdict = solve(inst)
    assert not verdict.yes and verdict.obstruction.kind == "frozen-mismatch"
    assert recheck_obstruction(inst, verdict.obstruction)
    assert hom_graph_bfs(inst.g, inst.h, inst.phi, inst.psi, max_states=5**5) is Answer.NO
    assert time.monotonic() - start < 1.0


@criterion(5, "two-square host, different wraps: class-mismatch NO, <5s")
def test_constructed_topological_obstruction():
    start = time.monotonic()
    inst = make_figure_eight()
    verdict = solve(inst)
    assert not verdict.yes
    assert verdict.obstruction.kind in ("free-class-mismatch", "no-valid-walk")
    assert verdict.obstruction.kind == "free-class-mismatch"
    assert recheck_obstruction(inst, verdict.obstruction)
    assert hom_graph_bfs(inst.g, inst.h, inst.phi, inst.psi, max_states=7**5) is Answer.NO
    assert time.monotonic() - start < 5.0


@criterion(6, "double-bridge reconstruction: NO, cross-checked at the 1e7 cap")
def test_double_bridge_reconstruction():
    inst = make_double_bridge()
    verdict = solve(inst)
    assert not verdict.yes
    answer = hom_graph_bfs(inst.g, inst.h, inst.phi, inst.psi, max_states=10**7)
    if answer is Answer.BUDGET_EXCEEDED:
        assert recheck_obstruction(inst, verdict.obstruction)
    else:
        assert answer is Answer.NO


_SCALE_CHILD = r"""
import json, resource, time
from homrecol.families import make_cycle_wrap
from homrecol.solver import solve, verify_witness

inst = make_cycle_wrap(100_000, 4, 1)
start = time.monotonic()
verdict = solve(inst)
moves = verdict.moves or []
it = iter(moves)
ok = verdict.yes and verify_witness(inst, zip(it, it)).ok
elapsed = time.monotonic() - start
peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"ok": ok, "seconds": elapsed, "peak_mib": peak_mib,
                  "moves": len(moves) // 2}))
"""


@criterion(7, "100k-vertex wrap: verified YES under 5s and 1GiB (fresh process)")
def test_scale_cycle_wrap():
    out = subprocess.run(
        [sys.executable, "-c", _SCALE_CHILD],
        capture_output=True,
        text=True,
        check=True,
        env=child_env(),
    )
    stats = json.loads(out.stdout)
    assert stats["ok"]
    assert stats["moves"] > 0
    assert stats["seconds"] < 5.0, stats
    assert stats["peak_mib"] < 1024.0, stats


@criterion(8, "girth-5 mode matches exhaustive search on the original instances")
def test_girth5_equivalence_100():
    agreements = 0
    for i in range(100):
        rng = random.Random(30_000 + i)
        inst = random_girth5_instance(rng, rng.randrange(1, 7))
        verdict = solve(inst)
        answer = hom_graph_bfs(inst.g, inst.h, inst.phi, inst.psi, max_states=10**6)
        assert answer is not Answer.BUDGET_EXCEEDED
        assert (answer is Answer.YES) == verdict.yes
        if verdict.yes:
            assert verify_witness(inst, pairs(verdict.moves)).ok
        agreements += 1
    assert agreements == 100


@criterion(9, "move-search paths induce valid systems, constant on tight cycles")
def test_trace_extraction_necessity_100():
    done = 0
    seed = 0
    while done < 100:
        seed += 1
        assert seed < 3000, "could not gather 100 reachable instances"
        rng = random.Random(40_000 + seed)
        inst = random_instance(rng, rng.randrange(2, 7), rng.randrange(4, 7))
        path = hom_graph_path(inst.g, inst.h, inst.phi, inst.psi, max_states=200_000)
        if not isinstance(path, list):
            continue
        traces = {v: tuple(state[v] for state in path) for v in range(inst.g.n)}
        for u in range(inst.g.n):
            for w in inst.g.adj[u]:
                if w <= u:
                    continue
                assert edge_preserved(
                    inst.phi, inst.psi, u, w, reduce_walk(traces[u]), reduce_walk(traces[w])
                )
        for c in tight_vertices(inst.g, inst.h, inst.phi):
            assert len(set(traces[c])) == 1
        done += 1
    assert done == 100

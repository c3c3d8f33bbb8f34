"""Metamorphic relations of solve on seeded random instances.

Each relation changes an instance in a way that cannot change its answer:
swapping the two maps, renaming the vertices of G or of H, setting a YES
instance beside a NO one, adding every loop to a girth-5 instance whose
G has no isolated vertex, and moving either map by legal moves.  solve
must agree, and every certificate, the renamed original included, must
still check.  The loop relation is stronger:
the reflexive core never reads a loop of G, so the loop-added instance gets
the same verdict in full, moves or obstruction; and on a G with a loop at
every vertex girth-5 mode prints what reflexive mode prints.  A tight
cycle through a vertex where the maps differ, found by a scan of G and the
maps alone, makes a NO.
"""

import random
from collections import Counter

from conftest import all_loops, disjoint_union, pairs, relabel, relabel_host
from reference import tight_mismatch, wander
from homrecol import families
from homrecol.families import make_cycle_wrap, random_girth5_instance, random_instance
from homrecol.jsonio import dumps, verdict_to_dict
from homrecol.solver import (
    GIRTH5,
    REFLEXIVE,
    Instance,
    Obstruction,
    Verdict,
    recheck_obstruction,
    solve,
    verify_witness,
)

WRAP = make_cycle_wrap(13, 4, 1)  # a YES: the 13-cycle wraps C4 with slack


CONSTRUCTIONS = ("figure_eight", "double_bridge", "locked_link", "twisted_loop", "double_turn")


def _instances(rng: random.Random, count: int):
    """The named constructions, which reach every obstruction kind, then
    count random ones: two in three reflexive-mode, every third girth-5."""
    for name in CONSTRUCTIONS:
        yield getattr(families, f"make_{name}")()
    for i in range(count):
        if i % 3 == 2:
            yield random_girth5_instance(rng, rng.randrange(2, 30))
        else:
            yield random_instance(rng, rng.randrange(2, 30), rng.randrange(4, 10))


def _certified(inst, verdict) -> bool:
    if verdict.yes:
        return verify_witness(inst, pairs(verdict.moves)).ok
    return recheck_obstruction(inst, verdict.obstruction)


def _renamed(verdict, g_label=None, h_label=None) -> Verdict:
    """verdict with G's vertex v named g_label[v] and H's colour c named
    h_label[c] in its certificate."""
    g_name = (lambda v: v) if g_label is None else g_label.__getitem__
    h_name = (lambda c: c) if h_label is None else h_label.__getitem__
    if verdict.yes:
        moves = [x for v, c in pairs(verdict.moves) for x in (g_name(v), h_name(c))]
        return Verdict(answer="yes", moves=moves)
    o = verdict.obstruction
    return Verdict(
        answer="no",
        obstruction=Obstruction(
            kind=o.kind,
            cycle=tuple(map(g_name, o.cycle)),
            vertex=None if o.vertex is None else g_name(o.vertex),
            cores=None if o.cores is None else tuple(tuple(map(h_name, c)) for c in o.cores),
        ),
    )


def _shuffled(rng: random.Random, n: int) -> list[int]:
    label = list(range(n))
    rng.shuffle(label)
    return label


def test_metamorphic_relations_on_seeded_instances():
    rng = random.Random(1307)
    seen = Counter()
    for i, inst in enumerate(_instances(rng, 600)):
        verdict = solve(inst)
        assert _certified(inst, verdict), i
        seen["yes" if verdict.yes else verdict.obstruction.kind] += 1

        swapped = Instance(g=inst.g, h=inst.h, phi=inst.psi, psi=inst.phi, mode=inst.mode)
        other = solve(swapped)
        assert other.answer == verdict.answer, i
        assert _certified(swapped, other), i

        g_label = _shuffled(rng, inst.g.n)
        h_label = _shuffled(rng, inst.h.n)
        for renamed, kwargs in (
            (relabel(inst, g_label), {"g_label": g_label}),
            (relabel_host(inst, h_label), {"h_label": h_label}),
        ):
            other = solve(renamed)
            assert other.answer == verdict.answer, (i, kwargs)
            assert _certified(renamed, other), (i, kwargs)
            assert _certified(renamed, _renamed(verdict, **kwargs)), (i, kwargs)

        if inst.mode == REFLEXIVE and not verdict.yes:
            for parts in ([inst, WRAP], [WRAP, inst]):
                for interleave in (False, True):
                    joined = disjoint_union(parts, interleave=interleave)
                    other = solve(joined)
                    assert other.obstruction.kind == verdict.obstruction.kind, (i, interleave)
                    assert recheck_obstruction(joined, other.obstruction), (i, interleave)

        g = inst.g
        if inst.mode == GIRTH5 and all(any(u != v for u in g.adj[v]) for v in range(g.n)):
            looped = Instance(g=all_loops(g), h=inst.h, phi=inst.phi, psi=inst.psi)
            assert solve(looped) == verdict, i
            seen["girth5"] += 1
    assert seen["yes"] > 300 and seen["girth5"] > 100, seen
    assert seen["free-class-mismatch"] > 50 and seen["frozen-mismatch"] > 5, seen
    assert seen["no-valid-walk"] and seen["unrealizable"] > 1, seen


def test_transitivity_under_legal_moves():
    # Moves reverse, so recolourability is an equivalence: when chi is
    # reached from phi by legal moves, (chi, psi) has the answer of
    # (phi, psi), and so has (phi, chi') for chi' reached from psi.  The
    # maps change, so another base walk, stage and certificate may come
    # out: only the answer is fixed.  The random G have 20-40 vertices,
    # past the oracle's reach.
    rng = random.Random(2031)
    cases = [getattr(families, f"make_{name}")() for name in CONSTRUCTIONS]
    cases.append(make_cycle_wrap(2000, 4, 40))
    for _ in range(250):
        cases.append(random_instance(rng, rng.randrange(20, 41), rng.randrange(4, 10)))
        cases.append(random_girth5_instance(rng, rng.randrange(20, 41)))
    seen = Counter()
    for i, inst in enumerate(cases):
        verdict = solve(inst)
        assert _certified(inst, verdict), i
        seen["yes" if verdict.yes else "no"] += 1
        for side in ("phi", "psi"):
            start = getattr(inst, side)
            f, moves = wander(rng, inst.g, inst.h, start, 4 * inst.g.n)
            assert verify_witness(inst._replace(phi=start, psi=f), moves).ok, (i, side)
            moved = inst._replace(**{side: f})
            other = solve(moved)
            assert other.answer == verdict.answer, (i, side)
            assert _certified(moved, other), (i, side)
            seen["moves"] += len(moves)
            if not verdict.yes:
                seen["no moves"] += len(moves)
                seen["new certificates"] += other.obstruction != verdict.obstruction
    # 383 YES and 123 NO, 24,957 moves, 1,775 of them on NO instances, and
    # 70 NO certificates that differ from the one before the moves
    assert seen["yes"] > 300 and seen["no"] > 100, seen
    assert seen["moves"] > 20_000 and seen["no moves"] > 1_000, seen
    assert seen["new certificates"] > 40, seen


def test_girth5_mode_on_a_looped_g_prints_what_reflexive_mode_prints():
    # with a loop on every vertex, no vertex of G is edgeless, so girth-5
    # mode jumps none and solves every component, a looped isolated vertex
    # included, as reflexive mode does: the same bytes, moves or obstruction
    rng = random.Random(7)
    seen = Counter()
    for i in range(400):
        inst = random_girth5_instance(rng, 2 + i % 11)
        g = all_loops(inst.g)
        girth5 = inst._replace(g=g)
        reflexive = inst._replace(g=g, mode=REFLEXIVE)
        verdict = solve(girth5)
        assert dumps(verdict_to_dict(verdict)) == dumps(verdict_to_dict(solve(reflexive))), i
        assert _certified(girth5, verdict) and _certified(reflexive, verdict), i
        seen["yes" if verdict.yes else "no"] += 1
        seen["moving isolated"] += any(not inst.g.adj[v] and inst.phi[v] != inst.psi[v] for v in range(g.n))
    # 331 YES and 69 NO; 112 instances have an isolated vertex to move
    assert seen["yes"] > 300 and seen["no"] > 60 and seen["moving isolated"] > 100, seen


def test_a_tight_cycle_through_a_stuck_vertex_is_a_no():
    # ROADMAP item 20's frozen-cycle rule, read by reference.tight_mismatch
    # on G and the two maps alone: a tight cycle frozen at phi through a
    # vertex where psi differs makes a NO, and every frozen-mismatch answer
    # names such a cycle.  Seed 5 gives 98 tight mismatches and 33
    # frozen-mismatch answers
    rng = random.Random(5)
    seen = Counter()
    for i in range(1000):
        inst = random_instance(rng, 2 + i % 39, 4 + i % 9)
        verdict = solve(inst)
        tight = tight_mismatch(inst.g, inst.phi, inst.psi)
        if tight:
            assert not verdict.yes, i
            seen["tight"] += 1
        if not verdict.yes and verdict.obstruction.kind == "frozen-mismatch":
            assert tight, i
            seen["frozen-mismatch"] += 1
    assert seen["tight"] >= 95 and seen["frozen-mismatch"] >= 30, seen

import random
import time

import pytest

from conftest import tight_vertices
from homrecol.errors import InvalidInputError
from homrecol.families import (
    cycle_graph,
    make_double_bridge,
    make_figure_eight,
    make_cycle_wrap,
    make_locked_link,
    make_twisted_loop,
    random_girth5_instance,
    random_hom,
    random_instance,
)
from homrecol.graphs import Graph
from homrecol.oracle import Answer, hom_graph_bfs, hom_graph_path
from homrecol.solver import (
    GIRTH5,
    Instance,
    Obstruction,
    preprocess_girth5,
    recheck_obstruction,
    solve,
    verify_witness,
)
from homrecol.systems import edge_preserved
from homrecol.walks import reduce_walk

C5 = cycle_graph(5)
ID5 = (0, 1, 2, 3, 4)


def test_solve_identity_yields_empty_witness():
    v = solve(Instance(g=C5, h=C5, phi=ID5, psi=ID5))
    assert v.yes and v.moves == []


def test_solve_rotation_frozen_mismatch():
    inst = Instance(g=C5, h=C5, phi=ID5, psi=(1, 2, 3, 4, 0))
    v = solve(inst)
    assert not v.yes
    assert v.obstruction.kind == "frozen-mismatch"
    assert recheck_obstruction(inst, v.obstruction)


def test_solve_figure_eight_class_mismatch():
    inst = make_figure_eight()
    v = solve(inst)
    assert not v.yes and v.obstruction.kind == "free-class-mismatch"
    assert recheck_obstruction(inst, v.obstruction)


def test_solve_double_bridge_no_valid_walk():
    inst = make_double_bridge()
    v = solve(inst)
    assert not v.yes and v.obstruction.kind == "no-valid-walk"
    assert recheck_obstruction(inst, v.obstruction)
    # neither map has a tight simple cycle, yet the instance is a NO
    assert tight_vertices(inst.g, inst.h, inst.phi) == set()
    assert tight_vertices(inst.g, inst.h, inst.psi) == set()


def test_double_bridge_cycles_reconfigure_separately():
    inst = make_double_bridge()
    short = Instance(
        g=cycle_graph(5), h=inst.h, phi=inst.phi[:5], psi=inst.psi[:5]
    )
    assert solve(short).yes
    ids = [0] + list(range(5, 17))
    long = Instance(
        g=cycle_graph(13),
        h=inst.h,
        phi=tuple(inst.phi[x] for x in ids),
        psi=tuple(inst.psi[x] for x in ids),
    )
    assert solve(long).yes


def test_solve_double_turn_yes():
    from homrecol.families import make_double_turn

    inst = make_double_turn()
    v = solve(inst)
    assert v.yes and verify_witness(inst, v.moves).ok


def test_solve_locked_link_unrealizable():
    inst = make_locked_link()
    v = solve(inst)
    assert not v.yes and v.obstruction.kind == "unrealizable"
    assert recheck_obstruction(inst, v.obstruction)
    assert hom_graph_bfs(inst.g, inst.h, inst.phi, inst.psi, 10**6) is Answer.NO


def test_solve_twisted_loop_unrealizable():
    inst = make_twisted_loop()
    v = solve(inst)
    assert not v.yes and v.obstruction.kind == "unrealizable"
    assert recheck_obstruction(inst, v.obstruction)
    assert hom_graph_bfs(inst.g, inst.h, inst.phi, inst.psi, 10**6) is Answer.NO


def test_solve_components_independent():
    # two copies of C5: one trivial, one rotated => overall NO
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    g = Graph(10, edges, reflexive=True)
    phi = ID5 + ID5
    psi = ID5 + (1, 2, 3, 4, 0)
    v = solve(Instance(g=g, h=C5, phi=phi, psi=psi))
    assert not v.yes and v.obstruction.kind == "frozen-mismatch"
    assert min(v.obstruction.cycle) >= 5  # the failing component
    # and with both components trivial it is a YES again
    v2 = solve(Instance(g=g, h=C5, phi=phi, psi=ID5 + ID5))
    assert v2.yes


def test_validate_rejects_triangle_host():
    k3 = Graph(3, [(0, 1), (1, 2), (0, 2)], reflexive=True)
    with pytest.raises(InvalidInputError):
        solve(Instance(g=k3, h=k3, phi=(0, 1, 2), psi=(0, 1, 2)))


def test_validate_rejects_irreflexive_instance_graph():
    g = cycle_graph(5, reflexive=False)
    with pytest.raises(InvalidInputError):
        solve(Instance(g=g, h=C5, phi=ID5, psi=ID5))


def test_validate_rejects_non_homomorphism():
    with pytest.raises(InvalidInputError):
        solve(Instance(g=C5, h=C5, phi=(0, 2, 4, 1, 3), psi=ID5))


def test_girth5_requires_girth_5_host():
    c4 = cycle_graph(4)
    g = cycle_graph(4, reflexive=False)
    with pytest.raises(InvalidInputError):
        solve(Instance(g=g, h=c4, phi=(0, 1, 2, 3), psi=(0, 1, 2, 3), mode="girth5"))


def test_preprocess_isolated_loopless_jump():
    g = Graph(3, [(1, 2)], reflexive=False)
    inst = Instance(g=g, h=C5, phi=(0, 0, 1), psi=(3, 0, 1), mode="girth5")
    work, prefix, early = preprocess_girth5(inst)
    assert early is None
    assert prefix == [(0, 3)]
    assert work.phi == (3, 0, 1)
    assert work.g.is_reflexive() and work.mode == "reflexive"
    assert solve(inst).yes


def test_preprocess_isolated_looped_walks():
    g = Graph(2, [(0, 0)], reflexive=False)  # vertex 0 looped isolated, 1 loopless isolated
    inst = Instance(g=g, h=C5, phi=(0, 0), psi=(2, 2), mode="girth5")
    work, prefix, early = preprocess_girth5(inst)
    assert early is None
    assert prefix == [(0, 1), (0, 2), (1, 2)]
    v = solve(inst)
    assert v.yes and verify_witness(inst, v.moves).ok


def test_preprocess_isolated_looped_separated_host():
    h = Graph(4, [(0, 1), (2, 3)], reflexive=True)
    g = Graph(1, [(0, 0)], reflexive=False)
    inst = Instance(g=g, h=h, phi=(0,), psi=(3,), mode="girth5")
    v = solve(inst)
    assert not v.yes and v.obstruction.kind == "no-valid-walk"
    assert v.obstruction.cycle == (0,)
    assert recheck_obstruction(inst, v.obstruction)
    # the loopless variant can jump across components
    g2 = Graph(1, [], reflexive=False)
    inst2 = Instance(g=g2, h=h, phi=(0,), psi=(3,), mode="girth5")
    v2 = solve(inst2)
    assert v2.yes and v2.moves == [(0, 3)]


def test_recheck_girth5_one_vertex_needs_looped_isolated_vertex():
    ring = [(i, (i + 1) % 5) for i in range(5)]
    h = Graph(10, ring + [(u + 5, v + 5) for u, v in ring], reflexive=True)
    g = Graph(4, [(0, 0), (2, 3)])
    inst = Instance(g=g, h=h, phi=(0, 0, 0, 1), psi=(5, 5, 0, 1), mode="girth5")
    v = solve(inst)
    assert v.obstruction == Obstruction(kind="no-valid-walk", cycle=(0,))
    assert recheck_obstruction(inst, Obstruction(kind="no-valid-walk", cycle=(0,)))
    # vertex 1 is loopless, so preprocessing recolours it with one jump
    assert not recheck_obstruction(inst, Obstruction(kind="no-valid-walk", cycle=(1,)))
    # a vertex with a neighbour keeps its colour's host component
    edge = Instance(g=Graph(2, [(0, 1)]), h=h, phi=(0, 1), psi=(5, 6), mode="girth5")
    v = solve(edge)
    assert v.obstruction == Obstruction(kind="no-valid-walk", cycle=(0,))
    assert recheck_obstruction(edge, v.obstruction)


def test_recheck_girth5_certificate_beside_stuck_isolated_vertex():
    # preprocessing stops at isolated vertex 0, but the edge 1-2 is stuck too
    ring = [(i, (i + 1) % 5) for i in range(5)]
    h = Graph(10, ring + [(u + 5, v + 5) for u, v in ring], reflexive=True)
    inst = Instance(g=Graph(3, [(0, 0), (1, 2)]), h=h, phi=(0, 0, 1), psi=(5, 5, 6), mode="girth5")
    v = solve(inst)
    assert v.obstruction == Obstruction(kind="no-valid-walk", cycle=(0,))
    assert recheck_obstruction(inst, v.obstruction)
    assert recheck_obstruction(inst, Obstruction(kind="no-valid-walk", cycle=(1,)))
    assert recheck_obstruction(inst, Obstruction(kind="no-valid-walk", cycle=(1, 2, 1)))
    # the same certificates are still refused where they do not hold
    assert not recheck_obstruction(inst, Obstruction(kind="frozen-mismatch", cycle=(1,), vertex=1))
    ok = Instance(g=inst.g, h=h, phi=(0, 0, 1), psi=(5, 1, 0), mode="girth5")
    assert not recheck_obstruction(ok, Obstruction(kind="no-valid-walk", cycle=(1,)))


def test_preprocess_noop_for_reflexive_no_isolated():
    g = cycle_graph(6, reflexive=False)
    inst = Instance(g=g, h=C5, phi=(0,) * 6, psi=(1,) * 6, mode="girth5")
    work, prefix, early = preprocess_girth5(inst)
    assert prefix == [] and early is None
    assert work.g.loops == frozenset(range(6))


def test_loop_addition_preserves_answer():
    # adding all loops to an irreflexive instance graph keeps the verdict
    rng = random.Random(54)
    for _ in range(30):
        g = cycle_graph(6, reflexive=False)
        phi, psi = random_hom(rng, g, C5), random_hom(rng, g, C5)
        original = hom_graph_bfs(g, C5, phi, psi, max_states=10**6)
        looped = hom_graph_bfs(g.with_all_loops(), C5, phi, psi, max_states=10**6)
        assert original is looped
        v = solve(Instance(g=g, h=C5, phi=phi, psi=psi, mode="girth5"))
        assert v.yes == (original is Answer.YES)


def test_girth5_matches_oracle_on_original():
    rng = random.Random(51)
    for _ in range(60):
        inst = random_girth5_instance(rng, rng.randrange(1, 7))
        v = solve(inst)
        o = hom_graph_bfs(inst.g, inst.h, inst.phi, inst.psi, max_states=400_000)
        assert o is (Answer.YES if v.yes else Answer.NO)
        if v.yes:
            assert verify_witness(inst, v.moves).ok


def test_solver_matches_oracle_on_random_instances():
    rng = random.Random(52)
    for _ in range(120):
        inst = random_instance(rng, rng.randrange(1, 7), rng.randrange(4, 7))
        v = solve(inst)
        o = hom_graph_bfs(inst.g, inst.h, inst.phi, inst.psi, max_states=400_000)
        assert o is (Answer.YES if v.yes else Answer.NO)
        if v.yes:
            assert verify_witness(inst, v.moves).ok
        else:
            assert recheck_obstruction(inst, v.obstruction)


def test_solve_empty_graph():
    v = solve(Instance(g=Graph(0, [], reflexive=True), h=C5, phi=(), psi=()))
    assert v.yes and v.moves == []


def test_solve_single_vertex_long_host_walk():
    # the base walk is as long as the host path, well beyond 4|V(G)|
    from homrecol.families import path_graph

    h = path_graph(9)
    g = Graph(1, [], reflexive=True)
    v = solve(Instance(g=g, h=h, phi=(0,), psi=(8,)))
    assert v.yes and v.moves == [(0, c) for c in range(1, 9)]


def test_verify_witness_examples():
    inst = Instance(g=C5, h=C5, phi=ID5, psi=ID5)
    assert verify_witness(inst, []).ok
    # no-op and teleport moves are rejected with their index
    assert verify_witness(inst, [(0, 0)]) == (False, 0)
    assert verify_witness(inst, [(0, 2)]) == (False, 0)
    # failing to land on psi reports one past the end
    inst2 = Instance(g=C5, h=C5, phi=ID5, psi=(1, 2, 3, 4, 0))
    assert verify_witness(inst2, []) == (False, 0)


@pytest.mark.parametrize("bad_at", [None, 0, 7, 23])
def test_verify_witness_same_on_list_and_tuple_moves(bad_at):
    # a result file parses each move to a [vertex, colour] list, solve emits
    # (vertex, colour) tuples: the replay must read both alike, down to the
    # index of the first bad move
    inst = make_cycle_wrap(12, 4, 3)
    moves = solve(inst).moves
    assert len(moves) > 23
    if bad_at is not None:
        moves[bad_at] = (moves[bad_at][0], 4)  # a colour H does not have
    for witness in (moves, moves[:-1]):
        check = verify_witness(inst, witness)
        assert verify_witness(inst, [list(m) for m in witness]) == check
        expected = (True, None) if witness is moves else (False, len(witness))
        assert check == (expected if bad_at is None else (False, bad_at))
    assert verify_witness(inst, [[0, 1, 2]]) == verify_witness(inst, [(0, 1, 2)]) == (False, 0)


def test_verify_witness_neighbour_violation():
    # moving 0 to 2 breaks the edge to vertex 1 (colour 1): 2 ~ 1 holds in C5,
    # but the loop rule still rejects the jump from colour 0
    inst = Instance(g=C5, h=C5, phi=(0, 1, 2, 3, 4), psi=(2, 1, 2, 3, 4))
    check = verify_witness(inst, [(0, 2)])
    assert not check.ok and check.index == 0


def test_verify_witness_loop_rule_reads_adjacency():
    # girth5 instance checked against its original G: edge 0-1, vertex 2
    # isolated; vertex 2 jumps from colour 0 to the non-adjacent colour 2
    h = cycle_graph(5)
    moves = [(1, 0), (2, 2), (1, 1)]
    loopless = Instance(g=Graph(3, [(0, 1)]), h=h, phi=(0, 1, 0), psi=(0, 1, 2), mode=GIRTH5)
    assert verify_witness(loopless, moves).ok
    # with a loop on 2 the jump breaks the loop rule, at the same index
    looped = Instance(g=Graph(3, [(0, 1), (2, 2)]), h=h, phi=(0, 1, 0), psi=(0, 1, 2), mode=GIRTH5)
    assert verify_witness(looped, moves) == (False, 1)
    # while the same recolouring in two steps along the host passes
    assert verify_witness(looped, [(1, 0), (2, 1), (2, 2), (1, 1)]).ok


def test_solve_many_components_linear():
    # 50,000 disjoint reflexive edges, each moved one step round C4; a solve
    # that allocated its n-sized arrays per component would take minutes
    k = 50_000
    g = Graph(2 * k, [(2 * i, 2 * i + 1) for i in range(k)], reflexive=True)
    inst = Instance(g=g, h=cycle_graph(4), phi=(0, 1) * k, psi=(1, 2) * k)
    start = time.process_time()
    v = solve(inst)
    elapsed = time.process_time() - start
    assert v.yes and len(v.moves) == 2 * k
    assert elapsed < 10.0, f"solve took {elapsed:.1f} s CPU"


def test_oracle_yes_traces_form_valid_constant_on_tight_system():
    rng = random.Random(53)
    done = 0
    while done < 30:
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


def test_solver_leaves_instance_set_view_unbuilt():
    # G's per-vertex frozensets are built only on first read; solving,
    # checking both certificate kinds and Graph.adjacent read G through its
    # sorted adj tuples.
    from homrecol.families import make_cycle_wrap

    yes = make_cycle_wrap(200, 4, 3)
    verdict = solve(yes)
    assert verdict.yes and verify_witness(yes, verdict.moves).ok
    no = Instance(g=cycle_graph(5), h=cycle_graph(5), phi=ID5, psi=(1, 2, 3, 4, 0))
    verdict = solve(no)
    assert verdict.obstruction.kind == "frozen-mismatch"
    assert recheck_obstruction(no, verdict.obstruction)
    for inst in (yes, no):
        assert "adj_sets" not in vars(inst.g)
        assert "adj_sets" in vars(inst.h)
        for graph in (inst.g, inst.h):
            assert graph.adjacent(0, 1) and graph.adjacent(1, 0) and graph.adjacent(2, 2)
            assert not graph.adjacent(0, 2)
    assert "adj_sets" not in vars(yes.g)

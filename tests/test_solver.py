import inspect
import random
import time
import tracemalloc
from array import array
from collections import Counter

import pytest

from conftest import (
    all_loops,
    benchmark_workloads,
    brute_generate_system,
    disjoint_union,
    girth5_rotation,
    mirrored_wrap,
    pairs,
    relabel,
    simple_cycles,
    tight_rotation,
    tight_vertices,
    walks_of,
)
from homrecol.errors import InvalidInputError
from homrecol.families import (
    cycle_graph,
    make_double_bridge,
    make_figure_eight,
    make_cycle_wrap,
    make_double_turn,
    make_locked_link,
    make_twisted_loop,
    random_girth5_instance,
    random_hom,
    random_instance,
)
from homrecol.graphs import Graph, Scratch, bfs_tree, shortest_walk, tree_path
from homrecol.jsonio import dumps, verdict_to_dict
from homrecol.oracle import Answer, hom_graph_bfs, hom_graph_path
from homrecol import graphs, solver
from homrecol.solver import (
    GIRTH5,
    Instance,
    Obstruction,
    preprocess_girth5,
    recheck_obstruction,
    solve,
    validate_instance,
    verify_witness,
)
from homrecol.scheduling import schedule
from homrecol.systems import CycleWitness, WalkSystem, edge_preserved, find_valid_base_walk
from homrecol.walks import reduce_walk

C5 = cycle_graph(5)
ID5 = (0, 1, 2, 3, 4)
ROT5 = (1, 2, 3, 4, 0)


@pytest.mark.parametrize(
    "phi, psi, message",
    [
        ((0, 1, 2, 3, 1), (0, 2, 2, 3, 4), "phi is not a homomorphism"),
        (ID5, (0, 2, 2, 3, 4), "psi is not a homomorphism"),
        ((0, 1, 2, 3, 1), (0, 1, 2, 3, 9), "phi is not a homomorphism"),
        ((0, 1, 2, 3, 9), (0, 2, 2, 3, 4), "image 9 of vertex 4 out of range"),
        (ID5, (0, 1, 2), "map has length 3, expected 5"),
    ],
)
def test_validate_instance_checks_phi_before_psi(phi, psi, message):
    with pytest.raises(InvalidInputError) as excinfo:
        validate_instance(Instance(g=C5, h=C5, phi=phi, psi=psi))
    assert str(excinfo.value) == message


def test_solve_identity_yields_empty_witness():
    v = solve(Instance(g=C5, h=C5, phi=ID5, psi=ID5))
    assert v.yes and list(v.moves) == []


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
    assert v.yes and verify_witness(inst, pairs(v.moves)).ok


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
    work, prefix = preprocess_girth5(inst)
    assert list(prefix) == [0, 3]
    assert work == inst._replace(phi=(3, 0, 1))  # G as given, no loops added
    assert solve(inst).yes


def test_preprocess_isolated_looped_walks():
    # vertex 0 looped isolated, 1 loopless isolated: only 1 jumps up front,
    # and 0 walks its shortest walk as a one-vertex component
    g = Graph(2, [(0, 0)], reflexive=False)
    inst = Instance(g=g, h=C5, phi=(0, 0), psi=(2, 2), mode="girth5")
    work, prefix = preprocess_girth5(inst)
    assert list(prefix) == [1, 2]
    assert work == inst._replace(phi=(0, 2))
    v = solve(inst)
    assert list(v.moves) == [1, 2, 0, 1, 0, 2]
    assert v.yes and verify_witness(inst, pairs(v.moves)).ok


def test_girth5_looped_isolated_vertex_fails_at_its_components_turn():
    # H is two disjoint reflexive 5-cycles; G a loopless 5-cycle on 0..4,
    # frozen at phi and rotated by psi, and a looped vertex 5 whose colours
    # are separated.  The components fail in root order, so the 5-cycle's
    # frozen-mismatch comes first; vertex 5's no-valid-walk holds too
    ring = [(i, (i + 1) % 5) for i in range(5)]
    h = Graph(10, ring + [(u + 5, v + 5) for u, v in ring], reflexive=True)
    g = Graph(6, ring + [(5, 5)])
    inst = Instance(g=g, h=h, phi=(0, 1, 2, 3, 4, 0), psi=(1, 2, 3, 4, 0, 5), mode=GIRTH5)
    ob = solve(inst).obstruction
    assert ob.kind == "frozen-mismatch" and ob.cycle == (0, 4, 3, 2, 1, 0)
    assert recheck_obstruction(inst, ob)
    assert recheck_obstruction(inst, Obstruction(kind="no-valid-walk", cycle=(5,)))


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
    assert v2.yes and list(v2.moves) == [0, 3]


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
    # the solve stops at looped isolated vertex 0, the first component, but
    # the edge 1-2 is stuck too
    ring = [(i, (i + 1) % 5) for i in range(5)]
    h = Graph(10, ring + [(u + 5, v + 5) for u, v in ring], reflexive=True)
    inst = Instance(g=Graph(3, [(0, 0), (1, 2)]), h=h, phi=(0, 0, 1), psi=(5, 5, 6), mode="girth5")
    v = solve(inst)
    assert v.obstruction == Obstruction(kind="no-valid-walk", cycle=(0,))
    assert recheck_obstruction(inst, v.obstruction)
    assert recheck_obstruction(inst, Obstruction(kind="no-valid-walk", cycle=(1,)))
    assert recheck_obstruction(inst, Obstruction(kind="no-valid-walk", cycle=(1, 2, 1)))
    # the cycle is a closed walk of G as given: 1 and 2 have no loop, so a
    # stay step at either is refused (the solver's cycles never stay)
    assert not recheck_obstruction(inst, Obstruction(kind="no-valid-walk", cycle=(1, 1, 2, 1)))
    assert not recheck_obstruction(inst, Obstruction(kind="no-valid-walk", cycle=(1, 2, 2, 1)))
    # the same certificates are still refused where they do not hold
    assert not recheck_obstruction(inst, Obstruction(kind="frozen-mismatch", cycle=(1,), vertex=1))
    ok = Instance(g=inst.g, h=h, phi=(0, 0, 1), psi=(5, 1, 0), mode="girth5")
    assert not recheck_obstruction(ok, Obstruction(kind="no-valid-walk", cycle=(1,)))


def test_recheck_parity_of_a_looped_isolated_vertex_across_modes():
    # recolbench's separated_loop: H is two disjoint reflexive 5-cycles, and
    # isolated vertices 0 and 1 must go from one to the other.  Looped,
    # vertex 0 can never reach its psi colour, in either mode, and both
    # modes judge it by the same rules, on (0,) and on the closed walk
    # (0, 0) round its loop alike.  Girth-5 mode adds one rule: the
    # loopless vertex 1 jumps, so no certificate on it holds.
    ring = [(i, (i + 1) % 5) for i in range(5)]
    h = Graph(10, ring + [(u + 5, v + 5) for u, v in ring], reflexive=True)
    phi, psi = (0, 0, 0, 1), (5, 5, 0, 1)
    girth5 = Instance(g=Graph(4, [(0, 0), (2, 3)]), h=h, phi=phi, psi=psi, mode=GIRTH5)
    reflexive = Instance(g=Graph(4, [(2, 3)], reflexive=True), h=h, phi=phi, psi=psi)
    cores = ((), ())  # the cores of a closed walk that stays at one colour
    for inst in (girth5, reflexive):
        validate_instance(inst)
        assert solve(inst).obstruction == Obstruction(kind="no-valid-walk", cycle=(0,))
        for cycle in ((0,), (0, 0)):
            assert recheck_obstruction(inst, Obstruction(kind="no-valid-walk", cycle=cycle))
            # a one-vertex walk is not tight, and its colours do not wind
            for kind in ("frozen-mismatch", "unrealizable"):
                assert not recheck_obstruction(inst, Obstruction(kind, cycle, vertex=0))
            assert not recheck_obstruction(inst, Obstruction("free-class-mismatch", cycle, cores=cores))
    loopless = [
        Obstruction(kind="no-valid-walk", cycle=(1,)),
        Obstruction(kind="free-class-mismatch", cycle=(1,), cores=cores),
        Obstruction(kind="frozen-mismatch", cycle=(1,), vertex=1),
        Obstruction(kind="unrealizable", cycle=(1,), vertex=1),
    ]
    assert [recheck_obstruction(girth5, ob) for ob in loopless] == [False] * 4
    # with a loop, as reflexive mode has it, vertex 1 is stuck like vertex 0
    assert recheck_obstruction(reflexive, loopless[0])


def test_recheck_rejects_a_corrupted_tight_cycle():
    # the cycle of a frozen-mismatch or unrealizable certificate must be a
    # closed walk of G through its vertex; tightness reads colours only, so
    # these checks alone stand between a corrupt cycle and a YES instance.
    # Each G here has vertices off the certificate's cycle.
    kinds = set()
    for inst in (
        disjoint_union([tight_rotation(8), make_cycle_wrap(13, 4, 1)], interleave=True),
        disjoint_union([Instance(g=C5, h=C5, phi=ID5, psi=ROT5), make_figure_eight()], interleave=False),
        make_locked_link(),
        make_twisted_loop(),
    ):
        ob = solve(inst).obstruction
        g, cycle = inst.g, ob.cycle
        assert recheck_obstruction(inst, ob)
        kinds.add(ob.kind)
        # not closed
        assert not recheck_obstruction(inst, ob._replace(cycle=cycle[:-1]))
        assert not recheck_obstruction(inst, ob._replace(cycle=cycle + (cycle[1],)))
        # a step that is not an edge: the cycle skips its third vertex, and
        # its image may well stay cyclically reduced
        assert not g.adjacent(cycle[1], cycle[3])
        assert not recheck_obstruction(inst, ob._replace(cycle=cycle[:2] + cycle[3:]))
        # a vertex off the cycle, where phi and psi differ if one does
        off = [x for x in range(g.n) if x not in cycle]
        off.sort(key=lambda x: inst.phi[x] == inst.psi[x])
        assert not recheck_obstruction(inst, ob._replace(vertex=off[0]))
    assert kinds == {"frozen-mismatch", "unrealizable"}


def test_mismatch_rechecks_need_only_walk_algebra(monkeypatch):
    # ROADMAP item 5's boundary: with every systems and scheduling function
    # that solver imported made to raise, frozen-mismatch and
    # free-class-mismatch certificates still recheck
    rng = random.Random(65)
    insts = [tight_rotation(2000), mirrored_wrap(200)]
    for i in range(200):
        if i % 4 == 0:
            insts.append(random_girth5_instance(rng, 2 + i % 11))
        elif i % 4 == 1:
            # a tight k-wrap with psi rotated, its vertices renamed
            k = rng.choice((4, 5, 6))
            n = k * rng.randrange(1, 6)
            shift = rng.randrange(1, n)
            phi = tuple(x % k for x in range(n))
            psi = tuple(phi[(x - shift) % n] for x in range(n))
            label = list(range(n))
            rng.shuffle(label)
            insts.append(relabel(Instance(g=cycle_graph(n), h=cycle_graph(k), phi=phi, psi=psi), label))
        else:
            insts.append(random_instance(rng, 2 + i % 13, 4 + i % 9))
    certs = []
    for inst in insts:
        ob = solve(inst).obstruction
        if ob is not None and ob.kind in ("frozen-mismatch", "free-class-mismatch"):
            certs.append((inst, ob))
    assert [ob.kind for _, ob in certs[:2]] == ["frozen-mismatch", "free-class-mismatch"]

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"recheck called solver.{name}")

        return call

    patched = set()
    for name, obj in list(vars(solver).items()):
        if inspect.isfunction(obj) and obj.__module__ in ("homrecol.systems", "homrecol.scheduling"):
            monkeypatch.setattr(solver, name, refuse(name))
            patched.add(name)
    assert {"find_valid_base_walk", "generate_system", "schedule"} <= patched
    kinds = Counter()
    for inst, ob in certs:
        assert recheck_obstruction(inst, ob), ob
        kinds[ob.kind, inst.mode] += 1
    assert kinds["frozen-mismatch", "reflexive"] >= 20, kinds
    assert kinds["free-class-mismatch", "reflexive"] >= 20, kinds
    assert kinds["free-class-mismatch", "girth5"] >= 5, kinds


def test_preprocess_noop_for_reflexive_no_isolated():
    # phi is copied only at the first vertex that moves: with none isolated,
    # or every isolated one already at its psi colour, inst itself returns
    looped = Graph(4, [(0, 0), (2, 3)], reflexive=False)
    for inst in (
        Instance(g=cycle_graph(6, reflexive=False), h=C5, phi=(0,) * 6, psi=(1,) * 6, mode="girth5"),
        Instance(g=looped, h=C5, phi=(2, 4, 0, 1), psi=(2, 4, 1, 2), mode="girth5"),
    ):
        work, prefix = preprocess_girth5(inst)
        assert work is inst and list(prefix) == []


def test_preprocess_memory_of_the_100k_girth5_rotation():
    # no vertex of the loopless 100k cycle is isolated: each row is read in
    # place and phi is never copied.  A copy of phi and an any() generator
    # per vertex set the peak at 1.53 MiB
    inst = girth5_rotation(100_000)
    tracemalloc.start()
    try:
        work, prefix = preprocess_girth5(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert work is inst and list(prefix) == []
    assert peak <= 0.1 * 2**20, peak


def test_loop_addition_preserves_answer():
    # adding all loops to an irreflexive instance graph keeps the verdict
    rng = random.Random(54)
    for _ in range(30):
        g = cycle_graph(6, reflexive=False)
        phi, psi = random_hom(rng, g, C5), random_hom(rng, g, C5)
        original = hom_graph_bfs(g, C5, phi, psi, max_states=10**6)
        looped = hom_graph_bfs(all_loops(g), C5, phi, psi, max_states=10**6)
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
            assert verify_witness(inst, pairs(v.moves)).ok


def test_solver_matches_oracle_on_random_instances():
    rng = random.Random(52)
    for _ in range(120):
        inst = random_instance(rng, rng.randrange(1, 7), rng.randrange(4, 7))
        v = solve(inst)
        o = hom_graph_bfs(inst.g, inst.h, inst.phi, inst.psi, max_states=400_000)
        assert o is (Answer.YES if v.yes else Answer.NO)
        if v.yes:
            assert verify_witness(inst, pairs(v.moves)).ok
        else:
            assert recheck_obstruction(inst, v.obstruction)


def _wrap_round_a_host_cycle(rng, workloads):
    """A cycle of G wrapped round a cycle of a random triangle-free host, the
    vertices past the last whole turn left at its start, and psi the wrap
    rotated, reversed or a random homomorphism."""
    cycles = []
    while not cycles:
        h = workloads.random_triangle_free_host(rng, rng.randrange(4, 9))
        cycles = simple_cycles(h)
    ring = rng.choice(cycles)[:-1]
    k = len(ring)
    g = cycle_graph(rng.randrange(k, 10))
    turns = g.n - g.n % k
    phi = tuple(ring[i % k] if i < turns else ring[0] for i in range(g.n))
    how = rng.randrange(3)
    if how == 0:
        shift = rng.randrange(1, g.n)
        psi = tuple(phi[(i - shift) % g.n] for i in range(g.n))
    elif how == 1:
        psi = tuple(phi[-i % g.n] for i in range(g.n))
    else:
        psi = random_hom(rng, g, h)
    return Instance(g=g, h=h, phi=phi, psi=psi)


def test_solver_matches_oracle_on_random_triangle_free_hosts():
    # hosts outside families.host_catalogue, from recolbench's generator:
    # wherever the oracle decides, solve agrees, and its certificate checks
    workloads = benchmark_workloads()
    rng = random.Random(56)
    decided, kinds = 0, Counter()
    for i in range(600):
        if i % 2:
            inst = workloads.random_tf_instance(rng, rng.randrange(2, 8), rng.randrange(4, 9))
        else:
            inst = _wrap_round_a_host_cycle(rng, workloads)
        o = hom_graph_bfs(inst.g, inst.h, inst.phi, inst.psi, max_states=100_000)
        if o is Answer.BUDGET_EXCEEDED:
            continue
        v = solve(inst)
        assert o is (Answer.YES if v.yes else Answer.NO), i
        if v.yes:
            assert verify_witness(inst, pairs(v.moves)).ok, i
        else:
            assert recheck_obstruction(inst, v.obstruction), i
            kinds[v.obstruction.kind] += 1
        decided += 1
    assert decided >= 100 and sum(kinds.values()) >= 20 and len(kinds) >= 2, (decided, kinds)


def test_solve_empty_graph():
    v = solve(Instance(g=Graph(0, [], reflexive=True), h=C5, phi=(), psi=()))
    assert v.yes and list(v.moves) == []


def test_solve_single_vertex_long_host_walk():
    # the base walk is as long as the host path, well beyond 4|V(G)|
    from homrecol.families import path_graph

    h = path_graph(9)
    g = Graph(1, [], reflexive=True)
    v = solve(Instance(g=g, h=h, phi=(0,), psi=(8,)))
    assert v.yes and pairs(v.moves) == [(0, c) for c in range(1, 9)]


def test_verify_witness_examples():
    inst = Instance(g=C5, h=C5, phi=ID5, psi=ID5)
    assert verify_witness(inst, []).ok
    # no-op and teleport moves are rejected with their index
    assert verify_witness(inst, [(0, 0)]) == (False, 0)
    assert verify_witness(inst, [(0, 2)]) == (False, 0)
    # failing to land on psi reports one past the end
    inst2 = Instance(g=C5, h=C5, phi=ID5, psi=(1, 2, 3, 4, 0))
    assert verify_witness(inst2, []) == (False, 0)


def test_list_maps_in_a_library_instance():
    # Instance documents tuples, but a library caller may pass lists: the
    # answer, the witness replay and the final comparison with psi must not
    # depend on it
    from homrecol.families import path_graph

    g, h = path_graph(3), cycle_graph(4)
    listed = solve(Instance(g=g, h=h, phi=[0, 1, 2], psi=[1, 2, 3]))
    tupled = solve(Instance(g=g, h=h, phi=(0, 1, 2), psi=(1, 2, 3)))
    assert listed.yes and listed.moves == tupled.moves and len(pairs(listed.moves)) == 3
    listed_inst = Instance(g=g, h=h, phi=[0, 1, 2], psi=[1, 2, 3])
    assert verify_witness(listed_inst, pairs(listed.moves)).ok
    assert verify_witness(Instance(g=g, h=h, phi=(0, 1, 2), psi=[0, 1, 2]), []).ok
    assert verify_witness(Instance(g=g, h=h, phi=(0, 1, 2), psi=[0, 1, 3]), []) == (False, 0)


@pytest.mark.parametrize("bad_at", [None, 0, 7, 23])
def test_verify_witness_same_on_list_and_tuple_moves(bad_at):
    # a result file parses each move to a [vertex, colour] list, solve
    # replays its flat list [v0, c0, v1, c1, ...] as (vertex, colour) pairs
    # fed by zip: the replay must read all of them alike, down to the index
    # of the first bad move and, landing off psi, the number of moves
    inst = make_cycle_wrap(12, 4, 3)
    flat = solve(inst).moves
    assert len(flat) > 2 * 23
    if bad_at is not None:
        flat[2 * bad_at + 1] = 4  # a colour H does not have
    for witness in (flat, flat[:-2]):
        it = iter(witness)
        check = verify_witness(inst, zip(it, it))
        assert verify_witness(inst, pairs(witness)) == check
        assert verify_witness(inst, [list(m) for m in pairs(witness)]) == check
        expected = (True, None) if witness is flat else (False, len(witness) // 2)
        assert check == (expected if bad_at is None else (False, bad_at))
    assert verify_witness(inst, [[0, 1, 2]]) == verify_witness(inst, [(0, 1, 2)]) == (False, 0)
    assert verify_witness(inst, [(0,)]) == (False, 0)
    # after a good first move, a move that is no pair fails at its own index
    assert verify_witness(inst, [solve(inst).moves[:2], [0, 1, 2]]) == (False, 1)


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
    assert v.yes and len(pairs(v.moves)) == 2 * k
    assert elapsed < 10.0, f"solve took {elapsed:.1f} s CPU"


def test_solve_builds_one_tree_per_component(monkeypatch):
    # every system of a component, the second-witness candidates of the
    # double turn and the locked link's constant-walk retry from a vertex
    # that is not the root included, is generated along one BFS tree
    inst = disjoint_union(
        [make_cycle_wrap(30, 4, 5), make_double_turn(), make_locked_link()], interleave=False
    )
    calls = []

    def counted(g, root, *args, **kwargs):
        calls.append(root)
        return bfs_tree(g, root, *args, **kwargs)

    monkeypatch.setattr(graphs, "bfs_tree", counted)
    v = solve(inst)
    link = 30 + 41  # the locked link's first vertex
    assert v.obstruction == Obstruction(
        kind="unrealizable", cycle=tuple(link + x for x in (5, 6, 7, 8, 5)), vertex=link + 5
    )
    assert calls == [0, 30, link]


def _hexagon_off_a_path(tail=6):
    # a tight hexagon, fixed by both maps, hangs off a path whose far end is
    # the root 0, and a tail of `tail` vertices at colour 3 hangs off the
    # root; the root's shortest walk is constant, which turns the frozen
    # vertex 3 once round the hexagon, so that system deadlocks, and the one
    # realizable system is the retry's, from the constant walk at 3: the
    # root, and so the tail, turning the other way.  Without the tail the
    # pinned family's descent reaches that system first (12 moves against
    # 42); a tail of 5 or more makes the turn cost the tail more moves than
    # it saves the hexagon, so the deadlocking system is scheduled and the
    # retry runs
    edges = [(0, 1), (1, 2), (2, 3)] + [(3 + i, 3 + (i + 1) % 6) for i in range(6)]
    edges += [(0 if i == 0 else 8 + i, 9 + i) for i in range(tail)]
    return Instance(
        g=Graph(9 + tail, edges, reflexive=True),
        h=cycle_graph(6),
        phi=(3, 2, 1, 0, 1, 2, 3, 4, 5) + (3,) * tail,
        psi=(3, 4, 5, 0, 1, 2, 3, 4, 5) + (3,) * tail,
    )


def test_constant_walk_retry_from_a_cycle_vertex_succeeds(monkeypatch):
    retries = []
    monkeypatch.setattr(
        solver, "tree_path", lambda parent, x: retries.append(x) or tree_path(parent, x)
    )
    bare = _hexagon_off_a_path(tail=0)
    v = solve(bare)
    assert pairs(v.moves) == [
        (0, 2), (1, 1), (2, 0), (0, 1), (1, 0), (2, 5),
        (0, 0), (1, 5), (0, 5), (1, 4), (0, 4), (0, 3),
    ]
    assert retries == []  # the descent reached the retry's system
    assert hom_graph_bfs(bare.g, bare.h, bare.phi, bare.psi, max_states=200_000) is Answer.YES
    inst = _hexagon_off_a_path()
    v = solve(inst)
    assert retries == [3]
    assert len(v.moves) == 2 * 48 and verify_witness(inst, pairs(v.moves)).ok
    # the tail turns with the root: six steps for each of its vertices
    assert Counter(u for u, _ in pairs(v.moves) if u >= 9) == {u: 6 for u in range(9, 15)}


@pytest.mark.parametrize(
    "make, answer",
    [(_hexagon_off_a_path, "yes"), (make_locked_link, "unrealizable"), (make_twisted_loop, "unrealizable")],
)
def test_constant_walk_retry_under_relabelling(monkeypatch, make, answer):
    # renaming G's vertices moves the root, the retry vertex r = min(cycle)
    # and the tree chain from r to the root, from which the retry computes
    # its root walk; each time the answer stays, a YES witness replays and a
    # NO certificate rechecks
    base = make()
    chains = []

    def recorded(parent, x):
        chains.append(tree_path(parent, x))
        return chains[-1]

    monkeypatch.setattr(solver, "tree_path", recorded)  # called by the retry alone
    rng = random.Random(61)
    seen = set()
    for _ in range(50):
        label = list(range(base.g.n))
        rng.shuffle(label)
        inst = relabel(base, label)
        chains.clear()
        v = solve(inst)
        assert len(chains) <= 1
        if chains:
            old = {x: u for u, x in enumerate(label)}
            seen.add(tuple(old[x] for x in chains[0]))
        if answer == "yes":
            assert v.yes and verify_witness(inst, pairs(v.moves)).ok
        else:
            assert v.obstruction.kind == answer
            assert recheck_obstruction(inst, v.obstruction)
    # distinct chains, in the original names: r and the root vary with them
    assert len(seen) >= 5, seen


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
    assert verdict.yes and verify_witness(yes, pairs(verdict.moves)).ok
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


def test_solve_memory_of_the_100k_tight_rotation():
    # walks in one flat list and a deadlock scan that marks visited vertices
    # in the scratch: a tuple per walk in a dict, and two vertex-keyed dicts
    # for the deadlock cycle, took 33 MiB at the peak; a depth list in the
    # cover trie, beside its label and up lists, took 23.4 MiB, and a dict
    # entry per cover node for its child 20.1 MiB (a first-child list: 12.7),
    # two scratch lists of the cover lifts beside the scheduler's left and
    # cur 12.72 MiB (the lifts in left and cur: 11.19), and the deadlock
    # test's copy of the cycle's colours extended round the cycle 11.19 MiB
    # (read in place: 10.58), and the scheduler's left and cur made with
    # the scratch, before the base-walk search, 10.58 (made at the first
    # schedule: 9.21).  The scheduler sizes its move list at the first
    # move, which never comes here: sized up front it adds 1.5 MiB
    n = 100_000
    inst = tight_rotation(n)
    tracemalloc.start()
    try:
        verdict = solve(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.obstruction.kind == "frozen-mismatch"
    assert verdict.obstruction.vertex == 0 and len(verdict.obstruction.cycle) == n + 1
    assert peak <= 10 * 2**20, peak


def test_girth5_memory_of_the_100k_tight_rotation():
    # a loopless 100k cycle into C5, psi rotated one step: the girth-5 mode
    # solves and rechecks on G as given.  A loop-added copy of G, built by
    # preprocessing and again by the recheck, set both peaks: the solve's at
    # 23.57 MiB, and the recheck's at 22.81 MiB (on G as given: 9.97 and
    # 0.89)
    n = 100_000
    inst = girth5_rotation(n)
    tracemalloc.start()
    try:
        verdict = solve(inst)
        solve_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.obstruction.kind == "frozen-mismatch"
    assert len(verdict.obstruction.cycle) == n + 1
    assert solve_peak <= 11 * 2**20, solve_peak
    # traced apart, so the certificate itself is not counted
    tracemalloc.start()
    try:
        assert recheck_obstruction(inst, verdict.obstruction)
        recheck_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert recheck_peak <= 1.5 * 2**20, recheck_peak


def test_base_walk_search_memory_of_the_100k_tight_rotation():
    # the search runs with the scratch's start, end and queued alone: the
    # scheduler's left and cur, made with the scratch, sat beside the
    # cover trie at its full size and set the peak at 10.58 MiB (made at
    # the first schedule: 9.06)
    inst = tight_rotation(100_000)
    tracemalloc.start()
    try:
        scratch = Scratch(inst.g.n)
        system = find_valid_base_walk(
            inst.g, inst.h, inst.phi, inst.psi, bfs_tree(inst.g, 0), scratch
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(system, WalkSystem) and scratch.left is None
    assert peak <= 9.5 * 2**20, peak


def test_solve_and_dump_memory_of_the_100k_wrap():
    # shift n // 2 ties the pinned family's turns 0 and +1 at 200,000 moves,
    # so the descent keeps the first system and the witness stays large (at
    # shift 40 it has 160 moves).  Measured at shift 40, before the descent,
    # on the 399,840 moves as one flat array, written in chunks: a (vertex,
    # colour) tuple per move took the solve's peak to 37.8 MiB; two scratch
    # lists of cover lifts beside the scheduler's left and cur took
    # 19.51 MiB (the lifts in left and cur: 17.98), the move list grown by
    # append 17.98 MiB (sized once from the system: 17.72), and the walks
    # and the moves as lists of 8-byte pointers 17.72 MiB (a byte array of
    # colours and a 4-byte array of moves: 11.92), and the scratch and the
    # last component tree alive through the witness self-check 11.92 (freed
    # before it: 10.91).  Here the peak, 9.63 MiB, is the descent's count
    # beside its cover trie; the descent's cover alive while the kept
    # system is carried again took it to 14.12, and the first system's
    # bounds kept alive under the cover to 10.77
    n = 100_000
    inst = make_cycle_wrap(n, 4, n // 2)
    tracemalloc.start()
    try:
        verdict = solve(inst)
        text = dumps(verdict_to_dict(verdict))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.yes and len(verdict.moves) == 2 * 200_000
    assert text.startswith('{"answer":"yes","witness":{"moves":[[')
    assert peak <= 10.5 * 2**20, peak


def test_the_100k_wrap_holds_a_byte_per_colour_and_four_per_move_entry():
    # a fall-back to lists, 8 bytes of pointer an entry, must fail here
    n = 100_000
    inst = make_cycle_wrap(n, 4, n // 2)
    scratch = Scratch(inst.g.n)
    system = find_valid_base_walk(inst.g, inst.h, inst.phi, inst.psi, bfs_tree(inst.g, 0), scratch)
    assert type(system.flat) is array and system.flat.itemsize == 1
    moves = schedule(inst.g, inst.h, system)
    assert type(moves) is array and moves.itemsize == 4 and len(moves) == 2 * 200_000


def test_solve_takes_a_components_moves_uncopied(monkeypatch):
    # the scheduler's flat array is the witness itself: copying it into a
    # fresh array holds two of them at once
    emitted = []

    def kept(*args):
        emitted.append(schedule(*args))
        return emitted[-1]

    monkeypatch.setattr(solver, "schedule", kept)
    verdict = solve(make_cycle_wrap(2000, 4, 40))
    assert len(emitted) == 1 and verdict.moves is emitted[0]


def test_recheck_memory_of_the_100k_tight_rotation():
    # one tight-cycle test reads the cycle as it is: a set of its 100k
    # vertices, built for one membership test, was the whole 6 MiB peak
    inst = tight_rotation(100_000)
    ob = solve(inst).obstruction
    assert ob.kind == "frozen-mismatch"
    tracemalloc.start()
    try:
        ok = recheck_obstruction(inst, ob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    assert peak <= 3 * 2**20, peak


def _walk_vertices_and_moves(inst):
    scratch = Scratch(inst.g.n)
    system = find_valid_base_walk(inst.g, inst.h, inst.phi, inst.psi, bfs_tree(inst.g, 0), scratch)
    out = schedule(inst.g, inst.h, system)
    return len(system.flat), len(out) // 2 if isinstance(out, array) else 0


@pytest.mark.parametrize(
    "make", [lambda n: make_cycle_wrap(n, 4, n // 2), tight_rotation], ids=["wrap", "tight"]
)
def test_walk_vertices_and_moves_grow_linearly(make):
    # counts, not times: doubling n at most doubles the walk vertices built
    # and the moves made
    small = _walk_vertices_and_moves(make(4000))
    big = _walk_vertices_and_moves(make(8000))
    assert small[0] >= 8000
    assert big[0] <= 2.1 * small[0] and big[1] <= 2.1 * small[1], (small, big)


def test_solve_many_isolated_looped_vertices():
    # 20,000 components, nearly all one looped vertex: a solve that allocated
    # anything n-sized per component or per system would take minutes
    n = 20_000
    g = Graph(n, [(0, 1), (1, 2), (10, 11)], reflexive=True)
    inst = Instance(g=g, h=cycle_graph(4), phi=(0,) * n, psi=(1,) * n)
    start = time.process_time()
    v = solve(inst)
    elapsed = time.process_time() - start
    assert v.yes and len(pairs(v.moves)) == n
    assert elapsed < 2.0, f"solve took {elapsed:.1f} s CPU"


def test_solve_schedules_flat_systems_that_match_the_reference(monkeypatch):
    # every system a solve schedules, through the one scratch its components,
    # candidate stages and constant-walk retries share, holds in its flat
    # list exactly the walks the reference builds from its root walk
    rng = random.Random(62)
    constructed = [
        make_double_turn, make_locked_link, make_twisted_loop, _hexagon_off_a_path,
        make_figure_eight, make_double_bridge,
    ]
    seen = {"systems": 0, "multi": 0, "girth5": 0, "candidate": 0, "retry": 0}
    work = None  # the instance the systems are of: girth5 ones after preprocessing
    roots = []  # the component roots scheduled so far in this solve

    def checked(g, h, system):
        phi, psi = work.phi, work.psi
        root = system.order[0]
        assert system.order == bfs_tree(g, root)[0]
        walks = walks_of(system)
        assert walks == walks_of(brute_generate_system(g, h, phi, psi, root, walks[root]))
        assert len(system.flat) == sum(len(w) for w in walks.values())
        seen["systems"] += 1
        if root in roots:
            seen["retry"] += 1
        else:
            w0 = shortest_walk(h, phi[root], psi[root])
            if isinstance(brute_generate_system(g, h, phi, psi, root, w0), CycleWitness):
                seen["candidate"] += 1
            roots.append(root)
        return schedule(g, h, system)

    monkeypatch.setattr(solver, "schedule", checked)
    for i in range(300):
        if i % 3 == 0:
            inst = random_girth5_instance(rng, 2 + i % 11)
            work = preprocess_girth5(inst)[0]
        else:
            parts = [random_instance(rng, 2 + i % 13, 4 + i % 9) for _ in range(1 + i % 2)]
            if i % 3 == 2:
                parts.append(rng.choice(constructed)())
            inst = work = disjoint_union(parts, interleave=rng.random() < 0.5)
        roots.clear()
        solve(inst)
        seen["multi"] += len(roots) > 1
        seen["girth5"] += inst.mode == GIRTH5 and bool(roots)
    assert seen["systems"] > 400 and seen["multi"] > 100 and seen["girth5"] > 50, seen
    assert seen["candidate"] > 10 and seen["retry"] > 10, seen

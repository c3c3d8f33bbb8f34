import random

import pytest

from conftest import brute_generate_system, brute_schedule, tight_vertices
from homrecol.errors import InvalidInputError
from homrecol.families import (
    cycle_graph,
    make_cycle_wrap,
    make_locked_link,
    path_graph,
    random_graph,
    random_hom,
    random_instance,
    random_walk_hom,
)
from homrecol.graphs import (
    Graph,
    Scratch,
    connected_components,
    hom_adjacent,
    is_homomorphism,
    shortest_walk,
)
from homrecol.oracle import Answer, hom_graph_bfs
from homrecol.scheduling import TightWalkWitness, is_tight, schedule, waits_for
from homrecol.systems import WalkSystem, find_valid_base_walk, generate_system
from homrecol.walks import free_decomposition

C5 = cycle_graph(5)
ID5 = (0, 1, 2, 3, 4)
ROT5 = (1, 2, 3, 4, 0)


def test_is_tight_identity_pentagon():
    assert is_tight(C5, ID5, (0, 1, 2, 3, 4, 0))


def test_is_tight_matches_decomposition_emptiness():
    rng = random.Random(41)
    for _ in range(200):
        g = cycle_graph(rng.randrange(4, 9))
        h = cycle_graph(rng.randrange(4, 7))
        phi = random_hom(rng, g, h)
        cyc = tuple(range(g.n)) + (0,)
        image = tuple(phi[x] for x in cyc)
        d = free_decomposition(image)
        expect = (not d.contractible) and len(d.core) == len(image) - 1
        assert is_tight(g, phi, cyc) == expect


def test_is_tight_slack_wrap():
    inst = make_cycle_wrap(13, 4, 0)
    cyc = tuple(range(13)) + (0,)
    assert not is_tight(inst.g, inst.phi, cyc)


def test_is_tight_constant_image():
    assert not is_tight(C5, (0,) * 5, (0, 1, 2, 3, 4, 0))


def test_is_tight_validates_cycle():
    with pytest.raises(InvalidInputError):
        is_tight(C5, ID5, (0, 1, 2))  # not closed
    with pytest.raises(InvalidInputError):
        is_tight(C5, ID5, (0, 2, 0))  # not edges


def _start_arcs(g, h, system):
    """Arcs u -> waits_for(u) with every vertex at the start of its walk."""
    pos = {v: 0 for v in system.walks}
    arcs = [(u, waits_for(g, h, system.walks, pos, u)) for u in sorted(system.walks)]
    # the scheduler's vertex-indexed list reads the same as the mapping
    listed = [0] * g.n
    assert arcs == [(u, waits_for(g, h, system.walks, listed, u)) for u in sorted(system.walks)]
    return [(u, v) for u, v in arcs if v is not None]


def test_movable_and_arcs_on_path_host():
    # two looped vertices joined by an edge, walking along a path host
    g = Graph(2, [(0, 1)], reflexive=True)
    h = path_graph(3)
    system = WalkSystem(root=0, walks={0: (0, 1), 1: (1, 2)})
    # tried first, 1 cannot move: 2 is not adjacent to 0's current colour 0
    assert schedule(g, h, system, order=[1, 0]) == [(0, 1), (1, 2)]
    assert _start_arcs(g, h, system) == [(1, 0)]
    out = schedule(g, h, system)
    assert out == [(0, 1), (1, 2)]


def test_waits_for_lowest_unfinished_vertex():
    # 3 must leave colour 1 for 2 while 1 and 2 still have to reach 1 from 0;
    # 0 sits at 0 too, but it is finished, so 3 does not wait for it
    g = Graph(4, [(3, 0), (3, 1), (3, 2)], reflexive=True)
    h = path_graph(3)
    system = WalkSystem(root=3, walks={0: (0,), 1: (0, 1), 2: (0, 1), 3: (1, 2)})
    assert _start_arcs(g, h, system) == [(3, 1)]


def test_no_arcs_when_all_constant():
    g = Graph(2, [(0, 1)], reflexive=True)
    h = path_graph(3)
    system = WalkSystem(root=0, walks={0: (0,), 1: (1,)})
    assert _start_arcs(g, h, system) == []
    assert schedule(g, h, system) == []


def test_rotation_deadlocks_with_tight_pentagon():
    system = generate_system(C5, C5, ID5, ROT5, 0, (0, 1))
    assert isinstance(system, WalkSystem)
    assert _start_arcs(C5, C5, system) == [(u, (u - 1) % 5) for u in range(5)]
    out = schedule(C5, C5, system)
    assert isinstance(out, TightWalkWitness)
    assert out.cycle == (0, 4, 3, 2, 1, 0)
    assert out.images == tuple(ID5[x] for x in out.cycle)
    assert is_tight(C5, ID5, out.cycle)
    # oracle: the rotation really is unreachable (component has 3125 potential states)
    assert hom_graph_bfs(C5, C5, ID5, ROT5, max_states=5**5) is Answer.NO


def _replay(g, h, phi, psi, moves):
    cur = list(phi)
    for v, c in moves:
        before = tuple(cur)
        cur[v] = c
        assert is_homomorphism(g, h, cur)
        assert hom_adjacent(g, h, before, tuple(cur))
    assert tuple(cur) == tuple(psi)


def test_cycle_wrap_schedule_replays():
    inst = make_cycle_wrap(13, 4, 1)
    search = find_valid_base_walk(inst.g, inst.h, inst.phi, inst.psi, 0)
    assert search.found
    out = schedule(inst.g, inst.h, search.system)
    assert isinstance(out, list)
    assert len(out) == sum(len(w) - 1 for w in search.system.walks.values())
    _replay(inst.g, inst.h, inst.phi, inst.psi, out)


def test_schedule_order_independent():
    rng = random.Random(42)
    outcomes = 0
    for _ in range(80):
        h = cycle_graph(rng.randrange(4, 7))
        g = random_graph(rng, rng.randrange(2, 7), 0.5)
        phi = random_hom(rng, g, h)
        psi = random_walk_hom(rng, g, h, phi, rng.randrange(0, 10))
        search = find_valid_base_walk(g, h, phi, psi, 0)
        if not search.found:
            continue
        base = schedule(g, h, search.system)
        for _ in range(3):
            order = sorted(search.system.walks)
            rng.shuffle(order)
            alt = schedule(g, h, search.system, order=order)
            assert isinstance(alt, list) == isinstance(base, list)
            if isinstance(alt, list):
                _replay(g, h, phi, _apply(g, phi, alt), alt)
                assert _apply(g, phi, alt) == _apply(g, phi, base)
        outcomes += 1
    assert outcomes > 25


def _apply(g, phi, moves):
    cur = list(phi)
    for v, c in moves:
        cur[v] = c
    return tuple(cur)


def test_deadlock_tight_under_current_and_original():
    # the deadlock cycle's colours match the starting map on that cycle
    rng = random.Random(43)
    seen = 0
    for _ in range(300):
        k = rng.randrange(4, 7)
        h = cycle_graph(k)
        g = cycle_graph(rng.randrange(k, 10))
        wraps = (g.n // k) * k
        phi = tuple(i % k if i < wraps else 0 for i in range(g.n))
        shift = rng.randrange(g.n)
        psi = tuple(phi[(i - shift) % g.n] for i in range(g.n))
        search = find_valid_base_walk(g, h, phi, psi, 0)
        if not search.found:
            continue
        out = schedule(g, h, search.system)
        if isinstance(out, TightWalkWitness):
            assert out.images == tuple(phi[x] for x in out.cycle)
            assert is_tight(g, phi, out.cycle)
            assert set(out.cycle) <= tight_vertices(g, h, phi)
            seen += 1
    assert seen > 5


def _assert_same_outcome(g, h, system, order=None):
    out = schedule(g, h, system, order=order)
    assert out == brute_schedule(g, h, system, order=order)
    return out


def test_schedule_matches_reference_on_random_instances():
    rng = random.Random(44)
    kinds = {"moves": 0, "deadlock": 0}
    for _ in range(300):
        inst = random_instance(rng, rng.randrange(2, 9), rng.randrange(4, 9))
        for comp in connected_components(inst.g):
            search = find_valid_base_walk(inst.g, inst.h, inst.phi, inst.psi, comp[0])
            if not search.found:
                continue
            out = _assert_same_outcome(inst.g, inst.h, search.system)
            kinds["moves" if isinstance(out, list) else "deadlock"] += 1
            order = list(comp)
            rng.shuffle(order)
            _assert_same_outcome(inst.g, inst.h, search.system, order=order)
    assert kinds["moves"] > 100 and kinds["deadlock"] > 0


def test_schedule_matches_reference_on_wrap():
    inst = make_cycle_wrap(2000, 4, 40)
    search = find_valid_base_walk(inst.g, inst.h, inst.phi, inst.psi, 0)
    out = _assert_same_outcome(inst.g, inst.h, search.system)
    assert len(out) == sum(len(w) - 1 for w in search.system.walks.values())


def test_schedule_matches_reference_on_deadlocks():
    system = generate_system(C5, C5, ID5, ROT5, 0, (0, 1))
    assert isinstance(_assert_same_outcome(C5, C5, system), TightWalkWitness)
    # both the first system and the constant-walk retry of the locked link deadlock
    inst = make_locked_link()
    search = find_valid_base_walk(inst.g, inst.h, inst.phi, inst.psi, 0)
    out = _assert_same_outcome(inst.g, inst.h, search.system)
    assert isinstance(out, TightWalkWitness)
    root = min(out.cycle)
    retry = generate_system(inst.g, inst.h, inst.phi, inst.psi, root, (inst.phi[root],))
    assert isinstance(_assert_same_outcome(inst.g, inst.h, retry), TightWalkWitness)


def test_shared_scratch_matches_reference():
    # one Scratch through every call, as one solve shares it across its
    # components and the constant-walk retry: no call may read another's state
    rng = random.Random(45)
    scratch = Scratch(8)
    runs = 0
    for _ in range(300):
        inst = random_instance(rng, rng.randrange(2, 9), rng.randrange(4, 9))
        g, h, phi, psi = inst.g, inst.h, inst.phi, inst.psi
        for comp in connected_components(g):
            w0 = shortest_walk(h, phi[comp[0]], psi[comp[0]])
            if w0 is None:
                continue
            system = generate_system(g, h, phi, psi, comp[0], w0, scratch=scratch)
            assert system == brute_generate_system(g, h, phi, psi, comp[0], w0)
            if isinstance(system, WalkSystem):
                # the second run starts on the arrays the first one left behind
                for _ in range(2):
                    assert schedule(g, h, system, scratch=scratch) == brute_schedule(g, h, system)
                    runs += 1
    assert runs > 200

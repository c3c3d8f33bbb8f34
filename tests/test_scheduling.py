import random
import sys
import tracemalloc
from array import array

import pytest

from conftest import (
    brute_generate_system,
    brute_schedule,
    listed,
    pairs,
    system_of,
    tight_rotation,
    tight_vertices,
    walks_of,
)
from homrecol import solver, systems
from homrecol.errors import InternalError
from homrecol.families import (
    cycle_graph,
    make_cycle_wrap,
    make_double_turn,
    make_locked_link,
    make_twisted_loop,
    path_graph,
    random_graph,
    random_hom,
    random_instance,
    random_walk_hom,
)
from homrecol.graphs import (
    Graph,
    Scratch,
    bfs_tree,
    id_code,
    is_homomorphism,
    move_code,
    shortest_walk,
    tree_path,
)
from homrecol.oracle import Answer, hom_graph_bfs
from homrecol.scheduling import _extract_tight_cycle, schedule
from homrecol.solver import Instance, solve, verify_witness
from homrecol.systems import CycleWitness, WalkSystem, find_valid_base_walk, generate_system
from homrecol.walks import is_cyclically_reduced, reduce_walk
from reference import connected_components, hom_adjacent, waits_for

C5 = cycle_graph(5)
ID5 = (0, 1, 2, 3, 4)
ROT5 = (1, 2, 3, 4, 0)


def _start_arcs(g, h, system):
    """Arcs u -> waits_for(u) with every vertex at the start of its walk."""
    walks = walks_of(system)
    left = [0] * g.n
    for v, w in walks.items():
        left[v] = len(w) - 1
    arcs = [(u, waits_for(g, h, system, left, u)) for u in sorted(walks)]
    return [(u, v) for u, v in arcs if v is not None]


def test_movable_and_arcs_on_path_host():
    # two looped vertices joined by an edge, walking along a path host
    g = Graph(2, [(0, 1)], reflexive=True)
    h = path_graph(3)
    system = system_of({0: (0, 1), 1: (1, 2)})
    # 1 waits for 0: 2 is not adjacent to 0's current colour 0
    assert _start_arcs(g, h, system) == [(1, 0)]
    out = schedule(g, h, system)
    assert list(out) == [0, 1, 1, 2]


def test_schedule_fills_a_move_list_sized_once_from_the_system():
    # one move per step of each walk: the array is made at its full length,
    # so it carries no spare room that growing by append would leave
    inst = make_cycle_wrap(2000, 4, 40)
    scratch = Scratch(inst.g.n)
    system = find_valid_base_walk(inst.g, inst.h, inst.phi, inst.psi, bfs_tree(inst.g, 0), scratch)
    out = schedule(inst.g, inst.h, system)
    assert len(out) == 2 * (len(system.flat) - len(system.order)) > 0
    assert sys.getsizeof(out) == sys.getsizeof(array(out.typecode, [0]) * len(out))


@pytest.mark.parametrize("colours, itemsize", [(256, 1), (257, 2), (65_536, 2), (65_537, 4)])
def test_walks_take_the_narrowest_array_that_holds_a_colour(colours, itemsize):
    # a 3-vertex path that walks two steps round a reflexive cycle host,
    # from its three highest colours across the highest, colours - 1, to 0
    h = cycle_graph(colours)
    g = path_graph(3)
    top = colours - 1
    inst = Instance(g=g, h=h, phi=(top - 2, top - 1, top), psi=(top, 0, 1))
    scratch = Scratch(g.n)
    system = find_valid_base_walk(g, h, inst.phi, inst.psi, bfs_tree(g, 0), scratch)
    assert type(system.flat) is array and system.flat.itemsize == itemsize
    walks = walks_of(system)
    assert walks == walks_of(brute_generate_system(g, h, inst.phi, inst.psi, 0, walks[0]))
    assert walks[0] == (top - 2, top - 1, top) and walks[2] == (top, 0, 1)
    out = schedule(g, h, system)
    assert type(out) is array and out.itemsize == 4
    assert listed(out) == brute_schedule(g, h, system)
    verdict = solve(inst)
    assert verdict.moves.typecode == out.typecode and len(verdict.moves) == 12
    assert verify_witness(inst, pairs(verdict.moves)).ok


def test_width_rule_thresholds():
    # n ids are 0..n-1: 256 fit a byte, 2**32 fit 4 bytes, and anything
    # larger takes 8; a witness is never narrower than "I"
    sizes = {code: array(code).itemsize for code in "BHIQ"}
    assert sizes["B"] == 1 and sizes["H"] == 2 and sizes["I"] == 4 and sizes["Q"] == 8
    assert [id_code(n) for n in (0, 256, 257, 2**16, 2**16 + 1, 2**32, 2**32 + 1)] == list(
        "BBHHIIQ"
    )
    assert id_code(1, 4) == id_code(2**32, 4) == "I" and id_code(2**32 + 1, 4) == "Q"
    assert move_code(path_graph(3), cycle_graph(65_537)) == "I"


@pytest.mark.parametrize("steps", [0, 1, 2, 1023, 1024, 1025, 2049, 4097])
def test_schedule_fills_the_array_across_buffer_bounds(steps):
    # one looped vertex walking a path host end to end: one move a step,
    # each written straight into an array made at the first move.  The
    # counts straddle 2,048 and 4,096 entries, where a list buffer that once
    # sat between the loop and the array spilled; none leaves the array
    # short or with spare room
    g, h = Graph(1, [], reflexive=True), path_graph(steps + 1)
    system = system_of({0: tuple(range(steps + 1))})
    out = schedule(g, h, system)
    assert len(out) == 2 * steps
    assert list(out) == [x for c in range(1, steps + 1) for x in (0, c)]
    assert sys.getsizeof(out) == sys.getsizeof(array(out.typecode, [0]) * len(out))


def _schedule_peak(inst):
    """The tracemalloc peak of one schedule of inst's system, in MiB, with
    the system and the scheduler's lists made beforehand, and its outcome."""
    scratch = Scratch(inst.g.n)
    system = find_valid_base_walk(inst.g, inst.h, inst.phi, inst.psi, bfs_tree(inst.g, 0), scratch)
    scratch.scheduler_lists()
    tracemalloc.start()
    try:
        out = schedule(inst.g, inst.h, system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, out


def test_schedule_memory_of_the_100k_tight_rotation():
    # the rotation deadlocks before any move, so the witness array, made at
    # the first move, is never made: the peak is 1.66 MiB (made once the
    # queue is seeded, the array took it to 2.42)
    peak, out = _schedule_peak(tight_rotation(100_000))
    assert isinstance(out, CycleWitness)
    assert peak <= 2.0, peak


def test_schedule_memory_of_the_100k_wrap():
    # at shift n // 2 the family's fewest-move system has 200,000 moves (at
    # shift 40, 160); they go straight into one exact array of 1.53 MiB,
    # and the peak is 1.54 MiB.  Made once the queue is seeded, the array
    # sits beside the whole work list and takes it to 1.92 (at shift 40
    # before the descent, 399,840 moves: 3.06, and 3.84 so made)
    n = 100_000
    peak, out = _schedule_peak(make_cycle_wrap(n, 4, n // 2))
    assert len(out) == 2 * 200_000
    assert peak <= 1.75, peak


def test_schedule_of_constant_walks_is_empty():
    g = Graph(3, [(0, 1), (1, 2)], reflexive=True)
    system = system_of({0: (0,), 1: (1,), 2: (2,)})
    assert list(schedule(g, path_graph(3), system)) == []


def test_waits_for_lowest_unfinished_vertex():
    # 3 must leave colour 1 for 2 while 1 and 2 still have to reach 1 from 0;
    # 0 sits at 0 too, but it is finished, so 3 does not wait for it
    g = Graph(4, [(3, 0), (3, 1), (3, 2)], reflexive=True)
    h = path_graph(3)
    system = system_of({0: (0,), 1: (0, 1), 2: (0, 1), 3: (1, 2)})
    assert _start_arcs(g, h, system) == [(3, 1)]


def test_no_arcs_when_all_constant():
    g = Graph(2, [(0, 1)], reflexive=True)
    h = path_graph(3)
    system = system_of({0: (0,), 1: (1,)})
    assert _start_arcs(g, h, system) == []
    assert list(schedule(g, h, system)) == []


def test_rotation_deadlocks_with_tight_pentagon():
    system = generate_system(C5, C5, ID5, ROT5, bfs_tree(C5, 0), (0, 1), Scratch(5))
    assert isinstance(system, WalkSystem)
    assert _start_arcs(C5, C5, system) == [(u, (u - 1) % 5) for u in range(5)]
    out = schedule(C5, C5, system)
    assert isinstance(out, CycleWitness)
    assert out.cycle == (0, 4, 3, 2, 1, 0)
    assert is_cyclically_reduced(tuple(ID5[x] for x in out.cycle))
    # oracle: the rotation really is unreachable (component has 3125 potential states)
    assert hom_graph_bfs(C5, C5, ID5, ROT5, max_states=5**5) is Answer.NO


def test_a_system_runs_in_the_scratch_that_holds_its_bounds():
    # the system carries the scratch it was generated in, and the scheduler
    # takes no other: its lists are made there, and the rotation leaves
    # every vertex frozen at its first colour, one step from its end
    scratch = Scratch(5)
    system = generate_system(C5, C5, ID5, ROT5, bfs_tree(C5, 0), (0, 1), scratch)
    assert WalkSystem._fields == ("order", "flat", "scratch")
    assert system.scratch is scratch and scratch.left is None
    assert isinstance(schedule(C5, C5, system), CycleWitness)
    assert scratch.left == [1] * 5 and scratch.cur == list(ID5)


def test_extract_tight_cycle_rejects_a_moved_vertex():
    # every vertex one step from the end of its walk, all waiting round the
    # pentagon; vertex 2 has taken one step of (1, 2, 3), so the cycle is
    # tight under the colours now but not frozen, and extraction refuses it
    walks = {0: (0, 1), 1: (1, 2), 2: (1, 2, 3), 3: (3, 4), 4: (4, 0)}
    with pytest.raises(InternalError, match="vertex 2 has moved"):
        _extract_tight_cycle(C5, C5, _one_step_left(walks), 0)
    walks[2] = (2, 3)
    system = _one_step_left(walks)
    assert _extract_tight_cycle(C5, C5, system, 0) == CycleWitness(cycle=(0, 4, 3, 2, 1, 0))
    # the marks of the visited vertices are cleared again
    assert system.scratch.queued == bytearray(5)


def _one_step_left(walks):
    """The system of walks, every vertex one step from its end in its scratch."""
    system = system_of(walks)
    left, cur = system.scratch.scheduler_lists()
    for v, w in walks.items():
        left[v] = 1
        cur[v] = w[-2]
    return system


def _replay(g, h, phi, psi, moves):
    cur = list(phi)
    for v, c in pairs(moves):
        before = tuple(cur)
        cur[v] = c
        assert is_homomorphism(g, h, cur)
        assert hom_adjacent(g, h, before, tuple(cur))
    assert tuple(cur) == tuple(psi)


def test_cycle_wrap_schedule_replays():
    inst = make_cycle_wrap(13, 4, 1)
    scratch = Scratch(inst.g.n)
    search = find_valid_base_walk(inst.g, inst.h, inst.phi, inst.psi, bfs_tree(inst.g, 0), scratch)
    assert isinstance(search, WalkSystem)
    out = schedule(inst.g, inst.h, search)
    assert isinstance(out, array)
    assert len(out) == 2 * sum(len(w) - 1 for w in walks_of(search).values())
    _replay(inst.g, inst.h, inst.phi, inst.psi, out)


def test_schedule_order_independent():
    rng = random.Random(42)
    outcomes = 0
    for _ in range(80):
        h = cycle_graph(rng.randrange(4, 7))
        g = random_graph(rng, rng.randrange(2, 7), 0.5)
        phi = random_hom(rng, g, h)
        psi = random_walk_hom(rng, g, h, phi, rng.randrange(0, 10))
        scratch = Scratch(g.n)
        search = find_valid_base_walk(g, h, phi, psi, bfs_tree(g, 0), scratch)
        if not isinstance(search, WalkSystem):
            continue
        base = schedule(g, h, search)
        for _ in range(3):
            order = sorted(search.order)
            rng.shuffle(order)
            alt = brute_schedule(g, h, search, order=order)
            assert isinstance(alt, list) == isinstance(base, array)
            if isinstance(alt, list):
                _replay(g, h, phi, _apply(g, phi, alt), alt)
                assert _apply(g, phi, alt) == _apply(g, phi, base)
        outcomes += 1
    assert outcomes > 25


def _apply(g, phi, moves):
    cur = list(phi)
    for v, c in pairs(moves):
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
        scratch = Scratch(g.n)
        search = find_valid_base_walk(g, h, phi, psi, bfs_tree(g, 0), scratch)
        if not isinstance(search, WalkSystem):
            continue
        out = schedule(g, h, search)
        if isinstance(out, CycleWitness):
            assert is_cyclically_reduced(tuple(phi[x] for x in out.cycle))
            assert set(out.cycle) <= tight_vertices(g, h, phi)
            seen += 1
    assert seen > 5


def _reference_cycle(g, h, system, left):
    """The cycle reference.waits_for closes from the lowest unfinished vertex."""
    chain = [min(v for v in system.order if left[v])]
    while True:
        v = waits_for(g, h, system, left, chain[-1])
        assert v is not None
        if v in chain:
            return tuple(chain[chain.index(v) :]) + (v,)
        chain.append(v)


def test_deadlock_scan_closes_the_reference_waits_for_cycle():
    # the scan applies the waits-for rule in place, reading colours from the
    # scheduler's cur; reference.waits_for reads them from the system's flat
    # walks, one call per vertex.  On the state a deadlock leaves, both
    # close the same cycle.
    rng = random.Random(46)
    cases = [tight_rotation(9), make_locked_link(), make_twisted_loop()]
    for _ in range(300):
        cases.append(random_instance(rng, rng.randrange(2, 9), rng.randrange(4, 9)))
    for _ in range(300):
        k = rng.randrange(4, 7)
        g = cycle_graph(rng.randrange(k, 10))
        wraps = (g.n // k) * k
        phi = tuple(i % k if i < wraps else 0 for i in range(g.n))
        shift = rng.randrange(g.n)
        psi = tuple(phi[(i - shift) % g.n] for i in range(g.n))
        cases.append(Instance(g=g, h=cycle_graph(k), phi=phi, psi=psi))
    seen = 0
    for inst in cases:
        g, h = inst.g, inst.h
        for comp in connected_components(g):
            scratch = Scratch(g.n)
            system = find_valid_base_walk(g, h, inst.phi, inst.psi, bfs_tree(g, comp[0]), scratch)
            if not isinstance(system, WalkSystem):
                continue
            out = schedule(g, h, system)
            if isinstance(out, CycleWitness):
                assert out.cycle == _reference_cycle(g, h, system, scratch.left)
                seen += 1
    assert seen > 50, seen


def test_deadlock_scan_applies_the_reference_rule_on_any_state():
    # arbitrary walks and progress, where a vertex often has several
    # neighbours whose next colour is its own, clashing or not: the scan
    # must follow reference.waits_for arc by arc, and refuse what it closes
    # for the reason the reference cycle gives
    rng = random.Random(47)
    outcomes = {"cycle": 0, "no arc": 0, "moved": 0, "not tight": 0}
    for _ in range(6000):
        k = rng.randrange(4, 7)
        # few colours clash on a cycle host, all but equal ones on a host
        # of loops alone
        h = cycle_graph(k) if rng.random() < 0.5 else Graph(k, [], reflexive=True)
        g = random_graph(rng, rng.randrange(2, 8), 0.7)
        colour = [rng.randrange(k) for _ in range(g.n)]
        walks, left = {}, [0] * g.n
        for v in range(g.n):
            # v at its colour, mostly still at the start of its walk, and
            # mostly with one step to go, often to a neighbour's colour: the
            # scan reads colours only, so a step need not be an edge of h,
            # and a repeat, which no reduced walk has, makes a cycle that
            # is not tight
            c = colour[v]
            others = [colour[u] for u in g.adj[v] if colour[u] != c]
            nxt = rng.choice(others) if others and rng.random() < 0.8 else (c + 1) % k
            if rng.random() < 0.1:
                nxt = c
            ahead = (nxt,) if rng.random() < 0.9 else ()
            behind = ((c + 1) % k,) if rng.random() < 0.1 else ()
            walks[v] = behind + (c,) + ahead
            left[v] = len(ahead)
        system = system_of(walks)
        scratch = system.scratch
        scratch.left, scratch.cur = left, colour  # the scheduler's state
        unfinished = [v for v in range(g.n) if scratch.left[v]]
        if not unfinished:
            continue
        first = rng.choice(unfinished)
        chain = [first]
        while (v := waits_for(g, h, system, scratch.left, chain[-1])) is not None and v not in chain:
            chain.append(v)
        try:
            out = _extract_tight_cycle(g, h, system, first)
        except InternalError as exc:
            out = str(exc)
        assert scratch.queued == bytearray(g.n)
        if v is None:
            assert "without a blocking arc" in out
            outcomes["no arc"] += 1
            continue
        cycle = tuple(chain[chain.index(v) :]) + (v,)
        if any(scratch.left[x] != len(walks[x]) - 1 for x in cycle):
            assert "has moved" in out
            outcomes["moved"] += 1
        elif not is_cyclically_reduced(tuple(walks[x][0] for x in cycle)):
            assert "not tight" in out
            outcomes["not tight"] += 1
        else:
            assert out == CycleWitness(cycle=cycle)
            outcomes["cycle"] += 1
    assert min(outcomes.values()) >= 8, outcomes


def _assert_same_outcome(g, h, system):
    out = schedule(g, h, system)
    assert listed(out) == brute_schedule(g, h, system)
    return out


def test_schedule_matches_reference_on_random_instances():
    rng = random.Random(44)
    kinds = {"moves": 0, "deadlock": 0}
    for _ in range(300):
        inst = random_instance(rng, rng.randrange(2, 9), rng.randrange(4, 9))
        for comp in connected_components(inst.g):
            search = find_valid_base_walk(
                inst.g, inst.h, inst.phi, inst.psi, bfs_tree(inst.g, comp[0]), Scratch(inst.g.n)
            )
            if not isinstance(search, WalkSystem):
                continue
            out = _assert_same_outcome(inst.g, inst.h, search)
            kinds["moves" if isinstance(out, array) else "deadlock"] += 1
            order = list(comp)
            rng.shuffle(order)
            # the reference in a shuffled order: the same outcome kind and,
            # when every walk is run, the same final colouring
            alt = brute_schedule(inst.g, inst.h, search, order=order)
            assert isinstance(alt, list) == isinstance(out, array)
            if isinstance(out, array):
                assert _apply(inst.g, inst.phi, alt) == _apply(inst.g, inst.phi, out)
    assert kinds["moves"] > 100 and kinds["deadlock"] > 0


def test_schedule_matches_reference_on_wrap():
    inst = make_cycle_wrap(2000, 4, 40)
    search = find_valid_base_walk(
        inst.g, inst.h, inst.phi, inst.psi, bfs_tree(inst.g, 0), Scratch(inst.g.n)
    )
    out = _assert_same_outcome(inst.g, inst.h, search)
    assert len(out) == 2 * sum(len(w) - 1 for w in walks_of(search).values())


def test_schedule_matches_reference_on_deadlocks():
    system = generate_system(C5, C5, ID5, ROT5, bfs_tree(C5, 0), (0, 1), Scratch(5))
    assert isinstance(_assert_same_outcome(C5, C5, system), CycleWitness)
    # both the first system and the constant-walk retry of the locked link deadlock
    inst = make_locked_link()
    scratch = Scratch(inst.g.n)
    search = find_valid_base_walk(inst.g, inst.h, inst.phi, inst.psi, bfs_tree(inst.g, 0), scratch)
    out = _assert_same_outcome(inst.g, inst.h, search)
    assert isinstance(out, CycleWitness)
    root = min(out.cycle)
    retry = generate_system(
        inst.g, inst.h, inst.phi, inst.psi, bfs_tree(inst.g, root), (inst.phi[root],), scratch
    )
    assert isinstance(_assert_same_outcome(inst.g, inst.h, retry), CycleWitness)


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
            system = generate_system(g, h, phi, psi, bfs_tree(g, comp[0]), w0, scratch=scratch)
            assert walks_of(system) == walks_of(brute_generate_system(g, h, phi, psi, comp[0], w0))
            if isinstance(system, WalkSystem):
                # the second run starts on the arrays the first one left behind
                for _ in range(2):
                    out = schedule(g, h, system)
                    assert listed(out) == brute_schedule(g, h, system)
                    runs += 1
    assert runs > 200


@pytest.mark.parametrize(
    "make, calls, checks, outcome",
    [
        # a failing candidate's lifts, then the valid one's, then a failing one's
        (make_double_turn, ["find", "schedule"], "FFFFFTF", "yes"),
        # the retry's lifts are written over the bounds of a deadlocked system
        (make_locked_link, ["find", "schedule", "generate", "schedule"], "TT", "unrealizable"),
        (make_twisted_loop, ["find", "schedule", "generate"], "FFTFF", "unrealizable"),
    ],
)
def test_shared_scratch_on_the_solvers_paths(monkeypatch, make, calls, checks, outcome):
    # every call the solver makes in its one Scratch must give what the
    # same call gives in a fresh one, and what the reference gives
    inst = make()
    n = inst.g.n
    seen, checked = [], []
    real_failing_cycle = systems._failing_cycle
    real_find, real_generate = solver.find_valid_base_walk, solver.generate_system

    def failing_cycle(*args):
        out = real_failing_cycle(*args)
        checked.append((args[-1], "FT"[not isinstance(out, CycleWitness)]))
        return out

    def find(g, h, phi, psi, tree, scratch):
        out = real_find(g, h, phi, psi, tree, scratch)
        seen.append("find")
        assert isinstance(out, WalkSystem)
        root = tree[0][0]
        walks = walks_of(out)
        assert walks == walks_of(real_find(g, h, phi, psi, tree, Scratch(n)))
        assert walks == walks_of(brute_generate_system(g, h, phi, psi, root, walks[root]))
        return out

    def generate(g, h, phi, psi, tree, w_root, scratch):
        out = real_generate(g, h, phi, psi, tree, w_root, scratch)
        seen.append("generate")
        walks = walks_of(out)
        assert walks == walks_of(real_generate(g, h, phi, psi, tree, w_root, Scratch(n)))
        assert walks == walks_of(brute_generate_system(g, h, phi, psi, tree[0][0], w_root))
        return out

    def run(g, h, system):
        out = schedule(g, h, system)
        seen.append("schedule")
        # the same bounds in a fresh scratch, with none of the used one's
        # scheduler state
        fresh = Scratch(n)
        for v in system.order:
            fresh.start[v], fresh.end[v] = system.scratch.start[v], system.scratch.end[v]
        assert out == schedule(g, h, system._replace(scratch=fresh))
        assert listed(out) == brute_schedule(g, h, system)
        return out

    monkeypatch.setattr(systems, "_failing_cycle", failing_cycle)
    monkeypatch.setattr(solver, "find_valid_base_walk", find)
    monkeypatch.setattr(solver, "generate_system", generate)
    monkeypatch.setattr(solver, "schedule", run)
    verdict = solver.solve(inst)
    assert seen == calls
    # each system checked in the solver's scratch, the first one used
    assert "".join(c for scratch, c in checked if scratch is checked[0][0]) == checks
    assert (verdict.answer if verdict.yes else verdict.obstruction.kind) == outcome


def test_system_checks_leave_the_schedulers_arrays_alone():
    # the cover lifts live in start and end, which generate_system owns:
    # checking a system, failing or valid, makes no scheduler list in a
    # fresh scratch, and writes nothing into left, cur or queued, whatever
    # the scheduler left there
    def run(inst, check):
        tree = bfs_tree(inst.g, 0)
        fresh = Scratch(inst.g.n)
        out = check(inst.g, inst.h, inst.phi, inst.psi, tree, fresh)
        assert fresh.left is None and fresh.cur is None
        scratch = Scratch(inst.g.n)
        left, cur = scratch.scheduler_lists()
        left[:] = range(7, 7 + inst.g.n)
        cur[:] = range(-1, -1 - inst.g.n, -1)
        before = list(left), list(cur), bytes(scratch.queued)
        assert type(check(inst.g, inst.h, inst.phi, inst.psi, tree, scratch)) is type(out)
        assert scratch.left is left and scratch.cur is cur
        assert (list(left), list(cur), bytes(scratch.queued)) == before
        return out

    # the shortest walk and every candidate of the first family fail, then
    # one of the second family is valid
    assert isinstance(run(make_double_turn(), find_valid_base_walk), WalkSystem)
    # the twisted loop's retry, from the constant walk at its tight cycle
    inst = make_twisted_loop()
    obstruction = solve(inst).obstruction
    assert obstruction.kind == "unrealizable"
    chain = tree_path(bfs_tree(inst.g, 0)[1], obstruction.vertex)
    phi, psi = inst.phi, inst.psi
    w_root = reduce_walk(tuple(phi[x] for x in reversed(chain)) + tuple(psi[x] for x in chain))
    retry = run(
        inst, lambda g, h, phi, psi, tree, scratch: generate_system(g, h, phi, psi, tree, w_root, scratch)
    )
    assert isinstance(retry, CycleWitness)

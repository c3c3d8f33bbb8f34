import random
import tracemalloc

import pytest

from conftest import (
    benchmark_workloads,
    brute_generate_system,
    mirrored_wrap,
    random_walk,
    small_hosts,
    tight_rotation,
    walks_of,
)
from homrecol.errors import InternalError
from homrecol.families import (
    cycle_graph,
    make_cycle_wrap,
    random_graph,
    random_hom,
    random_instance,
    random_walk_hom,
    two_squares_shared,
)
from homrecol.graphs import Scratch, bfs_tree, shortest_walk, tree_path
from homrecol.oracle import Answer, hom_graph_bfs
from homrecol.systems import (
    CLASS_MISMATCH,
    NO_VALID_WALK,
    CycleWitness,
    Obstruction,
    WalkSystem,
    _candidate_family,
    _Cover,
    edge_preserved,
    find_valid_base_walk,
    generate_system,
)
from homrecol.walks import reduce_walk, reverse
from reference import basepoint_change, bfs_tree_by, connected_components, reduce_via_cover

C5 = cycle_graph(5)
ID5 = (0, 1, 2, 3, 4)
ROT5 = (1, 2, 3, 4, 0)


def test_edge_preserved_identity_constant():
    for u in range(5):
        v = (u + 1) % 5
        assert edge_preserved(ID5, ID5, u, v, (u,), (v,))


def test_edge_preserved_rotation_system():
    walks = {v: (v, (v + 1) % 5) for v in range(5)}
    for u in range(5):
        v = (u + 1) % 5
        assert edge_preserved(ID5, ROT5, u, v, walks[u], walks[v])
        # cross-check: the closed walk form is contractible (cover oracle)
        closed = (ID5[u],) + walks[v] + (ROT5[u],) + reverse(walks[u])
        assert len(reduce_via_cover(C5, closed)) == 1


def test_edge_preserved_detects_mismatch():
    assert not edge_preserved(ID5, ROT5, 0, 1, (0, 4), (1, 2))


def test_generate_system_identity():
    out = generate_system(C5, C5, ID5, ID5, bfs_tree(C5, 0), (0,), Scratch(5))
    assert isinstance(out, WalkSystem)
    assert all(w == (v,) for v, w in walks_of(out).items())


def test_generate_system_rotation():
    out = generate_system(C5, C5, ID5, ROT5, bfs_tree(C5, 0), (0, 1), Scratch(5))
    assert isinstance(out, WalkSystem)
    assert walks_of(out) == {v: (v, (v + 1) % 5) for v in range(5)}


def test_generate_system_requires_reduced_base():
    with pytest.raises(InternalError):
        generate_system(C5, C5, ID5, ID5, bfs_tree(C5, 0), (0, 1, 0), Scratch(5))


def test_generate_system_witness_for_incompatible_wraps():
    h = two_squares_shared()
    phi = (0, 1, 2, 3, 0)
    psi = (0, 4, 5, 6, 0)
    out = generate_system(C5, h, phi, psi, bfs_tree(C5, 0), (0,), Scratch(5))
    assert isinstance(out, CycleWitness)
    assert out.cycle == (0, 1, 2, 3, 4, 0)
    # the witness genuinely fails: its image classes differ under conjugation
    img_phi = reduce_walk(tuple(phi[x] for x in out.cycle))
    img_psi = reduce_walk(tuple(psi[x] for x in out.cycle))
    assert img_phi != reduce_walk(basepoint_change((0,), img_psi))
    # oracle: the two wraps really are in different move-graph components
    assert hom_graph_bfs(C5, h, phi, psi, max_states=20_000) is Answer.NO


def _base_walks(rng, g, h, phi, psi, root):
    """The shortest base walk, the candidates its witness pins down, and two
    random reduced detours between the same colours."""
    w0 = shortest_walk(h, phi[root], psi[root])
    if w0 is None:
        return []
    walks = [w0]
    first = brute_generate_system(g, h, phi, psi, root, w0)
    if isinstance(first, CycleWitness):
        candidates = _candidate_family(phi, psi, first.cycle)
        if not isinstance(candidates, Obstruction):
            walks.extend(candidates)
    for _ in range(2):
        detour = random_walk(rng, h, rng.randrange(0, 15), start=phi[root])
        walks.append(reduce_walk(detour + shortest_walk(h, detour[-1], psi[root])[1:]))
    return walks


def test_generate_system_matches_reference():
    # both directions, so that phi as well as psi may be the map that winds
    rng = random.Random(36)
    kinds = {WalkSystem: 0, CycleWitness: 0}
    for i in range(300):
        inst = random_instance(rng, 2 + i % 30, 4 + i % 9)
        g, h = inst.g, inst.h
        root = rng.randrange(g.n)
        for phi, psi in ((inst.phi, inst.psi), (inst.psi, inst.phi)):
            for w in _base_walks(rng, g, h, phi, psi, root):
                order = list(range(g.n))
                rng.shuffle(order)
                for key in (None, order):
                    tree = bfs_tree(g, root) if key is None else bfs_tree_by(g, root, key)
                    out = generate_system(g, h, phi, psi, tree, w, Scratch(g.n))
                    ref = brute_generate_system(g, h, phi, psi, root, w, key)
                    assert walks_of(out) == walks_of(ref), (i, w, key)
                    kinds[type(out)] += 1
    assert min(kinds.values()) > 500, kinds


def test_generate_system_mirrored_wrap_is_linear():
    # the mirrored wrap's walks grow by two vertices per BFS level, so
    # building them all before the edge check needs about 260 MB here
    n = 8000
    wrap = make_cycle_wrap(n, 4, 0)
    psi = tuple(wrap.phi[(-i) % n] for i in range(n))
    w0 = shortest_walk(wrap.h, wrap.phi[0], psi[0])
    tracemalloc.start()
    try:
        out = generate_system(
            wrap.g, wrap.h, wrap.phi, psi, bfs_tree(wrap.g, 0), w0, Scratch(wrap.g.n)
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(out, CycleWitness)
    assert peak < 32 * 2**20


def _root_path(cover, x):
    """The walk of cover node x: the labels from the base node 0 down to x."""
    path = [cover.label[x]]
    while x:
        x = cover.up[x]
        path.append(cover.label[x])
    return tuple(reversed(path))


def _cover_instances():
    rng = random.Random(38)
    for i in range(200):
        yield random_instance(rng, 2 + i % 20, 4 + i % 9)
    yield tight_rotation(2000)
    yield mirrored_wrap(2000)


def test_cover_ids_lifts_and_meets():
    # a cover node is numbered after its parent, and walk() finds the meet of
    # two nodes by stepping the larger id up: check the lifts against walks
    # reduced down the BFS tree, and node pairs against their root paths
    rng = random.Random(39)
    lifted = pairs = seconds = 0
    for inst in _cover_instances():
        g, h, phi, psi = inst.g, inst.h, inst.phi, inst.psi
        for comp in connected_components(g):
            order, parent = bfs_tree(g, comp[0])
            w_root = shortest_walk(h, phi[comp[0]], psi[comp[0]])
            if w_root is None:
                continue
            cover = _Cover(h.n, w_root)
            lo, hi = [0] * g.n, [0] * g.n
            cover.lift(order, parent, phi, psi, lo, hi, len(w_root) - 1)
            up, label = cover.up, cover.label
            assert all(up[i] < i for i in range(1, len(up)))
            # a trie: no node has two children of one colour, and each
            # child is found from its parent, as the first or a later one
            assert len({(up[i], label[i]) for i in range(1, len(up))}) == len(up) - 1
            for i in range(1, len(up)):
                x = up[i]
                assert cover.kid[x] == i or cover.more[x * h.n + label[i]] == i
            seconds += len(cover.more)
            walks = {order[0]: w_root}
            for v in order[1:]:
                walks[v] = reduce_walk((phi[v],) + walks[parent[v]] + (psi[v],))
            for v in order:
                assert cover.walk(lo[v], hi[v]) == walks[v], v
            for _ in range(50):
                a, b = rng.randrange(len(up)), rng.randrange(len(up))
                path = reduce_walk(reverse(_root_path(cover, a)) + _root_path(cover, b)[1:])
                assert cover.walk(a, b) == path, (a, b)
                pairs += a != b
            lifted += 1
    assert lifted > 200 and pairs > 5000 and seconds > 100, (lifted, pairs, seconds)


def test_walk_carried_to_the_root_generates_the_same_system():
    # a valid system is fixed by any one vertex's walk, so v's shortest walk
    # carried up to the component root gives the system generated from v
    # along v's own tree, or both fail; this is what lets the constant-walk
    # retry reuse the component's tree
    random_tf_instance = benchmark_workloads().random_tf_instance
    rng = random.Random(37)
    kinds = {WalkSystem: 0, CycleWitness: 0}
    for i in range(300):
        make = random_instance if i % 2 else random_tf_instance
        inst = make(rng, 2 + i % 14, 4 + i % 9)
        g, h, phi, psi = inst.g, inst.h, inst.phi, inst.psi
        for v in range(g.n):
            w = shortest_walk(h, phi[v], psi[v])
            if w is None:
                continue
            own_tree = bfs_tree(g, v)
            own = generate_system(g, h, phi, psi, own_tree, w, Scratch(g.n))
            tree = bfs_tree(g, min(own_tree[0]))
            up = tree_path(tree[1], v)[1:]
            # one reduction of the whole detour, as the retry computes it
            w_root = reduce_walk(tuple(phi[x] for x in reversed(up)) + w + tuple(psi[x] for x in up))
            ref = w
            for x in up:
                ref = reduce_walk((phi[x],) + ref + (psi[x],))
            assert w_root == ref
            carried = generate_system(g, h, phi, psi, tree, w_root, Scratch(g.n))
            assert type(carried) is type(own), (i, v)
            if isinstance(own, WalkSystem):
                assert walks_of(carried) == walks_of(own), (i, v)
            kinds[type(own)] += 1
    assert min(kinds.values()) > 300, kinds


def _random_valid_instance(rng):
    h = rng.choice(small_hosts(6))
    g = random_graph(rng, rng.randrange(1, 7), 0.6)
    phi = random_hom(rng, g, h)
    psi = random_walk_hom(rng, g, h, phi, rng.randrange(0, 12))
    return g, h, phi, psi


def test_system_uniqueness_under_tie_breaks():
    rng = random.Random(31)
    found = 0
    for _ in range(120):
        g, h, phi, psi = _random_valid_instance(rng)
        comp0 = sorted(bfs_tree(g, 0)[0])
        if len(comp0) < 2:
            continue
        search = find_valid_base_walk(g, h, phi, psi, bfs_tree(g, 0), Scratch(g.n))
        if not isinstance(search, WalkSystem):
            continue
        order = list(range(g.n))
        rng.shuffle(order)
        tree = bfs_tree_by(g, 0, order)
        alt = generate_system(g, h, phi, psi, tree, walks_of(search)[0], Scratch(g.n))
        assert isinstance(alt, WalkSystem)
        assert walks_of(alt) == walks_of(search)
        found += 1
    assert found > 20


def test_system_soundness_on_random_closed_walks():
    rng = random.Random(32)
    for _ in range(15):
        g, h, phi, psi = _random_valid_instance(rng)
        search = find_valid_base_walk(g, h, phi, psi, bfs_tree(g, 0), Scratch(g.n))
        if not isinstance(search, WalkSystem):
            continue
        walks = walks_of(search)
        comp = sorted(walks)
        for _ in range(200):
            w = random_walk(rng, g, rng.randrange(0, 12), start=comp[rng.randrange(len(comp))])
            back = shortest_walk(g, w[-1], w[0])
            cyc = w + back[1:]
            img_phi = tuple(phi[x] for x in cyc)
            img_psi = tuple(psi[x] for x in cyc)
            lhs = reduce_walk(img_phi)
            rhs = reduce_walk(basepoint_change(walks[cyc[0]], reduce_walk(img_psi)))
            assert lhs == rhs


def _staggered_pair(wu, wv):
    """The walks agree under one fixed shift of -1, 0 or 1 steps, with each
    walk's final entry free to deviate (it absorbs the endpoint colours)."""
    for s in (-1, 0, 1):
        if all(
            wu[i] == wv[i + s]
            for i in range(len(wu) - 1)
            if 0 <= i + s < len(wv) - 1
        ):
            return True
    return False


def test_system_staggering():
    # along every edge, one endpoint's walk is the other's shifted by one step
    rng = random.Random(33)
    checked = 0
    for _ in range(60):
        g, h, phi, psi = _random_valid_instance(rng)
        search = find_valid_base_walk(g, h, phi, psi, bfs_tree(g, 0), Scratch(g.n))
        if not isinstance(search, WalkSystem):
            continue
        walks = walks_of(search)
        for u in walks:
            for v in g.adj[u]:
                if v <= u or v not in walks:
                    continue
                assert _staggered_pair(walks[u], walks[v]), (walks[u], walks[v])
                checked += 1
    assert checked > 50


def test_find_base_walk_trivial():
    search = find_valid_base_walk(C5, C5, ID5, ID5, bfs_tree(C5, 0), Scratch(5))
    assert walks_of(search)[0] == (0,)


def test_find_base_walk_rotation():
    search = find_valid_base_walk(C5, C5, ID5, ROT5, bfs_tree(C5, 0), Scratch(5))
    assert walks_of(search)[0] == (0, 1)


def test_find_base_walk_class_mismatch():
    h = two_squares_shared()
    phi, psi = (0, 1, 2, 3, 0), (0, 4, 5, 6, 0)
    search = find_valid_base_walk(C5, h, phi, psi, bfs_tree(C5, 0), Scratch(5))
    assert isinstance(search, Obstruction)
    assert search.kind == CLASS_MISMATCH
    assert search.cores == ((0, 1, 2, 3), (0, 4, 5, 6))
    # the candidate step returns the obstruction whole, and the search passes it on
    assert _candidate_family(phi, psi, search.cycle) == search


def test_find_base_walk_separated_endpoints():
    from homrecol.graphs import Graph

    h = Graph(4, [(0, 1), (2, 3)], reflexive=True)
    g = Graph(1, [], reflexive=True)
    search = find_valid_base_walk(g, h, (0,), (3,), bfs_tree(g, 0), Scratch(g.n))
    assert search == Obstruction(kind=NO_VALID_WALK, cycle=(0,))


def test_find_base_walk_second_witness_family():
    # the only valid walk turns twice around a square, which the first
    # witness's single-turn candidates miss; the second witness supplies it
    from homrecol.families import make_double_turn

    inst = make_double_turn()
    target = (0, 1, 2, 3, 0, 1, 2, 3, 0, 6, 5, 4, 0)
    tree = bfs_tree(inst.g, 0)
    w0 = shortest_walk(inst.h, 0, 0)
    first = generate_system(inst.g, inst.h, inst.phi, inst.psi, tree, w0, Scratch(inst.g.n))
    assert isinstance(first, CycleWitness)
    cands = _candidate_family(inst.phi, inst.psi, first.cycle)
    assert target not in cands
    search = find_valid_base_walk(inst.g, inst.h, inst.phi, inst.psi, tree, Scratch(inst.g.n))
    assert walks_of(search)[0] == target


def test_find_base_walk_complete_vs_oracle():
    # whenever the move graph connects the maps, a valid base walk must exist
    rng = random.Random(34)
    agree = 0
    for _ in range(150):
        h = rng.choice(small_hosts(6))
        g = random_graph(rng, rng.randrange(1, 7), 0.55)
        phi = random_hom(rng, g, h)
        psi = random_walk_hom(rng, g, h, phi, rng.randrange(0, 12))
        comp = sorted(bfs_tree(g, 0)[0])
        sub_psi = list(phi)
        for v in comp:
            sub_psi[v] = psi[v]  # stay inside vertex 0's component
        sub_psi = tuple(sub_psi)
        if hom_graph_bfs(g, h, phi, sub_psi, max_states=300_000) is Answer.YES:
            search = find_valid_base_walk(g, h, phi, sub_psi, bfs_tree(g, 0), Scratch(g.n))
            assert isinstance(search, WalkSystem)
            agree += 1
    assert agree > 40


def test_walk_length_bound():
    # valid systems stay short: base walk plus two per tree level
    rng = random.Random(35)
    for _ in range(80):
        g, h, phi, psi = _random_valid_instance(rng)
        search = find_valid_base_walk(g, h, phi, psi, bfs_tree(g, 0), Scratch(g.n))
        if not isinstance(search, WalkSystem):
            continue
        bound = max(4 * g.n, (h.n - 1) + 2 * (g.n - 1))
        assert all(len(w) - 1 <= bound for w in walks_of(search).values())

import random
import tracemalloc

import pytest

from conftest import brute_has_square, brute_has_triangle, small_hosts
from homrecol.errors import InvalidInputError
from homrecol.families import cycle_graph, path_graph, random_graph, random_hom, star_graph
from homrecol import graphs
from homrecol.graphs import (
    Graph,
    bfs_tree,
    component_trees,
    is_homomorphism,
    shortest_walk,
    validate_host,
)
from homrecol.jsonio import dumps, graph_from_dict, loads
from reference import bfs_tree_by, connected_components, hom_adjacent, set_rows


def test_loops_live_in_adjacency():
    g = Graph(3, [(0, 1), (1, 1)])
    assert [v for v in range(3) if g.adjacent(v, v)] == [1]
    assert not g.is_reflexive()
    assert g.adjacent(1, 1) and not g.adjacent(0, 0)
    assert g.adj[1] == (0, 1)


def test_reflexive_flag_adds_all_loops():
    g = Graph(4, [(0, 1)], reflexive=True)
    assert all(g.adjacent(v, v) for v in range(4))
    assert g.is_reflexive()


def test_edge_out_of_range_rejected():
    with pytest.raises(InvalidInputError):
        Graph(2, [(0, 2)])


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (2, [(0, 1.0)], "edges[0] must be a pair of integers"),
        (2, [(0, 1), (0, 1, 2)], "edges[1] must be a pair of integers"),
        (2, [[0, 1], [1]], "edges[1] must be a pair of integers"),
        (2, [0], "edges[0] must be a pair of integers"),
        (2, [(0, True)], "edges[0] must be a pair of integers"),
        (2, [(1, 1), [0, 1], (2, 0)], "edges[2] out of range"),
        # the endpoints wait in an unsigned array: an endpoint out of range
        # is refused by name before it reaches it, where -1, or 256 in a
        # one-byte array, would raise OverflowError
        (2, [(0, 1), (0, -1)], "edges[1] out of range"),
        (256, [(0, 255), (255, 256)], "edges[1] out of range"),
    ],
    ids=["float", "triple", "single", "bare-int", "bool", "range", "range-negative", "range-256"],
)
def test_graph_names_the_bad_edge(n, edges, message):
    # Graph is the one builder, the parser's included: a float endpoint
    # used to raise TypeError, a triple ValueError, and a bool passed as 1
    with pytest.raises(InvalidInputError) as exc:
        Graph(n, edges)
    assert str(exc.value) == message


def _messy_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random edges with explicit loops, both orientations and repeats."""
    edges = []
    for _ in range(rng.randrange(3 * n + 1) if n else 0):
        u = rng.randrange(n)
        edges.append((u, u) if rng.random() < 0.15 else (u, rng.randrange(n)))
    edges += [(v, u) for u, v in rng.sample(edges, len(edges) // 3)]
    edges += rng.sample(edges, len(edges) // 4)
    rng.shuffle(edges)
    return edges


def test_row_build_matches_set_reference():
    # Graph(...) on tuples and, through the parser, on json's lists, against
    # the set-per-vertex construction; some graphs pass id 256, the last int
    # that Python caches, so the parsed rows must share ids to pass.  The
    # endpoints wait in an array of at least 4 bytes an item; one sized by
    # id_code(n) alone would widen from one byte to two past 256 vertices
    # and to four past 65536, so a graph on each side of both steps has
    # edges at n - 1, the largest id its array must hold
    widths = [255, 256, 257, 65535, 65536, 65537]
    for seed in range(300 + len(widths)):
        rng = random.Random(seed)
        if seed < 300:
            n = rng.randrange(40) if seed % 4 else rng.randrange(257, 400)
            edges = _messy_edges(rng, n)
        else:
            n = widths[seed - 300]
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(200)]
            edges += [(n - 1, n - 1), (0, n - 1), (rng.randrange(n), n - 1)]
            rng.shuffle(edges)
        reflexive = rng.random() < 0.5
        ref = set_rows(n, edges, reflexive)
        looped = all(v in ref[v] for v in range(n))
        doc = loads(dumps({"num_vertices": n, "edges": edges, "reflexive": reflexive}))
        for g in (Graph(n, edges, reflexive), graph_from_dict(doc, "G")):
            assert g.n == n and g.adj == ref, seed
            assert g.is_reflexive() == looped, seed
            assert len({id(x) for row in g.adj for x in row}) == len({x for row in g.adj for x in row})


def test_validate_host_c5():
    report = validate_host(cycle_graph(5))
    assert report.is_reflexive and report.is_triangle_free and report.girth_at_least_5


def test_validate_host_c4_has_square():
    report = validate_host(cycle_graph(4))
    assert report.is_triangle_free and not report.girth_at_least_5


def test_validate_host_triangle():
    k3 = Graph(3, [(0, 1), (1, 2), (0, 2)], reflexive=True)
    assert not validate_host(k3).is_triangle_free


def test_validate_host_matches_brute_force():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 9), rng.uniform(0.1, 0.8))
        report = validate_host(g)
        tri = brute_has_triangle(g)
        assert report.is_triangle_free == (not tri)
        assert report.girth_at_least_5 == (not tri and not brute_has_square(g))


def _reflexive_complete_bipartite(a: int) -> Graph:
    return Graph(2 * a, [(u, a + v) for u in range(a) for v in range(a)], reflexive=True)


def test_validate_host_two_colours_a_bipartite_host(monkeypatch):
    # a host that 2-colours needs no triangle scan: reflexive K_{400,400}
    # took 1.4-1.5 s in the set-intersection scan
    def no_scan(g):
        raise AssertionError("triangle scan run on a bipartite host")

    monkeypatch.setattr(graphs, "_has_triangle", no_scan)
    assert validate_host(_reflexive_complete_bipartite(400)) == (True, True, False)
    assert validate_host(cycle_graph(6)) == (True, True, True)
    assert validate_host(cycle_graph(4, reflexive=False)) == (False, True, False)
    assert validate_host(path_graph(1)) == (True, True, True)


def test_validate_host_scans_hosts_with_an_odd_cycle(monkeypatch):
    scanned = []

    def counted(g):
        scanned.append(g.n)
        return has_triangle(g)

    has_triangle = graphs._has_triangle
    monkeypatch.setattr(graphs, "_has_triangle", counted)
    k3 = Graph(3, [(0, 1), (1, 2), (0, 2)], reflexive=True)
    assert validate_host(cycle_graph(5)) == (True, True, True)
    assert validate_host(cycle_graph(7)) == (True, True, True)
    assert validate_host(k3) == (True, False, False)
    # K_{3,3} and an edge inside one side: triangles, and odd cycles
    k33 = [(u, 3 + v) for u in range(3) for v in range(3)]
    assert validate_host(Graph(6, k33 + [(0, 1)], reflexive=True)) == (True, False, False)
    assert scanned == [5, 7, 3, 6]


def test_validate_host_memory_linear_in_a_star():
    # the square search needs memory linear in n, not quadratic in the
    # largest degree: the centre's 1000 leaves make half a million pairs
    star = star_graph(1000)
    tracemalloc.start()
    try:
        report = validate_host(star)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.girth_at_least_5
    assert peak < 2**20


def test_is_homomorphism_identity_and_constant(c5):
    assert is_homomorphism(c5, c5, (0, 1, 2, 3, 4))
    assert is_homomorphism(c5, c5, (2, 2, 2, 2, 2))


def test_is_homomorphism_non_edge_image(c5):
    assert not is_homomorphism(c5, c5, (0, 2, 3, 4, 0))


def test_is_homomorphism_range_error(c5):
    with pytest.raises(InvalidInputError):
        is_homomorphism(c5, c5, (0, 1, 2, 3, 9))


def test_hom_adjacent_reflexive_self(c5):
    f = (0, 1, 2, 3, 4)
    assert hom_adjacent(c5, c5, f, f)


def test_hom_adjacent_single_move(c5):
    f = (0, 0, 0, 0, 0)
    g1 = (1, 0, 0, 0, 0)  # moved along an edge
    g2 = (2, 0, 0, 0, 0)  # jumped across
    assert hom_adjacent(c5, c5, f, g1)
    assert not hom_adjacent(c5, c5, f, g2)


def test_hom_adjacent_symmetric_random():
    rng = random.Random(11)
    for _ in range(50):
        h = rng.choice(small_hosts(8))
        g = random_graph(rng, rng.randrange(1, 6), 0.5)
        f1, f2 = random_hom(rng, g, h), random_hom(rng, g, h)
        assert hom_adjacent(g, h, f1, f2) == hom_adjacent(g, h, f2, f1)


def test_single_move_soundness():
    # a hom-adjacent map differing on one vertex is again a homomorphism
    rng = random.Random(13)
    checked = 0
    for _ in range(200):
        h = rng.choice(small_hosts(8))
        g = random_graph(rng, rng.randrange(2, 6), 0.6)
        f = list(random_hom(rng, g, h))
        v = rng.randrange(g.n)
        candidate = f.copy()
        candidate[v] = rng.randrange(h.n)
        if candidate[v] == f[v]:
            continue
        if hom_adjacent(g, h, tuple(f), tuple(candidate)):
            assert is_homomorphism(g, h, tuple(candidate))
            checked += 1
    assert checked > 10


def test_components_partition():
    # each component's bfs_tree from its smallest vertex, in root order, over
    # one shared parent list: the same trees as one bfs_tree per component
    g = Graph(5, [(0, 1), (3, 4)], reflexive=True)
    trees = list(component_trees(g))
    assert [order for order, _ in trees] == [[0, 1], [2], [3, 4]]
    assert trees[-1][1] == [0, 0, 2, 3, 3]
    rng = random.Random(9)
    for _ in range(200):
        g = random_graph(rng, rng.randrange(0, 12), rng.uniform(0.0, 0.4))
        comps = connected_components(g)
        trees = list(component_trees(g))
        assert tuple(tuple(sorted(order)) for order, _ in trees) == comps
        for (order, parent), comp in zip(trees, comps):
            own_order, own_parent = bfs_tree(g, comp[0])
            assert order == own_order
            assert all(parent[v] == own_parent[v] for v in comp)


def test_bfs_tree_path():
    g = path_graph(3, reflexive=True)
    order, parent = bfs_tree(g, 0)
    assert order == [0, 1, 2]
    assert parent == [0, 0, 1]


def test_bfs_tree_single_vertex():
    g = Graph(1, [], reflexive=True)
    assert bfs_tree(g, 0) == ([0], [0])
    # vertices outside the root's component keep parent -1
    g = Graph(3, [(1, 2)], reflexive=True)
    assert bfs_tree(g, 1) == ([1, 2], [-1, 1, 1])


def test_bfs_tree_square_tie_break():
    g = cycle_graph(4)
    order, parent = bfs_tree(g, 0)
    assert order == [0, 1, 3, 2]
    assert parent == [0, 0, 1, 0]
    # forcing the opposite preference flips 2's parent
    order2, parent2 = bfs_tree_by(g, 0, [0, 3, 2, 1])
    assert order2 == [0, 3, 1, 2]
    assert parent2 == [0, 0, 3, 0]


def test_shortest_walk_deterministic(c5):
    assert shortest_walk(c5, 0, 2) == (0, 1, 2)
    assert shortest_walk(c5, 0, 0) == (0,)


def test_shortest_walk_separated():
    g = Graph(4, [(0, 1), (2, 3)], reflexive=True)
    assert shortest_walk(g, 0, 3) is None

import random

import pytest

from conftest import brute_has_square, brute_has_triangle, small_hosts
from homrecol.errors import InvalidInputError
from homrecol.families import cycle_graph, path_graph, random_graph, random_hom
from homrecol.graphs import (
    Graph,
    bfs_tree,
    connected_components,
    hom_adjacent,
    is_homomorphism,
    shortest_walk,
    validate_host,
)


def test_loops_live_in_adjacency():
    g = Graph(3, [(0, 1), (1, 1)])
    assert g.loops == frozenset({1})
    assert g.adjacent(1, 1) and not g.adjacent(0, 0)
    assert g.adj[1] == (0, 1)


def test_reflexive_flag_adds_all_loops():
    g = Graph(4, [(0, 1)], reflexive=True)
    assert g.loops == frozenset(range(4))
    assert g.is_reflexive()


def test_edge_out_of_range_rejected():
    with pytest.raises(InvalidInputError):
        Graph(2, [(0, 2)])


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
    g = Graph(5, [(0, 1), (3, 4)], reflexive=True)
    assert connected_components(g) == ((0, 1), (2,), (3, 4))


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
    order2, parent2 = bfs_tree(g, 0, tie_break=[0, 3, 2, 1])
    assert order2 == [0, 3, 1, 2]
    assert parent2 == [0, 0, 3, 0]


def test_shortest_walk_deterministic(c5):
    assert shortest_walk(c5, 0, 2) == (0, 1, 2)
    assert shortest_walk(c5, 0, 0) == (0,)


def test_shortest_walk_separated():
    g = Graph(4, [(0, 1), (2, 3)], reflexive=True)
    assert shortest_walk(g, 0, 3) is None

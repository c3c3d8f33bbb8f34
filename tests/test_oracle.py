import random
from itertools import product

import pytest

from conftest import brute_hom_graph_path, random_walk, small_hosts
from homrecol.errors import InvalidInputError
from homrecol.graphs import hom_adjacent, is_homomorphism
from homrecol.families import (
    cycle_graph,
    random_graph,
    random_hom,
    random_instance,
    two_squares_shared,
)
from homrecol.oracle import (
    Answer,
    brute_homotopy,
    hom_graph_bfs,
    hom_graph_path,
    reduce_via_cover,
)
from homrecol.walks import reduce_walk

C5 = cycle_graph(5)


def test_cover_backtrack():
    assert reduce_via_cover(C5, (0, 1, 0)) == (0,)


def test_cover_reduced_walk_is_geodesic():
    assert reduce_via_cover(C5, (0, 1, 2)) == (0, 1, 2)


def test_cover_rejects_non_walk():
    with pytest.raises(InvalidInputError):
        reduce_via_cover(C5, (0, 2))


def test_cover_matches_reduce_on_random_walks():
    rng = random.Random(4)
    for _ in range(400):
        h = rng.choice(small_hosts())
        w = random_walk(rng, h, rng.randrange(0, 50))
        assert reduce_via_cover(h, w) == reduce_walk(w)


def test_brute_homotopy_one_move():
    assert brute_homotopy(C5, (0, 1, 2), (0, 1, 1, 2), max_len=4) is Answer.YES


def test_brute_homotopy_reflexivity():
    assert brute_homotopy(C5, (0, 1, 2, 3), (0, 1, 2, 3), max_len=3) is Answer.YES


def test_brute_homotopy_distinct_routes():
    assert brute_homotopy(C5, (0, 1, 2), (0, 4, 3, 2), max_len=12) is Answer.NO


def test_brute_homotopy_budget():
    big = cycle_graph(10)
    r = brute_homotopy(big, (0, 1, 2), (0, 9, 8, 7, 6, 5, 4, 3, 2), max_len=14, max_states=50)
    assert r is Answer.BUDGET_EXCEEDED


def test_hom_bfs_trivial():
    f = (0, 1, 2, 3, 4)
    assert hom_graph_bfs(C5, C5, f, f) is Answer.YES


def test_hom_bfs_rotation_is_separated():
    assert hom_graph_bfs(C5, C5, (0, 1, 2, 3, 4), (1, 2, 3, 4, 0)) is Answer.NO


def test_hom_bfs_figure_eight_wraps():
    h = two_squares_shared()
    assert hom_graph_bfs(C5, h, (0, 1, 2, 3, 0), (0, 4, 5, 6, 0), max_states=20_000) is Answer.NO


def test_hom_bfs_slack_shift_reachable_within_enumeration():
    # same wrap, slack moved one step: decided exactly inside the full 7^5 space
    h = two_squares_shared()
    phi = (0, 1, 2, 3, 0)
    psi = (0, 0, 1, 2, 3)
    assert hom_graph_bfs(C5, h, phi, psi, max_states=7**5) is Answer.YES
    from homrecol.solver import Instance, solve

    assert solve(Instance(g=C5, h=h, phi=phi, psi=psi)).yes


def test_hom_bfs_budget_is_distinct():
    h = two_squares_shared()
    r = hom_graph_bfs(C5, h, (0, 1, 2, 3, 0), (0, 4, 5, 6, 0), max_states=10)
    assert r is Answer.BUDGET_EXCEEDED


def test_hom_bfs_rejects_non_homomorphism():
    with pytest.raises(InvalidInputError):
        hom_graph_bfs(C5, C5, (0, 2, 3, 4, 0), (0, 1, 2, 3, 4))


def test_hom_path_returns_unit_moves():
    g = cycle_graph(4)
    h = cycle_graph(4)
    phi = (0, 1, 2, 3)
    path = hom_graph_path(g, h, phi, phi)
    assert path == [phi]
    # a reachable pair: wiggle one vertex of a slack wrap
    g13 = cycle_graph(13)
    wrap = tuple(i % 4 if i < 12 else 0 for i in range(13))
    target = tuple(wrap[(i - 1) % 13] for i in range(13))
    path = hom_graph_path(g13, h, wrap, target)
    assert isinstance(path, list) and path[0] == wrap and path[-1] == target
    for a, b in zip(path, path[1:]):
        diff = [v for v in range(13) if a[v] != b[v]]
        assert len(diff) == 1


def test_fallback_codes():
    # exhausted vs found vs budget on the reflexive 4-cycle
    h = cycle_graph(4)
    g = cycle_graph(4)
    assert hom_graph_bfs(g, h, (0, 1, 2, 3), (1, 2, 3, 0)) is Answer.NO
    assert hom_graph_bfs(g, h, (0, 1, 2, 3), (0, 1, 2, 3)) is Answer.YES
    g13 = cycle_graph(13)
    wrap = tuple(i % 4 if i < 12 else 0 for i in range(13))
    target = tuple(wrap[(i - 1) % 13] for i in range(13))
    assert hom_graph_bfs(g13, h, wrap, target, max_states=5) is Answer.BUDGET_EXCEEDED


def test_budget_counts_visited_states_including_start():
    # a 5-cycle wrapped once round the reflexive 4-cycle cannot reverse its
    # winding; count the colourings its moves reach by a separate search over
    # all homomorphisms C5 -> C4
    g, h = cycle_graph(5), cycle_graph(4)
    phi, psi = (0, 1, 2, 3, 0), (0, 3, 2, 1, 0)
    homs = [f for f in product(range(h.n), repeat=g.n) if is_homomorphism(g, h, f)]
    reached, frontier = {phi}, [phi]
    while frontier:
        f = frontier.pop()
        for x in homs:
            one_move = sum(a != b for a, b in zip(f, x)) == 1
            if x not in reached and one_move and hom_adjacent(g, h, f, x):
                reached.add(x)
                frontier.append(x)
    assert psi not in reached
    n = len(reached)
    assert n == 20
    for search in (hom_graph_bfs, hom_graph_path):
        assert search(g, h, phi, psi, max_states=n) is Answer.NO
        assert search(g, h, phi, psi, max_states=n - 1) is Answer.BUDGET_EXCEEDED


def test_wide_host_byte_packing():
    # hosts beyond 16 vertices pack 8 bits per vertex: a folded square slides
    # all the way round C20, crossing colours above 15
    h = cycle_graph(20)
    g = cycle_graph(4)
    phi = (0, 1, 2, 1)
    psi = (16, 17, 18, 17)
    assert hom_graph_bfs(g, h, phi, psi) is Answer.YES
    path = hom_graph_path(g, h, phi, psi)
    assert path[0] == phi and path[-1] == psi
    assert max(c for state in path for c in state) == 19
    for a, b in zip(path, path[1:]):
        assert sum(x != y for x, y in zip(a, b)) == 1
        assert hom_adjacent(g, h, a, b)
    assert path == brute_hom_graph_path(g, h, phi, psi)


def test_search_matches_reference():
    # the reference's budget trips one state earlier, so cap + 1 there is cap here
    rng = random.Random(21)
    hosts = small_hosts(8)
    wide = cycle_graph(20)
    for i in range(300):
        if i < 60:
            h = wide
            g = random_graph(rng, rng.randrange(1, 5), 0.6)
        elif i < 180:
            h = rng.choice(hosts)
            g = random_graph(rng, rng.randrange(1, 6), 0.5, reflexive=rng.random() < 0.7)
        else:
            inst = random_instance(rng, rng.randrange(2, 7), rng.randrange(4, 7))
            g, h = inst.g, inst.h
        phi, psi = random_hom(rng, g, h), random_hom(rng, g, h)
        cap = rng.choice([1, 3, 20, 500, 10**6])
        expected = brute_hom_graph_path(g, h, phi, psi, max_states=cap + 1)
        assert hom_graph_path(g, h, phi, psi, max_states=cap) == expected
        answer = Answer.YES if isinstance(expected, list) else expected
        assert hom_graph_bfs(g, h, phi, psi, max_states=cap) is answer

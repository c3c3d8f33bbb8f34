import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_walk, small_hosts
from homrecol.errors import InternalError
from homrecol.families import cycle_graph, cycle_with_pendant
from homrecol.oracle import (
    Answer,
    brute_homotopy,
    enumerate_walk_class,
    random_expand,
    random_order_reduce,
    reduce_via_cover,
)
from homrecol.walks import (
    basepoint_change,
    concat,
    cyclic_shift,
    free_decomposition,
    homotopic,
    is_contractible,
    is_reduced,
    primitive_root,
    reduce_walk,
    reverse,
    shift_match,
)

C5 = cycle_graph(5)
PENDANT = cycle_with_pendant(5)


# --- concatenation / reversal / basepoint change ---------------------------


def test_concat():
    assert concat((0, 1), (1, 2)) == (0, 1, 2)


def test_concat_mismatch():
    with pytest.raises(InternalError):
        concat((0, 1), (2, 3))


def test_reverse():
    assert reverse((0, 1, 2)) == (2, 1, 0)


def test_basepoint_change_pendant():
    # pendant host: vertex 5 hangs off the 5-cycle at 0
    assert basepoint_change((5, 0), (0, 1, 2, 3, 4, 0)) == (5, 0, 1, 2, 3, 4, 0, 5)


# --- reduction --------------------------------------------------------------


def test_reduce_removes_repeat():
    assert reduce_walk((0, 1, 1, 2)) == (0, 1, 2)


def test_reduce_removes_backtrack():
    assert reduce_walk((0, 1, 0)) == (0,)


def test_reduce_zigzag_matches_move_search():
    # expected value derived by enumerating every walk reachable by the
    # elementary moves within length 6: the class has a unique shortest walk
    walks = enumerate_walk_class(C5, (0, 1, 2, 1, 2, 3), max_len=6)
    assert isinstance(walks, set)
    shortest = min(len(w) for w in walks)
    best = {w for w in walks if len(w) == shortest}
    assert best == {(0, 1, 2, 3)}
    assert reduce_walk((0, 1, 2, 1, 2, 3)) == (0, 1, 2, 3)


def test_reduce_idempotent_and_fixes_endpoints():
    rng = random.Random(0)
    for _ in range(200):
        h = rng.choice(small_hosts())
        w = random_walk(rng, h, rng.randrange(0, 40))
        r = reduce_walk(w)
        assert is_reduced(r)
        assert reduce_walk(r) == r
        assert (r[0], r[-1]) == (w[0], w[-1])


def test_contractible_examples():
    assert not is_contractible((0, 1, 2, 3, 4, 0))
    assert is_contractible((0, 1, 2, 3, 2, 1, 0))


def test_homotopic_needs_matching_endpoints():
    with pytest.raises(InternalError):
        homotopic((0, 1), (0, 2))


def test_homotopic_distinct_routes_on_c5():
    # derived via the cover lift and the raw move search
    assert reduce_via_cover(C5, (0, 1, 2)) != reduce_via_cover(C5, (0, 4, 3, 2))
    assert brute_homotopy(C5, (0, 1, 2), (0, 4, 3, 2), max_len=12) is Answer.NO
    assert not homotopic((0, 1, 2), (0, 4, 3, 2))


# --- free decomposition -----------------------------------------------------


def _p3_neighbours(h, w):
    """Basepoint-shift move: drop the basepoint while its walk neighbours agree."""
    out = []
    if len(w) >= 3 and w[1] == w[-2]:
        out.append(w[1:-1])
    # and its inverse: re-wrap with any neighbour of the basepoint
    for c in h.adj[w[0]]:
        if c != w[0]:
            out.append((c,) + w + (c,))
    return out


def _free_class_shortest(h, start, max_len=12, cap=300_000):
    """All shortest closed walks freely homotopic to start (brute search)."""
    from homrecol.oracle import _move_neighbours

    seen = {start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for y in list(_move_neighbours(h, w, max_len + 1)) + _p3_neighbours(h, w):
            if len(y) - 1 > max_len or y in seen:
                continue
            assert len(seen) < cap
            seen.add(y)
            queue.append(y)
    shortest = min(len(y) for y in seen)
    return {y for y in seen if len(y) == shortest}


def test_free_decomposition_pendant_example():
    walk = (5, 0, 1, 2, 3, 4, 0, 5)
    d = free_decomposition(walk)
    assert d.tail == (5, 0)
    assert d.core == (0, 1, 2, 3, 4)
    # derived: the shortest walks in the basepoint-free class are exactly the
    # rotations of the pentagon, so the core is forced
    best = _free_class_shortest(PENDANT, walk, max_len=9)
    assert best == {cyclic_shift((0, 1, 2, 3, 4, 0), k) for k in range(5)}
    # and the decomposition recombines to the original fixed-endpoint class
    assert homotopic(basepoint_change(d.tail, d.core_walk()), walk)


def test_free_decomposition_contractible():
    d = free_decomposition((0, 1, 2, 1, 0))
    assert d.contractible and d.tail == (0,) and d.core == ()


def test_free_decomposition_already_cyclic():
    d = free_decomposition((0, 1, 2, 3, 4, 0))
    assert d.tail == (0,) and d.core == (0, 1, 2, 3, 4)


def test_free_decomposition_roundtrip_random():
    rng = random.Random(1)
    for _ in range(300):
        h = rng.choice(small_hosts())
        w = random_walk(rng, h, rng.randrange(0, 30))
        d = free_decomposition(w + reverse(w)[1:])
        assert d.contractible  # walk times its reverse is null-homotopic
    for _ in range(300):
        h = rng.choice(small_hosts())
        w = random_walk(rng, h, rng.randrange(0, 30))
        loop = w + random_path_back(rng, h, w[-1], w[0])
        d = free_decomposition(loop)
        assert homotopic(basepoint_change(d.tail, d.core_walk()), loop)
        if not d.contractible:
            assert is_reduced(d.core + d.core)  # cyclically reduced


def random_path_back(rng, h, a, b):
    """Some walk a..b (random wander then shortest hop home), start dropped."""
    from homrecol.graphs import shortest_walk

    wander = random_walk(rng, h, rng.randrange(0, 10), start=a)
    home = shortest_walk(h, wander[-1], b)
    assert home is not None
    return (wander + home[1:])[1:]


# --- primitive root and shift matching --------------------------------------


def test_primitive_root_single_period():
    assert primitive_root((0, 1, 2, 3, 4)) == (0, 1, 2, 3, 4)


def test_primitive_root_doubled():
    assert primitive_root((0, 1, 2, 3) * 2) == (0, 1, 2, 3)
    assert primitive_root((0, 1, 2, 3, 4) * 2) == (0, 1, 2, 3, 4)


def test_primitive_root_rejects_short_period():
    with pytest.raises(InternalError):
        primitive_root((0, 1) * 2)


def test_shift_match_rotation():
    assert shift_match((0, 1, 2, 3, 4), (2, 3, 4, 0, 1)) == 2


def test_shift_match_rejects_reversal():
    assert shift_match((0, 1, 2, 3, 4), (0, 4, 3, 2, 1)) is None


def test_shift_match_length_mismatch():
    assert shift_match((0, 1, 2, 3), (0, 1, 2, 3, 4)) is None


def test_shift_match_smallest_offset():
    assert shift_match((0, 1) * 3, (0, 1) * 3) == 0
    assert shift_match((0, 1) * 3, (1, 0) * 3) == 1


# --- property tests ----------------------------------------------------------

HOSTS = small_hosts()


@st.composite
def host_and_walk(draw, max_len=40):
    h = draw(st.sampled_from(HOSTS))
    start = draw(st.integers(0, h.n - 1))
    steps = draw(st.lists(st.integers(0, 63), max_size=max_len))
    walk = [start]
    for s in steps:
        nbrs = h.adj[walk[-1]]
        walk.append(nbrs[s % len(nbrs)])
    return h, tuple(walk)


@settings(max_examples=150, deadline=None)
@given(host_and_walk(), st.randoms(use_true_random=False))
def test_reduction_confluent(hw, rnd):
    h, w = hw
    r = reduce_walk(w)
    assert random_order_reduce(rnd, h, w) == r
    assert reduce_via_cover(h, w) == r


@settings(max_examples=100, deadline=None)
@given(host_and_walk(max_len=15), st.randoms(use_true_random=False))
def test_expand_then_reduce_returns_original(hw, rnd):
    h, w = hw
    r = reduce_walk(w)
    grown = random_expand(rnd, h, r, steps=20)
    assert reduce_walk(grown) == r


@settings(max_examples=150, deadline=None)
@given(host_and_walk())
def test_walk_times_reverse_contracts(hw):
    h, w = hw
    assert reduce_walk(w + reverse(w)[1:]) == (w[0],)


@settings(max_examples=150, deadline=None)
@given(host_and_walk(), st.integers(0, 100))
def test_cyclic_shift_preserves_contractibility(hw, k):
    h, w = hw
    closed = w + reverse(w)[1:] if w[0] != w[-1] else w
    assert is_contractible(cyclic_shift(closed, k)) == is_contractible(closed)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_two_of_three_contractibility(data):
    # closed walks sharing a middle segment: if two of the pair and their
    # splice are contractible, so is the third
    h = data.draw(st.sampled_from(HOSTS))

    def walk_from(a, n):
        steps = data.draw(st.lists(st.integers(0, 63), min_size=n, max_size=n))
        out = [a]
        for s in steps:
            nbrs = h.adj[out[-1]]
            out.append(nbrs[s % len(nbrs)])
        return tuple(out)

    x = walk_from(data.draw(st.integers(0, h.n - 1)), data.draw(st.integers(0, 8)))
    u1 = reverse(walk_from(x[0], data.draw(st.integers(0, 8))))
    u2 = reverse(walk_from(x[-1], data.draw(st.integers(0, 8))))
    v1 = walk_from(x[-1], data.draw(st.integers(0, 8)))
    v2 = walk_from(x[0], data.draw(st.integers(0, 8)))
    v1 = concat(v1, shortest_back(h, v1[-1], u1[0]))  # close c1 at u1's start
    v2 = concat(v2, shortest_back(h, v2[-1], u2[0]))  # close c2 at u2's start
    c1 = concat(concat(u1, x), v1)
    c2 = concat(concat(u2, reverse(x)), v2)
    spliced = concat(concat(u1, v2), concat(u2, v1))
    flags = [is_contractible(c1), is_contractible(c2), is_contractible(spliced)]
    assert flags.count(True) != 2


def shortest_back(h, a, b):
    from homrecol.graphs import shortest_walk

    w = shortest_walk(h, a, b)
    assert w is not None
    return w

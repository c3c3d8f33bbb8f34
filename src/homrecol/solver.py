"""Top-level decision procedure.

Per component: find a topologically valid base walk (else NO), take the
system of fewest moves in the family that pins it, and schedule it.  A
deadlock yields a tight cycle, frozen whichever valid system was scheduled;
a colour mismatch between the two maps on that cycle is a frozen-vertex
obstruction, otherwise the constant walk at a cycle vertex is the only
possible base walk and the procedure retries once from it — a second
failure is definitive.

Girth-5 hosts admit arbitrary instance graphs: a vertex with no edge and
no loop jumps to its psi colour up front, and on the rest of G loops would
not change the answer.  A looped isolated vertex is a one-vertex component
like any other: it walks its shortest walk, or is the no-valid-walk
obstruction.  No loop-added copy of G is built, as the core never reads a
loop of G: bfs_tree passes over u in its own row, _failing_cycle skips
v <= u, u's own loop test in schedule always passes (each step of a reduced
walk is an edge of H), and _extract_tight_cycle never lets u wait for
itself.  The witness is still replayed by verify_witness against the
original G.  recheck_obstruction refuses every certificate on a vertex with
no edge, which can never be stuck, and judges the rest by the same rules in
either mode.
"""

from __future__ import annotations

from array import array
from itertools import compress
from operator import ne
from typing import Iterable, NamedTuple, Sequence

from .errors import InternalError, InvalidInputError
from .graphs import (
    Graph,
    Scratch,
    bfs_tree,
    component_trees,
    is_homomorphism,
    move_code,
    shortest_walk,
    tree_path,
    validate_host,
)
from .scheduling import schedule
from .systems import (
    CLASS_MISMATCH,
    FROZEN_MISMATCH,
    NO_VALID_WALK,
    UNREALIZABLE,
    CycleWitness,
    Obstruction,
    find_valid_base_walk,
    generate_system,
)
from .walks import free_decomposition, is_cyclically_reduced, reduce_walk, shift_match

REFLEXIVE = "reflexive"
GIRTH5 = "girth5"


class Instance(NamedTuple):
    g: Graph
    h: Graph
    phi: tuple[int, ...]
    psi: tuple[int, ...]
    mode: str = REFLEXIVE


class Verdict(NamedTuple):
    answer: str  # "yes" | "no"
    # a YES witness as one flat array.array [v0, c0, v1, c1, ...] of type
    # graphs.move_code(g, h): move i takes vertex v_i to colour c_i
    moves: array | None = None
    obstruction: Obstruction | None = None

    @property
    def yes(self) -> bool:
        return self.answer == "yes"


class WitnessCheck(NamedTuple):
    ok: bool
    index: int | None  # first violating move, when not ok


def validate_instance(inst: Instance) -> None:
    """Check the structural hypotheses for the instance's mode."""
    if inst.mode not in (REFLEXIVE, GIRTH5):
        raise InvalidInputError(f"unknown mode {inst.mode!r}")
    if not is_homomorphism(inst.g, inst.h, inst.phi):
        raise InvalidInputError("phi is not a homomorphism")
    if not is_homomorphism(inst.g, inst.h, inst.psi):
        raise InvalidInputError("psi is not a homomorphism")
    report = validate_host(inst.h)
    if not report.is_reflexive:
        raise InvalidInputError("host must be reflexive")
    if inst.mode == REFLEXIVE:
        if not report.is_triangle_free:
            raise InvalidInputError("host must be triangle-free in reflexive mode")
        if not inst.g.is_reflexive():
            raise InvalidInputError("instance graph must be reflexive in reflexive mode")
    else:
        if not report.girth_at_least_5:
            raise InvalidInputError("host must have girth at least 5 in girth5 mode")


def preprocess_girth5(inst: Instance) -> tuple[Instance, array]:
    """Let the vertices of a girth-5 instance with no edge and no loop jump.

    Returns inst with their psi colours, on the same G (see the module
    docstring), and the jumps, a flat array [v0, c0, ...] of the type of
    Verdict.moves.  phi is copied at the first vertex that jumps; when none
    does, inst itself comes back.
    """
    if inst.mode != GIRTH5:
        raise InvalidInputError("preprocessing applies to girth5 mode")
    prefix = array(move_code(inst.g, inst.h))
    phi = None
    for v, row in enumerate(inst.g.adj):
        b = inst.psi[v]
        if row or inst.phi[v] == b:
            continue
        prefix.extend((v, b))
        if phi is None:
            phi = list(inst.phi)
        phi[v] = b
    if phi is None:
        return inst, prefix
    return inst._replace(phi=tuple(phi)), prefix


def _solve_component(
    g: Graph,
    h: Graph,
    phi: Sequence[int],
    psi: Sequence[int],
    tree: tuple[list[int], list[int]],
    scratch: Scratch,
) -> array | Obstruction:
    """The moves of one component, or its obstruction.  The first system
    scheduled is the fewest-move one of its pinned family, as
    find_valid_base_walk returns it; the retry's is the only valid system
    left, so it is scheduled as generated."""
    system = find_valid_base_walk(g, h, phi, psi, tree, scratch)
    if isinstance(system, Obstruction):
        return system
    unrealizable = None
    while True:
        outcome = schedule(g, h, system)
        if not isinstance(outcome, CycleWitness):
            return outcome
        # The tight cycle is frozen at phi (the scheduler checked that none
        # of its vertices moved), so a vertex where psi differs is stuck.
        cycle = outcome.cycle
        differs = map(ne, map(phi.__getitem__, cycle), map(psi.__getitem__, cycle))
        stuck = min(compress(cycle, differs), default=None)
        if stuck is not None:
            return Obstruction(kind=FROZEN_MISMATCH, cycle=outcome.cycle, vertex=stuck)
        if unrealizable is not None:
            return unrealizable  # the retry deadlocked too
        # Every cycle colour agrees, so a realizable system must be constant on
        # the cycle; the system containing the constant walk at r is the only
        # candidate.  Carried up the tree to the root, that walk reduces
        # phi(root .. r) . psi(r .. root) (phi(r) == psi(r) joins the halves),
        # so the one tree serves the retry.
        r = min(outcome.cycle)
        unrealizable = Obstruction(kind=UNREALIZABLE, cycle=outcome.cycle, vertex=r)
        chain = tree_path(tree[1], r)
        w_root = reduce_walk(tuple(phi[x] for x in reversed(chain)) + tuple(psi[x] for x in chain))
        system = generate_system(g, h, phi, psi, tree, w_root, scratch)
        if isinstance(system, CycleWitness):
            return unrealizable


def _solve_components(inst: Instance, moves: array) -> array | Obstruction:
    """The moves of every component of inst, after moves, or the first
    component's obstruction.

    One set of vertex-indexed arrays serves every component: allocating
    them per component would make many small components quadratic.  They
    and the last component tree are locals here, freed on return."""
    g = inst.g
    scratch = Scratch(g.n)
    for tree in component_trees(g):
        outcome = _solve_component(g, inst.h, inst.phi, inst.psi, tree, scratch)
        if isinstance(outcome, Obstruction):
            return outcome
        # an empty array takes a component's moves as they are: a copy would
        # hold the witness twice
        if moves:
            moves += outcome
        else:
            moves = outcome
    return moves


def solve(inst: Instance) -> Verdict:
    """Decide the instance and return a verified witness or a typed obstruction.

    The components are solved in _solve_components, so the witness
    self-check runs with no Scratch and no component tree alive: only the
    instance and the moves.
    """
    validate_instance(inst)
    if inst.mode == GIRTH5:
        outcome = _solve_components(*preprocess_girth5(inst))
    else:
        outcome = _solve_components(inst, array(move_code(inst.g, inst.h)))
    if isinstance(outcome, Obstruction):
        return Verdict(answer="no", obstruction=outcome)
    it = iter(outcome)
    check = verify_witness(inst, zip(it, it))
    if not check.ok:
        raise InternalError(f"emitted witness fails to replay at move {check.index}")
    return Verdict(answer="yes", moves=outcome)


def verify_witness(inst: Instance, moves: Iterable[Sequence[int]]) -> WitnessCheck:
    """Replay moves from phi: one vertex per step, loop rule respected,
    homomorphism maintained, psi reached.  moves yields (vertex, colour)
    pairs: the [vertex, colour] lists of a parsed result file, or the
    tuples zip(it, it) reads off a flat Verdict.moves, with
    it = iter(verdict.moves).  A bad move fails at its index, landing off
    psi at the number of moves."""
    g, h = inst.g, inst.h
    gn, hn, adj, hs = g.n, h.n, g.adj, h.adj_sets
    cur = list(inst.phi)
    i = -1  # the loop leaves i + 1 moves replayed
    # each move is unpacked in the loop target, with no name bound to it; i
    # is stored before its move is unpacked, so a move that is not a pair
    # fails at its own index
    try:
        for i, (v, c) in enumerate(moves):
            if not (0 <= v < gn and 0 <= c < hn) or c == cur[v]:
                return WitnessCheck(False, i)
            # The move keeps a homomorphism iff all of v's edges stay edges.
            # A loop sits in v's own row, so the same test is the loop rule,
            # read with H undirected: the old colour must be adjacent to the
            # new one.
            allowed = hs[c]
            for u in adj[v]:
                if cur[u] not in allowed:
                    return WitnessCheck(False, i)
            cur[v] = c
    except ValueError:  # too many or too few values to unpack
        return WitnessCheck(False, i)
    if tuple(cur) != tuple(inst.psi):
        return WitnessCheck(False, i + 1)
    return WitnessCheck(True, None)


def recheck_obstruction(inst: Instance, obstruction: Obstruction) -> bool:
    """Independently re-verify a NO certificate against the instance."""
    cycle = obstruction.cycle
    if not cycle or min(cycle) < 0 or max(cycle) >= inst.g.n:
        return False
    g, h, phi, psi = inst.g, inst.h, inst.phi, inst.psi
    if not g.adj[cycle[0]]:
        # a vertex with no edge and no loop is never stuck (in girth-5 mode
        # it jumps, and a reflexive G has none); any other certificate is
        # checked on G as given (the core reads no loop of G)
        return False
    # the one check that the certificate's cycle is a closed walk of G; the
    # walk rules below read only its colours
    if len(cycle) > 1:
        if cycle[0] != cycle[-1]:
            return False
        for a, b in zip(cycle, cycle[1:]):
            if not g.adjacent(a, b):
                return False

    if obstruction.kind == CLASS_MISMATCH:
        da = free_decomposition(tuple(phi[x] for x in cycle))
        db = free_decomposition(tuple(psi[x] for x in cycle))
        return (da.core, db.core) == obstruction.cores and shift_match(da.core, db.core) is None

    if obstruction.kind in (FROZEN_MISMATCH, UNREALIZABLE):
        # both claim a tight cycle through v: its image under phi is
        # cyclically reduced, so it is frozen at phi
        v = obstruction.vertex
        if v not in cycle or not is_cyclically_reduced(tuple(phi[x] for x in cycle)):
            return False
        if obstruction.kind == FROZEN_MISMATCH:
            return phi[v] != psi[v]
        if any(phi[x] != psi[x] for x in cycle):
            return False
        # v is frozen, so the constant walk is the only admissible base walk;
        # the obstruction claims the system it generates (if any) deadlocks.
        retry = generate_system(g, h, phi, psi, bfs_tree(g, v), (phi[v],), Scratch(g.n))
        if isinstance(retry, CycleWitness):
            return True
        return isinstance(schedule(g, h, retry), CycleWitness)

    if obstruction.kind == NO_VALID_WALK:
        if len(cycle) == 1:
            return shortest_walk(h, phi[cycle[0]], psi[cycle[0]]) is None
        root = min(bfs_tree(g, cycle[0])[0])
        search = find_valid_base_walk(g, h, phi, psi, bfs_tree(g, root), Scratch(g.n))
        return isinstance(search, Obstruction)

    return False

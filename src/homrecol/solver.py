"""Top-level decision procedure.

Per component: find a topologically valid base walk (else NO), generate its
system and schedule it.  A deadlock yields a tight cycle; a colour mismatch
between the two maps on that cycle is a frozen-vertex obstruction, otherwise
the constant walk at a cycle vertex is the only possible base walk and the
procedure retries once from it — a second failure is definitive.

Girth-5 hosts admit arbitrary instance graphs: isolated vertices are
recoloured up front and all loops are added; the transformed reflexive
instance has the same answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import InternalError, InvalidInputError
from .graphs import (
    Graph,
    Scratch,
    connected_components,
    is_homomorphism,
    shortest_walk,
    validate_host,
)
from .scheduling import TightWalkWitness, is_tight, schedule
from .systems import CycleWitness, find_valid_base_walk, generate_system
from .walks import Walk, free_decomposition, reduce_walk, shift_match

Move = tuple[int, int]

REFLEXIVE = "reflexive"
GIRTH5 = "girth5"

NO_VALID_WALK = "no-valid-walk"
CLASS_MISMATCH = "free-class-mismatch"
FROZEN_MISMATCH = "frozen-mismatch"
UNREALIZABLE = "unrealizable"


@dataclass(frozen=True)
class Instance:
    g: Graph
    h: Graph
    phi: tuple[int, ...]
    psi: tuple[int, ...]
    mode: str = REFLEXIVE


@dataclass(frozen=True)
class Obstruction:
    kind: str
    cycle: Walk
    vertex: int | None = None
    cores: tuple[Walk, Walk] | None = None


@dataclass(frozen=True)
class Verdict:
    answer: str  # "yes" | "no"
    moves: list[Move] | None = None
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


def preprocess_girth5(inst: Instance) -> tuple[Instance, list[Move], Obstruction | None]:
    """Recolour isolated vertices directly, then add all loops.

    Looped isolated vertices walk through the host (their two colours must
    share a component); loopless ones jump.  The reflexive instance returned
    has the same answer as the original.
    """
    if inst.mode != GIRTH5:
        raise InvalidInputError("preprocessing applies to girth5 mode")
    prefix: list[Move] = []
    phi = list(inst.phi)
    for v in range(inst.g.n):
        if any(u != v for u in inst.g.adj[v]):
            continue  # not isolated
        if phi[v] == inst.psi[v]:
            continue
        if v in inst.g.loops:
            walk = shortest_walk(inst.h, phi[v], inst.psi[v])
            if walk is None:
                return inst, [], Obstruction(kind=NO_VALID_WALK, cycle=(v,))
            prefix.extend((v, c) for c in walk[1:])
        else:
            prefix.append((v, inst.psi[v]))
        phi[v] = inst.psi[v]
    reflexive = Instance(
        g=inst.g.with_all_loops(), h=inst.h, phi=tuple(phi), psi=inst.psi, mode=REFLEXIVE
    )
    return reflexive, prefix, None


def _solve_component(
    g: Graph,
    h: Graph,
    phi: Sequence[int],
    psi: Sequence[int],
    comp: Sequence[int],
    scratch: Scratch,
) -> tuple[list[Move] | None, Obstruction | None]:
    root = comp[0]
    search = find_valid_base_walk(g, h, phi, psi, root, scratch)
    if not search.found:
        if search.failure == "class-mismatch":
            return None, Obstruction(kind=CLASS_MISMATCH, cycle=search.cycle, cores=search.cores)
        return None, Obstruction(kind=NO_VALID_WALK, cycle=search.cycle)

    system, unrealizable = search.system, None
    while True:
        outcome = schedule(g, h, system, scratch=scratch)
        if isinstance(outcome, list):
            return outcome, None
        obstruction = _deadlock_obstruction(g, h, phi, psi, outcome)
        if obstruction is not None:
            return None, obstruction
        if unrealizable is not None:
            return None, unrealizable  # the retry deadlocked too
        # Every cycle colour agrees, so a realizable system must be constant on
        # the cycle; the system generated from the constant walk is the only
        # candidate.
        retry_root = min(outcome.cycle)
        unrealizable = Obstruction(kind=UNREALIZABLE, cycle=outcome.cycle, vertex=retry_root)
        system = generate_system(g, h, phi, psi, retry_root, (phi[retry_root],), scratch=scratch)
        if isinstance(system, CycleWitness):
            return None, unrealizable


def _deadlock_obstruction(
    g: Graph, h: Graph, phi: Sequence[int], psi: Sequence[int], witness: TightWalkWitness
) -> Obstruction | None:
    """Frozen-vertex obstruction from a deadlock, or None if the maps agree.

    Tightness pins the cycle's colours across the whole component of the
    homomorphism graph, so the frozen images must equal the original map's.
    """
    if witness.images != tuple(phi[x] for x in witness.cycle):
        raise InternalError("deadlock images drifted from the starting map")
    if not is_tight(g, phi, witness.cycle):
        raise InternalError("deadlock cycle not tight under the starting map")
    for v in sorted(set(witness.cycle)):
        if phi[v] != psi[v]:
            return Obstruction(kind=FROZEN_MISMATCH, cycle=witness.cycle, vertex=v)
    return None


def solve(inst: Instance) -> Verdict:
    """Decide the instance and return a verified witness or a typed obstruction."""
    validate_instance(inst)
    moves: list[Move] = []
    work = inst
    if inst.mode == GIRTH5:
        work, moves, early = preprocess_girth5(inst)
        if early is not None:
            return Verdict(answer="no", obstruction=early)

    # one set of vertex-indexed arrays for every component: allocating them
    # per component would make many small components quadratic
    scratch = Scratch(work.g.n)
    for comp in connected_components(work.g):
        comp_moves, obstruction = _solve_component(
            work.g, work.h, work.phi, work.psi, comp, scratch
        )
        if obstruction is not None:
            return Verdict(answer="no", obstruction=obstruction)
        moves.extend(comp_moves)

    check = verify_witness(inst, moves)
    if not check.ok:
        raise InternalError(f"emitted witness fails to replay at move {check.index}")
    return Verdict(answer="yes", moves=moves)


def verify_witness(inst: Instance, moves: Sequence[Sequence[int]]) -> WitnessCheck:
    """Replay moves from phi: one vertex per step, loop rule respected,
    homomorphism maintained, psi reached.  A move is a (vertex, colour)
    tuple as solve emits it, or a [vertex, colour] list as a result file
    parses to."""
    g, h = inst.g, inst.h
    gn, hn, adj, hs = g.n, h.n, g.adj, h.adj_sets
    cur = list(inst.phi)
    for i, move in enumerate(moves):
        if len(move) != 2:
            return WitnessCheck(False, i)
        v, c = move
        if not (0 <= v < gn and 0 <= c < hn) or c == cur[v]:
            return WitnessCheck(False, i)
        # The move keeps a homomorphism iff all of v's edges stay edges.  A
        # loop sits in v's own row, so the same test is the loop rule, read
        # with H undirected: the old colour must be adjacent to the new one.
        allowed = hs[c]
        for u in adj[v]:
            if cur[u] not in allowed:
                return WitnessCheck(False, i)
        cur[v] = c
    if tuple(cur) != inst.psi:
        return WitnessCheck(False, len(moves))
    return WitnessCheck(True, None)


def recheck_obstruction(inst: Instance, obstruction: Obstruction) -> bool:
    """Independently re-verify a NO certificate against the instance."""
    cycle = obstruction.cycle
    if not cycle or min(cycle) < 0 or max(cycle) >= inst.g.n:
        return False
    g, h, phi, psi = inst.g, inst.h, inst.phi, inst.psi
    if inst.mode == GIRTH5:
        v = cycle[0]
        if not any(u != v for u in g.adj[v]):
            # preprocess_girth5 walks a looped isolated vertex through the
            # host and lets a loopless one jump, so only a looped one is stuck
            return (
                len(cycle) == 1
                and obstruction.kind == NO_VALID_WALK
                and v in g.loops
                and shortest_walk(h, phi[v], psi[v]) is None
            )
        # Preprocessing recolours only isolated vertices, and a certificate
        # elsewhere never reads their colours: check it on the loop-added
        # instance, also when preprocessing stopped at some isolated vertex.
        g = g.with_all_loops()
    if len(cycle) > 1:
        if cycle[0] != cycle[-1]:
            return False
        for a, b in zip(cycle, cycle[1:]):
            if not g.adjacent(a, b):
                return False

    if obstruction.kind == CLASS_MISMATCH:
        da = free_decomposition(reduce_walk(tuple(phi[x] for x in cycle)))
        db = free_decomposition(reduce_walk(tuple(psi[x] for x in cycle)))
        if (da.core, db.core) != obstruction.cores:
            return False
        if da.contractible != db.contractible:
            return True
        if da.contractible:
            return False
        return shift_match(da.core, db.core) is None

    if obstruction.kind == FROZEN_MISMATCH:
        v = obstruction.vertex
        return (
            v is not None
            and v in set(cycle)
            and phi[v] != psi[v]
            and is_tight(g, phi, cycle)
        )

    if obstruction.kind == UNREALIZABLE:
        v = obstruction.vertex
        if v is None or v not in set(cycle):
            return False
        if not is_tight(g, phi, cycle):
            return False
        if any(phi[x] != psi[x] for x in cycle):
            return False
        # v is frozen, so the constant walk is the only admissible base walk;
        # the obstruction claims the system it generates (if any) deadlocks.
        retry = generate_system(g, h, phi, psi, v, (phi[v],))
        if isinstance(retry, CycleWitness):
            return True
        return isinstance(schedule(g, h, retry), TightWalkWitness)

    if obstruction.kind == NO_VALID_WALK:
        if len(cycle) == 1:
            return shortest_walk(h, phi[cycle[0]], psi[cycle[0]]) is None
        root = min(_component_of(g, cycle[0]))
        return not find_valid_base_walk(g, h, phi, psi, root).found

    return False


def _component_of(g: Graph, v: int) -> tuple[int, ...]:
    for comp in connected_components(g):
        if v in comp:
            return comp
    raise InternalError("vertex outside every component")

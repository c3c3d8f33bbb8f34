"""Certificate checkers written from the definitions, without homrecol.

Every function here works on plain JSON documents: the instance file and
the result file as ``homrecol solve`` writes them.  Nothing imports
homrecol, so a fault in the solver's own checks cannot hide a fault in its
answers.

* YES: replay the moves.  Two maps f, k are adjacent in Hom(G, H) when they
  differ on one vertex and f(u)k(v) is an edge of H for every edge uv of G,
  loops included; the replay must end at psi.
* frozen-mismatch: the cycle is a closed walk of G whose phi-image is
  cyclically reduced (no step stays put or turns back, read cyclically), so
  no move can ever change it; phi and psi differ on the named vertex.
* free-class-mismatch: the cyclically reduced cores of the cycle's two
  images are not rotations of one another; on a cycle host, the two images
  also wind a different number of times.
* no-valid-walk on one vertex: the vertex has a loop, so its colour moves
  along edges of H, and its two colours lie in different components of H.
  In girth5 mode the vertex must also be isolated, as the solver names only
  looped isolated vertices there; a loopless isolated vertex jumps.
* anything else: breadth-first search over single-vertex moves within a
  state budget, or a reference answer computed the same way with a larger
  budget by ``reference.py``.

In girth5 mode the certificate speaks of the looped instance the solver
builds (isolated vertices recoloured first, a loop added on every vertex);
the checks of NO certificates add the loops themselves.
"""

from __future__ import annotations

from collections import deque


class Inst:
    __slots__ = ("gn", "g", "hn", "h", "phi", "psi", "mode")

    def __init__(self, doc: dict):
        self.gn, self.g = _graph(doc["G"])
        self.hn, self.h = _graph(doc["H"])
        self.phi = list(doc["phi"])
        self.psi = list(doc["psi"])
        self.mode = doc.get("mode", "reflexive")


def _graph(doc: dict) -> tuple[int, list[set[int]]]:
    n = doc["num_vertices"]
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in doc.get("edges", []):
        adj[u].add(v)
        adj[v].add(u)
    if doc.get("reflexive", False):
        for v in range(n):
            adj[v].add(v)
    return n, adj


def is_hom(inst: Inst, f: list[int]) -> bool:
    if len(f) != inst.gn or any(not 0 <= c < inst.hn for c in f):
        return False
    h = inst.h
    return all(f[v] in h[f[u]] for u in range(inst.gn) for v in inst.g[u])


def host_ok(inst: Inst) -> bool:
    """H is reflexive and triangle-free, and of girth 5 in girth5 mode."""
    h, n = inst.h, inst.hn
    if any(v not in h[v] for v in range(n)):
        return False
    nbrs = [h[v] - {v} for v in range(n)]
    if any(nbrs[u] & nbrs[v] for u in range(n) for v in nbrs[u]):
        return False
    if inst.mode == "girth5":  # two vertices with two common neighbours close a square
        return all(len(nbrs[u] & nbrs[w]) < 2 for u in range(n) for w in range(u + 1, n))
    return True


def replay(inst: Inst, moves) -> int | None:
    """Index of the first move that is not a Hom-graph edge, len(moves) if the
    replay misses psi, or None when the witness is good."""
    if not (is_hom(inst, inst.phi) and is_hom(inst, inst.psi)):
        return 0
    cur = list(inst.phi)
    g, h = inst.g, inst.h
    for i, move in enumerate(moves):
        if not (isinstance(move, list) and len(move) == 2):
            return i
        v, c = move
        if not (isinstance(v, int) and isinstance(c, int)):
            return i
        if not (0 <= v < inst.gn and 0 <= c < inst.hn) or c == cur[v]:
            return i
        # edges at v, its loop included (u == v reads v's old colour)
        if any(c not in h[cur[u]] for u in g[v]):
            return i
        cur[v] = c
    return None if cur == inst.psi else len(moves)


def _looped(inst: Inst) -> list[set[int]]:
    return [inst.g[v] | {v} for v in range(inst.gn)]


def closed_walk(adj: list[set[int]], cycle) -> bool:
    return (
        isinstance(cycle, list)
        and len(cycle) >= 2
        and all(isinstance(x, int) and 0 <= x < len(adj) for x in cycle)
        and cycle[0] == cycle[-1]
        and all(b in adj[a] for a, b in zip(cycle, cycle[1:]))
    )


def cyclically_reduced(body: list[int]) -> bool:
    m = len(body)
    return m > 0 and all(
        body[i] != body[(i + 1) % m] and body[i] != body[(i + 2) % m] for i in range(m)
    )


def tight(inst: Inst, cycle) -> bool:
    return closed_walk(_looped(inst), cycle) and cyclically_reduced(
        [inst.phi[x] for x in cycle[:-1]]
    )


def no_legal_move(inst: Inst) -> bool:
    """phi has no neighbour in Hom(G, H): every vertex is stuck."""
    g, h, phi = inst.g, inst.h, inst.phi
    for v in range(inst.gn):
        allowed = set(range(inst.hn)) if v not in g[v] else set(h[phi[v]])
        for u in g[v]:
            allowed &= h[phi[u]]
        allowed.discard(phi[v])
        if allowed:
            return False
    return True


def reduce(walk: list[int]) -> list[int]:
    """Drop stays (x, x) and backtracks (x, y, x) until none is left."""
    out: list[int] = []
    for x in walk:
        out.append(x)
        if len(out) >= 2 and out[-2] == x:
            out.pop()
        elif len(out) >= 3 and out[-3] == x:
            del out[-2:]
    return out


def core(closed: list[int]) -> list[int]:
    """Cyclically reduced core of a closed walk, as a cyclic word."""
    r = reduce(closed)
    lo, hi = 0, len(r) - 1
    while hi - lo >= 2 and r[lo + 1] == r[hi - 1]:
        lo += 1
        hi -= 1
    return r[lo:hi]


def is_rotation(a: list[int], b: list[int]) -> bool:
    if len(a) != len(b):
        return False
    if not a:
        return True
    sa, sb = "".join(map(chr, a)), "".join(map(chr, b))
    return sb in sa + sa


def cycle_positions(inst: Inst) -> list[int] | None:
    """Position of each host vertex around H when H is a cycle of length >= 4."""
    n = inst.hn
    nbrs = [sorted(inst.h[v] - {v}) for v in range(n)]
    if n < 4 or any(len(x) != 2 for x in nbrs):
        return None
    pos = [-1] * n
    prev, cur = -1, 0
    for i in range(n):
        if pos[cur] != -1:
            return None
        pos[cur] = i
        nxt = nbrs[cur][0] if nbrs[cur][0] != prev else nbrs[cur][1]
        prev, cur = cur, nxt
    return pos if cur == 0 else None


def winding(pos: list[int], walk: list[int]) -> int:
    k = len(pos)
    total = 0
    for a, b in zip(walk, walk[1:]):
        d = (pos[b] - pos[a]) % k
        total += 1 if d == 1 else -1 if d == k - 1 else 0
    return total // k


def class_mismatch(inst: Inst, obstruction: dict) -> bool:
    cycle = obstruction.get("cycle")
    if not closed_walk(_looped(inst), cycle):
        return False
    img_phi = [inst.phi[x] for x in cycle]
    img_psi = [inst.psi[x] for x in cycle]
    ca, cb = core(img_phi), core(img_psi)
    if is_rotation(ca, cb):
        return False
    claimed = obstruction.get("cores")
    if claimed is not None and not (
        isinstance(claimed, list)
        and len(claimed) == 2
        and all(isinstance(c, list) and all(isinstance(x, int) and 0 <= x < inst.hn for x in c)
                for c in claimed)
        and is_rotation(claimed[0], ca)
        and is_rotation(claimed[1], cb)
    ):
        return False
    pos = cycle_positions(inst)
    return pos is None or winding(pos, img_phi) != winding(pos, img_psi)


def separated(inst: Inst, a: int, b: int) -> bool:
    seen, queue = {a}, deque([a])
    while queue:
        for y in inst.h[queue.popleft()]:
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return b not in seen


def bfs(inst: Inst, budget: int) -> tuple[str, int]:
    """("yes", distance) / ("no", states) / ("budget", states) by BFS over
    single-vertex moves from phi, exact within the budget of visited states.

    States are byte strings of colours; ``masks[c]`` has a bit for every
    colour adjacent to c, so a vertex's legal colours are the AND of the
    masks of its neighbours' colours (its own, for a loop).
    """
    g, hn = inst.g, inst.hn
    if hn > 256 or inst.gn > 64:  # states are bytes; large G never fits a budget
        return "budget", 0
    masks = [sum(1 << x for x in inst.h[c]) for c in range(hn)]
    every = (1 << hn) - 1
    nbrs = [sorted(g[v]) for v in range(inst.gn)]
    start, target = bytes(inst.phi), bytes(inst.psi)
    if start == target:
        return "yes", 0
    dist = {start: 0}
    queue = deque([start])
    while queue:
        f = queue.popleft()
        d = dist[f] + 1
        for v in range(inst.gn):
            allowed = every
            for u in nbrs[v]:
                allowed &= masks[f[u]]
            allowed &= ~(1 << f[v])
            while allowed:
                low = allowed & -allowed
                allowed ^= low
                k = f[:v] + bytes((low.bit_length() - 1,)) + f[v + 1 :]
                if k in dist:
                    continue
                if k == target:
                    return "yes", d
                if len(dist) >= budget:
                    return "budget", len(dist)
                dist[k] = d
                queue.append(k)
    return "no", len(dist)


def check_no(inst: Inst, obstruction: dict, bfs_budget: int, reference: str | None) -> str | None:
    """None when the NO certificate holds, else the reason it does not."""
    if not isinstance(obstruction, dict):
        return "no obstruction"
    kind = obstruction.get("type")
    cycle = obstruction.get("cycle")
    if not host_ok(inst):
        return "host outside the hypotheses"
    if kind == "frozen-mismatch":
        v = obstruction.get("vertex")
        if not tight(inst, cycle):
            return "cycle is not tight"
        if v not in cycle or inst.phi[v] == inst.psi[v]:
            return "maps agree on the named vertex"
        return None
    if kind == "free-class-mismatch":
        return None if class_mismatch(inst, obstruction) else "cores are rotations"
    if kind == "no-valid-walk" and isinstance(cycle, list) and len(cycle) == 1:
        v = cycle[0]
        if not (isinstance(v, int) and 0 <= v < inst.gn):
            return "cycle is not a vertex of G"
        if v not in inst.g[v]:
            return "vertex has no loop"
        if inst.mode == "girth5" and inst.g[v] != {v}:
            return "vertex is not isolated"
        if separated(inst, inst.phi[v], inst.psi[v]):
            return None
        return "colours are not separated"
    if kind == "no-valid-walk" and not closed_walk(_looped(inst), cycle):
        return "cycle is not a closed walk"
    if kind == "unrealizable":
        v = obstruction.get("vertex")
        if not tight(inst, cycle):
            return "cycle is not tight"
        if v not in cycle or any(inst.phi[x] != inst.psi[x] for x in cycle):
            return "maps differ on the cycle"
    if kind not in ("no-valid-walk", "unrealizable"):
        return f"unknown obstruction {kind!r}"
    answer, _ = bfs(inst, bfs_budget)
    if answer == "budget" and reference is not None:
        answer = reference
    return None if answer == "no" else f"move-graph search says {answer}"


def check(inst_doc: dict, result: dict, bfs_budget: int, reference: str | None = None):
    """(answer, reason): reason is None when the result is certified."""
    inst = Inst(inst_doc)
    answer = result.get("answer") if isinstance(result, dict) else None
    if answer == "yes":
        witness = result.get("witness")
        moves = witness.get("moves") if isinstance(witness, dict) else None
        if not isinstance(moves, list):
            return answer, "no move list"
        bad = replay(inst, moves)
        return answer, None if bad is None else f"replay fails at move {bad}"
    if answer == "no":
        return answer, check_no(inst, result.get("obstruction"), bfs_budget, reference)
    return answer, "no answer"


def corruptions(inst_doc: dict, result: dict) -> list[tuple[str, dict]]:
    """Broken copies of a certified result that every checker must reject."""
    inst = Inst(inst_doc)
    out = []
    if result["answer"] == "yes":
        moves = result["witness"]["moves"]
        if moves:
            i = len(moves) // 2
            cur = list(inst.phi)
            for v, c in moves[:i]:
                cur[v] = c
            v = moves[i][0]
            far = [c for c in range(inst.hn) if c not in inst.h[cur[v]]]
            bad = [list(m) for m in moves]
            bad[i][1] = far[0] if far and v in inst.g[v] else cur[v]
            out.append(("move altered", {"answer": "yes", "witness": {"moves": bad}}))
        a = next((x for x in range(inst.gn) if inst.g[x] - {x}), 0)
        fake = {"type": "frozen-mismatch", "cycle": [a, a], "vertex": a}
        out.append(("answer flipped", {"answer": "no", "obstruction": fake}))
        return out
    ob = result["obstruction"]
    cycle = ob.get("cycle", [])
    looped = _looped(inst)
    if len(cycle) > 2:
        others = [w for w in range(inst.gn) if w not in looped[cycle[0]]]
        if others:
            bad = dict(ob, cycle=[cycle[0], others[0]] + cycle[2:])
            out.append(("cycle vertex changed", {"answer": "no", "obstruction": bad}))
    if ob.get("type") == "no-valid-walk" and len(cycle) == 1:
        # a loopless isolated vertex with separated colours jumps between them
        jumpers = [w for w in range(inst.gn)
                   if not inst.g[w] and separated(inst, inst.phi[w], inst.psi[w])]
        if jumpers:
            bad = dict(ob, cycle=[jumpers[0]])
            out.append(("moved onto a loopless vertex", {"answer": "no", "obstruction": bad}))
    jumps = [[v, inst.psi[v]] for v in range(inst.gn) if inst.phi[v] != inst.psi[v]]
    out.append(("answer flipped", {"answer": "yes", "witness": {"moves": jumps}}))
    return out

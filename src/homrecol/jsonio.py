"""Instance and result files.

An instance file is a JSON object with graphs "G" and "H" (num_vertices,
edges, optional "reflexive" flag that expands to loops on every vertex),
arrays "phi" and "psi", and an optional "mode" ("reflexive" by default).
Result files carry "answer" plus either a move-list witness or a typed
obstruction.  All output is deterministic and newline-terminated.
"""

from __future__ import annotations

import gc
import json
import sys
from itertools import repeat
from typing import Any

from .errors import InvalidInputError
from .graphs import Graph
from .solver import GIRTH5, REFLEXIVE, Instance, Obstruction, Verdict


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidInputError(msg)


def _num_vertices(obj: Any, name: str) -> int:
    _require(isinstance(obj, dict), f"{name} must be an object")
    _require("num_vertices" in obj, f"{name}.num_vertices is required")
    n = obj["num_vertices"]
    # type(x) is int also rejects bool
    _require(type(n) is int and n >= 0, f"{name}.num_vertices must be a nonnegative integer")
    # no list has more than sys.maxsize items: Graph's range(n) would raise
    # OverflowError, an internal error, for what is invalid input
    _require(n <= sys.maxsize, f"{name}.num_vertices must be at most {sys.maxsize}")
    return n


def graph_from_dict(obj: Any, name: str = "graph") -> Graph:
    """The graph obj describes, built by Graph from one pass over the edges.

    The edges are handed to Graph in order, and each leaves obj["edges"]
    as Graph draws it: the document's edge list is empty
    afterwards, or, when an edge is rejected, holds the edges after it in
    reverse order.  The rest of obj is left as it is.
    """
    n = _num_vertices(obj, name)
    edges = obj.get("edges", [])
    _require(isinstance(edges, list), f"{name}.edges must be a list")
    reflexive = obj.get("reflexive", False)
    # the edges are checked first, the flag and the keys after them; popped
    # from the reversed list at C level, each [u, v] is freed with its two
    # ints once Graph has checked it, before Graph makes any row
    edges.reverse()
    try:
        g = Graph(n, map(edges.pop, repeat(-1, len(edges))), reflexive is True)
    except InvalidInputError as exc:  # an edge's error, named edges[i]
        raise InvalidInputError(f"{name}.{exc}") from None
    _require(isinstance(reflexive, bool), f"{name}.reflexive must be a boolean")
    unknown = set(obj) - {"num_vertices", "edges", "reflexive"}
    _require(not unknown, f"{name} has unknown keys: {sorted(unknown)}")
    return g


def _parse_map(obj: list, name: str, hn: int) -> tuple[int, ...]:
    for i, c in enumerate(obj):
        if type(c) is not int:
            raise InvalidInputError(f"{name}[{i}] must be an integer")
        if not 0 <= c < hn:
            raise InvalidInputError(f"{name}[{i}] out of range")
    return tuple(obj)


def instance_from_dict(doc: Any) -> Instance:
    """The instance doc describes, checked.  Building G and H empties the
    edge lists of doc (see graph_from_dict)."""
    _require(isinstance(doc, dict), "instance file must be a JSON object")
    for key in ("G", "H", "phi", "psi"):
        _require(key in doc, f"missing key {key!r}")
    unknown = set(doc) - {"G", "H", "phi", "psi", "mode"}
    _require(not unknown, f"unknown keys: {sorted(unknown)}")
    # the maps' lengths bound G's size by the input's before any row is
    # allocated, so a huge G.num_vertices with short maps costs nothing
    gn = _num_vertices(doc["G"], "G")
    for key in ("phi", "psi"):
        _require(isinstance(doc[key], list), f"{key} must be a list")
        _require(len(doc[key]) == gn, f"{key} must have length {gn}")
    g = graph_from_dict(doc["G"], "G")
    h = graph_from_dict(doc["H"], "H")
    phi = _parse_map(doc["phi"], "phi", h.n)
    psi = _parse_map(doc["psi"], "psi", h.n)
    mode = doc.get("mode", REFLEXIVE)
    _require(mode in (REFLEXIVE, GIRTH5), 'mode must be "reflexive" or "girth5"')
    return Instance(g=g, h=h, phi=phi, psi=psi, mode=mode)


def loads(text: str) -> Any:
    """json.loads, with malformed or too deeply nested text as invalid input.

    The cyclic garbage collector is paused while parsing: a JSON document
    holds no reference cycles, and every list the parser builds would
    otherwise be scanned again and again as the document grows.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise InvalidInputError("JSON nested too deeply") from exc
    finally:
        if enabled:
            gc.enable()


def parse_instance(text: str) -> Instance:
    """The instance in text.  The reference to text is dropped once it is
    parsed: on CPython 3.11, where the callee owns its arguments, a caller
    that passes the text as a temporary frees it before the graphs are
    built."""
    doc = loads(text)
    del text
    return instance_from_dict(doc)


def _graph_to_dict(g: Graph) -> dict:
    if g.is_reflexive():
        non_loops = [[u, v] for u, v in g.edge_list() if u != v]
        return {"num_vertices": g.n, "edges": non_loops, "reflexive": True}
    return {"num_vertices": g.n, "edges": [[u, v] for u, v in g.edge_list()]}


def instance_to_dict(inst: Instance) -> dict:
    return {
        "G": _graph_to_dict(inst.g),
        "H": _graph_to_dict(inst.h),
        "phi": list(inst.phi),
        "psi": list(inst.psi),
        "mode": inst.mode,
    }


def _obstruction_to_dict(o: Obstruction) -> dict:
    out: dict[str, Any] = {"type": o.kind, "cycle": list(o.cycle)}
    if o.vertex is not None:
        out["vertex"] = o.vertex
    if o.cores is not None:
        out["cores"] = [list(o.cores[0]), list(o.cores[1])]
    return out


class _YesResult(dict):
    """The document of a YES verdict.  Its witness moves are the verdict's
    flat array [v0, c0, v1, c1, ...], which dumps writes as the result
    file's [[v0, c0], [v1, c1], ...] without building a pair per move."""


def verdict_to_dict(v: Verdict) -> dict:
    if v.yes:
        return _YesResult(answer="yes", witness={"moves": v.moves})
    return {"answer": "no", "obstruction": _obstruction_to_dict(v.obstruction)}


def _int_list(obj: Any) -> bool:
    return isinstance(obj, list) and all(type(x) is int for x in obj)  # bool is not int


def obstruction_from_dict(doc: Any) -> Obstruction:
    _require(isinstance(doc, dict), "obstruction must be an object")
    _require(isinstance(doc.get("type"), str), "obstruction.type must be a string")
    _require(_int_list(doc.get("cycle")), "obstruction.cycle must be a list of integers")
    vertex = doc.get("vertex")
    _require(vertex is None or type(vertex) is int, "obstruction.vertex must be an integer")
    cores = None
    if "cores" in doc:
        raw = doc["cores"]
        _require(
            isinstance(raw, list) and len(raw) == 2 and all(_int_list(c) for c in raw),
            "obstruction.cores must be two lists of integers",
        )
        cores = (tuple(raw[0]), tuple(raw[1]))
    return Obstruction(kind=doc["type"], cycle=tuple(doc["cycle"]), vertex=vertex, cores=cores)


def moves_from_dict(doc: Any) -> list[list[int]]:
    """The moves of a YES result, checked where they lie in the parsed
    document: each one stays the two-element list json built."""
    _require(isinstance(doc, dict), "result file must be a JSON object")
    _require(doc.get("answer") == "yes", 'answer must be "yes" for a move-list witness')
    witness = doc.get("witness")
    _require(isinstance(witness, dict), "result file has no witness")
    moves = witness.get("moves")
    _require(isinstance(moves, list), "witness.moves must be a list")
    for i, m in enumerate(moves):
        # type(x) is int also rejects bool
        if not (type(m) is list and len(m) == 2 and type(m[0]) is int and type(m[1]) is int):
            raise InvalidInputError(f"witness.moves[{i}] must be a [vertex, colour] pair")
    return moves


MOVES_PER_CHUNK = 1024
_MOVE = "[%d,%d],"


def dumps(doc: dict) -> str:
    """doc as compact JSON and a newline.  A _YesResult is written by hand,
    its moves MOVES_PER_CHUNK pairs to one format string, to exactly the
    bytes json.dumps writes for the same moves as pairs; every other doc,
    plain dicts included, goes through json.dumps."""
    if type(doc) is not _YesResult:
        return json.dumps(doc, separators=(",", ":")) + "\n"
    flat = doc["witness"]["moves"]
    parts = ['{"answer":"yes","witness":{"moves":[']
    step = 2 * MOVES_PER_CHUNK
    for i in range(0, len(flat), step):
        chunk = tuple(flat[i : i + step])
        parts.append(_MOVE * (len(chunk) // 2) % chunk)
    if len(parts) > 1:
        parts[-1] = parts[-1][:-1]  # no comma after the last move
    parts.append("]}}\n")
    return "".join(parts)

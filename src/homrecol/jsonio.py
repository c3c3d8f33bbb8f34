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
from typing import Any

from .errors import InvalidInputError
from .graphs import Graph
from .solver import GIRTH5, REFLEXIVE, Instance, Obstruction, Verdict


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidInputError(msg)


def graph_from_dict(obj: Any, name: str = "graph") -> Graph:
    _require(isinstance(obj, dict), f"{name} must be an object")
    _require("num_vertices" in obj, f"{name}.num_vertices is required")
    n = obj["num_vertices"]
    # type(x) is int also rejects bool
    _require(type(n) is int and n >= 0, f"{name}.num_vertices must be a nonnegative integer")
    edges = obj.get("edges", [])
    _require(isinstance(edges, list), f"{name}.edges must be a list")
    # per-element checks build their message only on failure
    for i, e in enumerate(edges):
        if not (type(e) is list and len(e) == 2 and type(e[0]) is int and type(e[1]) is int):
            raise InvalidInputError(f"{name}.edges[{i}] must be a pair of integers")
        if not (0 <= e[0] < n and 0 <= e[1] < n):
            raise InvalidInputError(f"{name}.edges[{i}] out of range")
    reflexive = obj.get("reflexive", False)
    _require(isinstance(reflexive, bool), f"{name}.reflexive must be a boolean")
    unknown = set(obj) - {"num_vertices", "edges", "reflexive"}
    _require(not unknown, f"{name} has unknown keys: {sorted(unknown)}")
    return Graph(n, edges, reflexive=reflexive)


def _parse_map(obj: Any, name: str, gn: int, hn: int) -> tuple[int, ...]:
    _require(isinstance(obj, list), f"{name} must be a list")
    _require(len(obj) == gn, f"{name} must have length {gn}")
    for i, c in enumerate(obj):
        if type(c) is not int:
            raise InvalidInputError(f"{name}[{i}] must be an integer")
        if not 0 <= c < hn:
            raise InvalidInputError(f"{name}[{i}] out of range")
    return tuple(obj)


def instance_from_dict(doc: Any) -> Instance:
    _require(isinstance(doc, dict), "instance file must be a JSON object")
    for key in ("G", "H", "phi", "psi"):
        _require(key in doc, f"missing key {key!r}")
    unknown = set(doc) - {"G", "H", "phi", "psi", "mode"}
    _require(not unknown, f"unknown keys: {sorted(unknown)}")
    g = graph_from_dict(doc["G"], "G")
    h = graph_from_dict(doc["H"], "H")
    phi = _parse_map(doc["phi"], "phi", g.n, h.n)
    psi = _parse_map(doc["psi"], "psi", g.n, h.n)
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
    return instance_from_dict(loads(text))


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


def verdict_to_dict(v: Verdict) -> dict:
    if v.yes:
        # json encodes each (vertex, colour) tuple as a two-element array
        return {"answer": "yes", "witness": {"moves": v.moves}}
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


def dumps(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":")) + "\n"

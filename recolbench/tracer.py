"""Spans and counts recorded from outside homrecol.

``install`` wraps public functions at the import sites the solver and the
CLI call them through (for example both ``homrecol.solver.generate_system``
and ``homrecol.systems.generate_system``).  A span is a list
``[name, start, end, parent]`` with ``perf_counter`` times; the parent is the
index of the enclosing span, or -1.  Hot functions get counting wrappers
without spans.  Everything stays in memory until ``dump`` writes the raw
spans and a per-name summary at process end.

A wrapper whose target no longer exists is skipped, so a refactor of
homrecol leaves the traced run working and the metric of that layer at 0.
Only traced runs import this module; untraced runs install no wrapper.
"""

from __future__ import annotations

import json
import time
from collections import Counter

perf = time.perf_counter


class Tracer:
    def __init__(self, phase: str):
        self.phase = phase
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.in_edge_check = 0

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.stack.pop()
        self.spans[idx][2] = perf()

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return wrapper

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
        return out

    def dump(self, path: str) -> None:
        doc = {
            "phase": self.phase,
            "summary": self.summary(),
            "counts": dict(self.counts),
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _patch(tracer: Tracer, module, attr: str, name: str) -> None:
    if hasattr(module, attr):
        setattr(module, attr, tracer.timed(name, getattr(module, attr)))


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an already imported homrecol."""
    import homrecol.cli as cli
    import homrecol.jsonio as jsonio
    import homrecol.scheduling as scheduling
    import homrecol.solver as solver
    import homrecol.systems as systems

    counts = tracer.counts

    # jsonio: parsing counts the bytes it reads, dumping the bytes it writes.
    parse_instance = jsonio.parse_instance

    def parse(text):
        counts["jsonio.in_bytes"] += len(text)
        idx = tracer.begin("jsonio.parse_instance")
        try:
            return parse_instance(text)
        finally:
            tracer.end(idx)

    jsonio.parse_instance = parse
    dumps = jsonio.dumps

    def dump(doc):
        idx = tracer.begin("jsonio.dumps")
        try:
            out = dumps(doc)
        finally:
            tracer.end(idx)
        counts["jsonio.out_bytes"] += len(out)
        return out

    jsonio.dumps = dump
    _patch(tracer, jsonio, "verdict_to_dict", "jsonio.verdict_to_dict")
    _patch(tracer, jsonio, "moves_from_dict", "jsonio.moves_from_dict")
    _patch(tracer, jsonio, "obstruction_from_dict", "jsonio.obstruction_from_dict")

    # solver and the CLI hold their own references to these names.
    for module in (solver, cli):
        _patch(tracer, module, "solve", "solver.solve")
        _patch(tracer, module, "validate_instance", "solver.validate_instance")
        _patch(tracer, module, "verify_witness", "solver.verify_witness")
    _patch(tracer, solver, "recheck_obstruction", "solver.recheck_obstruction")
    _patch(tracer, solver, "connected_components", "graphs.connected_components")
    _patch(tracer, solver, "find_valid_base_walk", "systems.find_valid_base_walk")
    _patch(tracer, solver, "generate_system", "solver.generate_system")
    _patch(tracer, solver, "schedule", "scheduling.schedule")
    _patch(tracer, systems, "generate_system", "systems.generate_system")
    for module in (solver, systems):
        _patch(tracer, module, "free_decomposition", "walks.free_decomposition")

    # reduce_walk is called once per vertex: count, do not span.  Output
    # directly under generate_system (not under its edge check) is the
    # system's walks.
    generate_names = ("systems.generate_system", "solver.generate_system")

    def counted_reduce(reduce_walk):
        def wrapper(x):
            out = reduce_walk(x)
            counts["walks.reduce_calls"] += 1
            counts["walks.reduce_in"] += len(x)
            if not tracer.in_edge_check and tracer.innermost() in generate_names:
                counts["systems.walk_vertices"] += len(out)
            return out

        return wrapper

    for module in (solver, systems):
        if hasattr(module, "reduce_walk"):
            module.reduce_walk = counted_reduce(module.reduce_walk)

    if hasattr(systems, "edge_preserved"):
        edge_preserved = systems.edge_preserved

        def edge_check(*args):
            tracer.in_edge_check += 1
            try:
                return edge_preserved(*args)
            finally:
                tracer.in_edge_check -= 1

        systems.edge_preserved = edge_check

    # Each queue pop that finds its vertex unfinished makes one movable check.
    state = getattr(scheduling, "ScheduleState", None)
    if state is not None:
        movable, move = state.movable, state.move

        def counted_movable(self, u):
            counts["scheduling.pops"] += 1
            return movable(self, u)

        def counted_move(self, u):
            counts["scheduling.moves"] += 1
            return move(self, u)

        state.movable = counted_movable
        state.move = counted_move

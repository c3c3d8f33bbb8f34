"""Processes run.py starts, one job each.

    child.py gen WORKLOAD SEED DIR
    child.py solve-cli INSTANCE [--trace FILE]        stdout is the result file
    child.py verify-cli INSTANCE RESULT [--trace FILE]
    child.py certify-no DIR NAME... [--trace FILE]
    child.py solve-corpus DIR [--trace FILE]           stdout holds one result a line
    child.py certify-corpus DIR [--trace FILE]
    child.py audit DIR

The solve jobs end their standard error with one JSON line holding
``setup_cpu``: the CPU seconds (user + system) this process spent loading,
read with ``getrusage``.  For ``solve-cli`` that is all it had used when
``solve`` was entered; ``solve-corpus`` reads, parses and solves one
instance at a time, as ``homrecol solve`` does, and adds the CPU of each
read and parse to what it had used before the first.  run.py takes the
process's total from ``wait4``.  Untraced, ``solve-cli`` installs one probe,
on ``homrecol.cli.solve``, that reads the clock once and calls the real
``solve``; it is the only way to split one ``cli.run`` at the point where
``solve`` is entered.
"""

import json
import os
import resource
import sys


def cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def report(doc: dict) -> None:
    sys.stderr.write(json.dumps(doc) + "\n")
    sys.stderr.flush()


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def split_trace(argv: list[str]) -> tuple[list[str], str | None]:
    if "--trace" in argv:
        i = argv.index("--trace")
        return argv[:i] + argv[i + 2 :], argv[i + 1]
    return argv, None


def start_tracer(phase: str, trace_path: str | None):
    """Import homrecol.cli, under a span when traced; return the tracer."""
    if trace_path is None:
        import homrecol.cli  # noqa: F401

        return None
    import tracer as tracing

    tracer = tracing.Tracer(phase)
    idx = tracer.begin("cli.import")
    import homrecol.cli  # noqa: F401

    tracer.end(idx)
    tracing.install(tracer)
    return tracer


def finish(tracer, trace_path: str | None) -> None:
    if tracer is not None:
        tracer.dump(trace_path)


def solve_cli(args: list[str], trace_path: str | None) -> int:
    tracer = start_tracer("solve", trace_path)
    import homrecol.cli as cli

    marks: list[float] = []
    real_solve = cli.solve

    def probe(inst, *a, **kw):
        marks.append(cpu())
        return real_solve(inst, *a, **kw)

    cli.solve = probe
    code = cli.run(["solve", args[0]])
    sys.stdout.flush()
    finish(tracer, trace_path)
    report({"setup_cpu": marks[0] if marks else None, "exit": code})
    return code


def verify_cli(args: list[str], trace_path: str | None) -> int:
    tracer = start_tracer("certify", trace_path)
    import homrecol.cli as cli

    code = cli.run(["verify", args[0], args[1]])
    sys.stdout.flush()
    finish(tracer, trace_path)
    return code


def certify_no(args: list[str], trace_path: str | None) -> int:
    """recheck_obstruction on each NO result; `homrecol verify` rejects NO files."""
    tracer = start_tracer("certify", trace_path)
    import homrecol.jsonio as jsonio
    import homrecol.solver as solver

    directory, names = args[0], args[1:]
    verdicts = []
    for name in names:
        inst = jsonio.parse_instance(read(os.path.join(directory, "inst", name + ".json")))
        doc = json.loads(read(os.path.join(directory, "res", name + ".json")))
        obstruction = jsonio.obstruction_from_dict(doc["obstruction"])
        verdicts.append(bool(solver.recheck_obstruction(inst, obstruction)))
    finish(tracer, trace_path)
    print(json.dumps({"rechecked": verdicts}))
    return 0 if all(verdicts) else 1


CORPUS_RESULTS = "results.jsonl"


def corpus_names(directory: str) -> list[str]:
    with open(os.path.join(directory, "inst", "index.json"), encoding="utf-8") as fh:
        return json.load(fh)["names"]


def solve_corpus(args: list[str], trace_path: str | None) -> int:
    """The calls `homrecol solve` makes, for every corpus file in one process."""
    tracer = start_tracer("solve", trace_path)
    import homrecol.cli as cli
    import homrecol.jsonio as jsonio

    directory = args[0]
    names = corpus_names(directory)
    setup_cpu = cpu()
    yes = 0
    for name in names:
        start = cpu()
        inst = jsonio.parse_instance(read(os.path.join(directory, "inst", name + ".json")))
        setup_cpu += cpu() - start
        verdict = cli.solve(inst)
        yes += verdict.yes
        sys.stdout.write(jsonio.dumps(jsonio.verdict_to_dict(verdict)))
    sys.stdout.flush()
    finish(tracer, trace_path)
    report({"setup_cpu": setup_cpu, "yes": yes, "no": len(names) - yes})
    return 0


def certify_corpus(args: list[str], trace_path: str | None) -> int:
    """YES through the calls `homrecol verify` makes, NO through recheck_obstruction."""
    tracer = start_tracer("certify", trace_path)
    import homrecol.jsonio as jsonio
    import homrecol.solver as solver

    directory = args[0]
    bad = []
    with open(os.path.join(directory, "res", CORPUS_RESULTS), encoding="utf-8") as fh:
        results = fh.read().splitlines()
    names = corpus_names(directory)
    if len(results) != len(names):
        print(json.dumps({"rejected": ["result count"]}))
        return 1
    for name, line in zip(names, results):
        inst = jsonio.parse_instance(read(os.path.join(directory, "inst", name + ".json")))
        doc = json.loads(line)
        if doc.get("answer") == "yes":
            solver.validate_instance(inst)
            ok = solver.verify_witness(inst, jsonio.moves_from_dict(doc)).ok
        else:
            ok = solver.recheck_obstruction(inst, jsonio.obstruction_from_dict(doc["obstruction"]))
        if not ok:
            bad.append(name)
    finish(tracer, trace_path)
    print(json.dumps({"rejected": bad}))
    return 0 if not bad else 1


def audit(args: list[str]) -> int:
    """Time the exhaustive oracle on the small corpus instances and the double bridge."""
    import time

    import homrecol.jsonio as jsonio
    from homrecol import families
    from homrecol.oracle import hom_graph_bfs

    directory = args[0]
    insts = [families.make_double_bridge()]
    with open(os.path.join(directory, "inst", "index.json"), encoding="utf-8") as fh:
        index = json.load(fh)
    if index["workload"] == "corpus":
        for name in index["names"]:
            inst = jsonio.parse_instance(read(os.path.join(directory, "inst", name + ".json")))
            if inst.g.n <= 6 and inst.h.n <= 8:
                insts.append(inst)
    start = time.perf_counter()
    answers = [hom_graph_bfs(i.g, i.h, i.phi, i.psi, max_states=100_000).value for i in insts]
    elapsed = time.perf_counter() - start
    report({"bfs_s": elapsed, "instances": len(insts), "answers": answers})
    return 0


def gen(args: list[str]) -> int:
    import homrecol.cli  # noqa: F401  compiles the package's bytecode before timing
    import workloads

    workload, seed, directory = args[0], int(args[1]), args[2]
    names = workloads.write(workload, seed, os.path.join(directory, "inst"))
    report({"names": names})
    return 0


def main() -> int:
    argv, trace_path = split_trace(sys.argv[1:])
    job, args = argv[0], argv[1:]
    if job == "gen":
        return gen(args)
    if job == "audit":
        return audit(args)
    jobs = {
        "solve-cli": solve_cli,
        "verify-cli": verify_cli,
        "certify-no": certify_no,
        "solve-corpus": solve_corpus,
        "certify-corpus": certify_corpus,
    }
    return jobs[job](args, trace_path)


if __name__ == "__main__":
    sys.exit(main())

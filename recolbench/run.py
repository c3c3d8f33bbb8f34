"""Benchmark of homrecol: load, solve and certify, in CPU seconds.

    python3 recolbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; homrecol is imported from ./src.  The
workloads are ``wrap-yes``, ``wrap-no`` and ``corpus`` (see README.md).  One
run generates the inputs (not timed), then repeats whole rounds of the same
operations until the next round would end past S seconds.  A round solves
every instance and certifies every result, one process at a time: a closed
loop with one client.  The first round's results, and any later result that
differs from every result already checked, go through the independent
checkers in check.py.

Times are CPU seconds (user + system) of the child processes, from wait4.
Untraced (--trace 0) the last line of standard output is the medians over
rounds of the end-to-end metrics; traced (--trace 1) rounds alternate
untraced and traced, and the last line holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("wrap-yes", "wrap-no", "corpus")
DEADLINE_S = 170.0  # the whole run, generation and checks included
STARTED = time.monotonic()

# per-layer time: sum of inclusive span time over (phase, span) pairs
LAYER_TIMES = {
    "cli.import_s": [("solve", "cli.import")],
    "jsonio.parse_s": [("solve", "jsonio.parse_instance"), ("certify", "jsonio.parse_instance")],
    "jsonio.dump_s": [("solve", "jsonio.verdict_to_dict"), ("solve", "jsonio.dumps")],
    "jsonio.moves_parse_s": [("certify", "jsonio.moves_from_dict")],
    "solver.solve_s": [("solve", "solver.solve")],
    "solver.validate_s": [("solve", "solver.validate_instance")],
    "graphs.components_s": [("solve", "graphs.connected_components")],
    "systems.base_walk_s": [("solve", "systems.find_valid_base_walk")],
    "systems.generate_s": [("solve", "systems.generate_system"), ("solve", "solver.generate_system")],
    "walks.free_decomposition_s": [("solve", "walks.free_decomposition")],
    "scheduling.schedule_s": [("solve", "scheduling.schedule")],
    "solver.selfcheck_s": [("solve", "solver.verify_witness")],
    "solver.verify_s": [("certify", "solver.verify_witness")],
    "solver.recheck_s": [("certify", "solver.recheck_obstruction")],
}
# per-layer counts: number of calls of a span, or a counter of the tracer
LAYER_CALLS = {
    "systems.generate_calls": [("solve", "systems.generate_system"), ("solve", "solver.generate_system")],
    "scheduling.schedule_calls": [("solve", "scheduling.schedule")],
    "solver.retries": [("solve", "solver.generate_system")],
}
LAYER_COUNTS = {
    "systems.walk_vertices": [("solve", "systems.walk_vertices")],
    "walks.reduce_calls": [("solve", "walks.reduce_calls")],
    "walks.reduce_in": [("solve", "walks.reduce_in")],
    "scheduling.pops": [("solve", "scheduling.pops")],
    "scheduling.moves": [("solve", "scheduling.moves")],
}


class BenchError(Exception):
    pass


def child_env(with_src: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    if with_src:
        env["PYTHONPATH"] = SRC
    return env


class Proc:
    """One finished child: exit code, CPU seconds, peak RSS, its output."""

    def __init__(self, args: list[str], work: str, stdout_path: str | None = None,
                 with_src: bool = True):
        out_path = stdout_path or os.path.join(work, "stdout.txt")
        err_path = os.path.join(work, "stderr.txt")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + args, stdout=out, stderr=err,
                                    env=child_env(with_src), cwd=ROOT)
            remaining = DEADLINE_S - (time.monotonic() - STARTED)
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 0.01))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except TimeoutError:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise BenchError(f"{args[0:2]} ran past the run's deadline") from None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.wall = time.perf_counter() - start
        self.code = proc.returncode
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            self.stderr = fh.read()
        self.stdout = ""
        if stdout_path is None:
            with open(out_path, encoding="utf-8", errors="replace") as fh:
                self.stdout = fh.read()

def last_json(text: str) -> dict:
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {}


def _alarm(signum, frame):
    raise TimeoutError


def result_answer(path: str) -> str | None:
    """The answer field, read from the first bytes of a result file."""
    with open(path, "rb") as fh:
        head = fh.read(32)
    for answer in ("yes", "no"):
        if head.startswith(b'{"answer":"%s"' % answer.encode()):
            return answer
    return None


def digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                h.update(block)
        h.update(b"\0")
    return h.hexdigest()


class Run:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.work = os.path.join(HERE, "_work", workload)
        shutil.rmtree(self.work, ignore_errors=True)
        for sub in ("inst", "res", "trace"):
            os.makedirs(os.path.join(self.work, sub))
        gen = Proc([CHILD, "gen", workload, str(seed), self.work], self.work)
        if gen.code != 0:
            raise BenchError("input generation failed:\n" + gen.stderr)
        self.names = last_json(gen.stderr)["names"]
        self.checked: dict[str, dict] = {}
        self.failed = 0
        self.attempted = 0
        self.errors: list[str] = []

    def inst(self, name: str) -> str:
        return os.path.join(self.work, "inst", name + ".json")

    def res(self, name: str) -> str:
        return os.path.join(self.work, "res", name + ".json")

    def res_files(self) -> list[str]:
        if self.workload == "corpus":
            return [os.path.join(self.work, "res", "results.jsonl")]
        return [self.res(n) for n in self.names]

    def trace_args(self, trace_dir: str | None, label: str) -> list[str]:
        return ["--trace", os.path.join(trace_dir, label + ".json")] if trace_dir else []

    def fail(self, ops: int, what: str) -> None:
        self.failed += ops
        self.errors.append(what)

    def round(self, trace_dir: str | None = None) -> dict:
        if self.workload == "corpus":
            return self.corpus_round(trace_dir)
        setup = solve = solve_wall = 0.0
        rss = 0.0
        for name in self.names:
            p = Proc([CHILD, "solve-cli", self.inst(name)] + self.trace_args(trace_dir, "solve-" + name),
                     self.work, stdout_path=self.res(name))
            self.attempted += 1
            probe = last_json(p.stderr).get("setup_cpu")
            answer = result_answer(self.res(name))
            expected = {"yes": 0, "no": 1}.get(answer)
            if probe is None or p.code != expected:
                self.fail(1, f"solve {name}: exit {p.code}, answer {answer}: {p.stderr[-300:]}")
                continue
            setup += probe
            solve += p.cpu - probe
            solve_wall += p.wall
            rss = max(rss, p.rss_mb)
        if self.workload == "wrap-yes":
            name = self.names[0]
            p = Proc([CHILD, "verify-cli", self.inst(name), self.res(name)]
                     + self.trace_args(trace_dir, "certify"), self.work)
            self.attempted += 1
            if p.code != 0 or p.stdout.strip() != '{"verified":true}':
                self.fail(1, f"verify {name}: exit {p.code}: {p.stdout[-200:]} {p.stderr[-300:]}")
        else:
            p = Proc([CHILD, "certify-no", self.work] + self.names
                     + self.trace_args(trace_dir, "certify"), self.work)
            self.attempted += len(self.names)
            verdicts = last_json(p.stdout).get("rechecked", [])
            if p.code != 0 or len(verdicts) != len(self.names):
                self.fail(len(self.names), f"certify: exit {p.code}: {p.stderr[-300:]}")
        return {"setup_s": setup, "solve_s": solve, "certify_s": p.cpu, "peak_rss_mb": rss,
                "solve_wall_s": solve_wall, "certify_wall_s": p.wall}

    def corpus_round(self, trace_dir: str | None) -> dict:
        n = len(self.names)
        p = Proc([CHILD, "solve-corpus", self.work] + self.trace_args(trace_dir, "solve"), self.work,
                 stdout_path=self.res_files()[0])
        self.attempted += n
        setup = last_json(p.stderr).get("setup_cpu")
        if p.code != 0 or setup is None:
            self.fail(n, f"solve-corpus: exit {p.code}: {p.stderr[-300:]}")
            setup = 0.0
        c = Proc([CHILD, "certify-corpus", self.work] + self.trace_args(trace_dir, "certify"), self.work)
        self.attempted += n
        if c.code != 0:
            rejected = last_json(c.stdout).get("rejected", [])
            self.fail(len(rejected) or n, f"certify-corpus: exit {c.code}, rejected {rejected[:5]}")
        return {"setup_s": setup, "solve_s": p.cpu - setup, "certify_s": c.cpu,
                "peak_rss_mb": p.rss_mb, "solve_wall_s": p.wall, "certify_wall_s": c.wall}

    def check(self, quality: bool = False) -> dict | None:
        """Independent check of the current results, once per distinct output."""
        key = digest(self.res_files())
        if key in self.checked and not quality:
            return self.checked[key]
        p = Proc([os.path.join(HERE, "check.py"), self.work] + (["--quality"] if quality else []),
                 self.work, with_src=False)
        doc = last_json(p.stdout)
        if p.code != 0 or not doc.get("ok"):
            self.errors.append(f"independent check failed: {p.stdout[-600:]} {p.stderr[-300:]}")
            doc["ok"] = False
        self.checked[key] = doc
        return doc

    def total(self, row: dict) -> float:
        return row["setup_s"] + row["solve_s"] + row["certify_s"]


def read_traces(trace_dir: str) -> tuple[dict, dict]:
    """Sum span summaries and counters over the processes of one traced round."""
    spans: dict[tuple[str, str], dict] = {}
    counts: dict[tuple[str, str], int] = {}
    for entry in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, entry), encoding="utf-8") as fh:
            doc = json.load(fh)
        phase = doc["phase"]
        for name, row in doc["summary"].items():
            acc = spans.setdefault((phase, name), {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for name, value in doc["counts"].items():
            counts[(phase, name)] = counts.get((phase, name), 0) + value
    return spans, counts


def layer_metrics(spans: dict, counts: dict) -> dict:
    out = {}
    for metric, keys in LAYER_TIMES.items():
        out[metric] = sum(spans.get(k, {}).get("total_s", 0.0) for k in keys)
    for metric, keys in LAYER_CALLS.items():
        out[metric] = sum(spans.get(k, {}).get("calls", 0) for k in keys)
    for metric, keys in LAYER_COUNTS.items():
        out[metric] = sum(counts.get(k, 0) for k in keys)
    pops = out["scheduling.pops"]
    out["scheduling.move_ratio"] = out["scheduling.moves"] / pops if pops else 0.0
    out["jsonio.in_mb"] = (counts.get(("solve", "jsonio.in_bytes"), 0)
                           + counts.get(("certify", "jsonio.in_bytes"), 0)) / 1e6
    out["jsonio.out_mb"] = counts.get(("solve", "jsonio.out_bytes"), 0) / 1e6
    return out


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def median_rows(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def measure(run: Run, seconds: float, traced: bool) -> dict:
    plain: list[dict] = []
    layered: list[dict] = []
    span_tables: list[dict] = []
    used = 0.0
    while True:
        start = time.monotonic()
        plain.append(run.round())
        took = time.monotonic() - start
        run.check(quality=traced and len(plain) == 1)
        if traced:
            start = time.monotonic()
            trace_dir = os.path.join(run.work, "trace", f"round{len(layered)}")
            os.makedirs(trace_dir)
            row = run.round(trace_dir)
            took += time.monotonic() - start
            run.check()
            spans, counts = read_traces(trace_dir)
            layer = layer_metrics(spans, counts)
            layer["round_cpu_s"] = run.total(row)
            layered.append(layer)
            span_tables.append({f"{phase}:{name}": v for (phase, name), v in spans.items()})
        used += took
        if used + took > seconds or time.monotonic() - STARTED + 2 * took > DEADLINE_S - 20:
            break
    result = {"rounds": len(plain), "e2e": median_rows(plain), "per_round": plain}
    if traced:
        layer = median_rows(layered)
        layer["tracing.overhead_s"] = layer.pop("round_cpu_s") - statistics.median(
            run.total(r) for r in plain)
        result["layer"] = layer
        result["spans"] = span_tables[-1]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "homrecol", "cli.py")):
        print(f"error: no homrecol sources under {SRC}", file=sys.stderr)
        return 2
    units = metric_units("per_layer" if args.trace else "end_to_end")
    signal.signal(signal.SIGALRM, _alarm)
    try:
        run = Run(args.workload, args.seed)
        measured = measure(run, args.seconds, bool(args.trace))
        if args.trace:
            audit = Proc([CHILD, "audit", run.work], run.work)
            measured["layer"]["oracle.bfs_s"] = last_json(audit.stderr).get("bfs_s", 0.0)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    checks = list(run.checked.values())
    correct = bool(checks) and all(c.get("ok") for c in checks) and not any(
        e.startswith("independent") for e in run.errors)
    for e in run.errors:
        print(e, file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "rounds": measured["rounds"],
            "per_round": measured["per_round"],
            "answers": checks[0].get("answers") if checks else None,
            "selftest": checks[0].get("selftest") if checks else None}
    if args.trace:
        quality = next((c["quality"] for c in checks if "quality" in c), {})
        measured["layer"]["quality.witness_excess"] = quality.get("witness_excess", 0.0)
        info["quality"] = quality
        values = measured["layer"]
        with open(os.path.join(run.work, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"info": info, "layer": values, "spans": measured["spans"]}, fh, indent=1)
    else:
        values = measured["e2e"]
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: no value measured for {missing}", file=sys.stderr)
        return 3
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

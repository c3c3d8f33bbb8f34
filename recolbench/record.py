"""Run every workload on several seeds and write BENCH_<tag>.json.

    python3 recolbench/record.py --tag baseline [--first-seed 1]

Runs run.py once per (seed, workload), untraced, for ten seeds, workloads
interleaved so that slow spells of the machine spread over all of them;
then one traced run per workload.  For each end-to-end metric the file
holds the median, the quartiles (statistics.quantiles, n=4), the spread
(interquartile range over median) and the sample count; the same for the
wall time of the solve and certify processes; the share of failed
operations; and the traced per-layer numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    doc = json.loads(lines[-1])
    doc["info"] = json.loads(lines[-2])
    doc["wall_s"] = time.monotonic() - start
    print(f"{workload} seed {seed} trace {trace}: {doc['wall_s']:.0f} s, correct {doc['correct']}, "
          + ", ".join(f"{k}={v['value']:.4g}" for k, v in doc["metrics"].items()
                      if trace == 0), file=sys.stderr, flush=True)
    return doc


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "n": len(values),
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--tag", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = bench_spec()
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    with open(os.path.join(HERE, "_work", f"record-{args.tag}.jsonl"), "w") as raw:
        for seed in seeds:
            for w in workloads:
                runs[w].append(one_run(w, seed, seconds, 0))
                raw.write(json.dumps(runs[w][-1]) + "\n")
                raw.flush()
    doc = {
        "tag": args.tag,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "command": spec["command"],
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for w in workloads:
        rows = runs[w]
        entry = {
            "correct": all(r["correct"] for r in rows),
            "failed_share": [r["failed"] / r["attempted"] for r in rows],
            "rounds": [r["info"]["rounds"] for r in rows],
            "answers": rows[0]["info"]["answers"],
            "run_wall_s": summarize([r["wall_s"] for r in rows]),
            "end_to_end": {},
            # wall seconds of the same processes, for comparison with CPU time
            "wall": {k: summarize([statistics.median(x[k] for x in r["info"]["per_round"])
                                   for r in rows])
                     for k in ("solve_wall_s", "certify_wall_s")},
        }
        for m in spec["end_to_end"]:
            entry["end_to_end"][m["name"]] = dict(
                unit=m["unit"], bound=m["bound"],
                **summarize([r["metrics"][m["name"]]["value"] for r in rows]))
        traced = one_run(w, seeds[0], seconds, 1)
        entry["traced"] = {
            "seed": seeds[0],
            "correct": traced["correct"],
            "quality": traced["info"].get("quality"),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        doc["workloads"][w] = entry
    path = os.path.join(HERE, f"BENCH_{args.tag}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for w, entry in doc["workloads"].items():
        for name, m in entry["end_to_end"].items():
            print(f"{w:9s} {name:12s} median {m['median']:.4g} spread {m['spread']:.3f} "
                  f"(bound {m['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

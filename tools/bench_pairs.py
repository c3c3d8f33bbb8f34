"""Alternating parent/change pairs of the benchmark, judged by the claim rule.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S --first-seed K

PARENT and CHANGE are the roots of two checkouts.  Pair i runs

    python3 recolbench/run.py --workload W --seed K+i --seconds S --trace 0

in both, one after the other, with the same seed; the parent goes first in
even pairs and the change in odd ones, so a slow spell of the machine falls
on both sides.  N must be at least 2, or the script exits with status 2
before any run.  A run that exits nonzero, reads `correct` false or reports
a failed operation stops the whole comparison with exit status 1.

For each end-to-end metric of PARENT's BENCHMARK.json the table gives the
parent's median and quartiles (statistics.quantiles, n=4, as record.py
takes them), the change's median, and in how many pairs the change was
better (ties count for neither side).  `claim` is the gain rule: better in
at least nine tenths of the pairs, and medians that differ, in the better
direction, by more than the parent's interquartile range.  `bound` says
whether the change's median is worse than the parent's by no more than the
metric's relative bound (`inside`) or by more (`past`).  It reads
`unresolved` instead when the parent's own spread (IQR over median) is
wider than the bound, unless every run of the change reads better than
every run of the parent.

The script only reads recolbench/ and BENCHMARK.json of the two checkouts;
run.py writes its inputs and results under recolbench/_work/ there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def one_run(root: str, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """The end-to-end metric values of one run.py run in the checkout at root."""
    cmd = [sys.executable, os.path.join("recolbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{root} {workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    doc = json.loads(lines[-1])
    if not doc["correct"] or doc["failed"]:
        raise SystemExit(f"{root} {workload} seed {seed}: correct {doc['correct']}, "
                         f"failed {doc['failed']} of {doc['attempted']}\n{out.stderr}")
    return {name: m["value"] for name, m in doc["metrics"].items()}


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The comparison of one metric over pairs, parent[i] against change[i]."""
    sign = 1 if better == "lower" else -1  # sign * (parent - change) > 0: a win
    q1, _, q3 = statistics.quantiles(parent, n=4)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gain = sign * (p_med - c_med)
    if q3 - q1 > bound * abs(p_med) and not all(
            sign * (p - c) > 0 for p in parent for c in change):
        inside = "unresolved"
    elif sign * (c_med - p_med) <= bound * abs(p_med):
        inside = "inside"
    else:
        inside = "past"
    return {"parent": p_med, "q1": q1, "q3": q3, "change": c_med, "wins": wins,
            "pairs": len(parent), "claim": 10 * wins >= 9 * len(parent) and gain > q3 - q1,
            "bound": inside}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    args = parser.parse_args()
    if args.pairs < 2:
        # the quartiles of the parent's runs need at least two of them
        print(f"error: --pairs must be at least 2, not {args.pairs}", file=sys.stderr)
        return 2
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(one_run(getattr(args, side), args.workload, seed, args.seconds))
        print(f"pair {i + 1} seed {seed}: " + "; ".join(
            f"{m['name']} {runs['parent'][-1][m['name']]:.4g} -> {runs['change'][-1][m['name']]:.4g}"
            for m in metrics), file=sys.stderr, flush=True)
    print(f"{args.workload}, {args.pairs} pairs, seeds {args.first_seed}-"
          f"{args.first_seed + args.pairs - 1}, --seconds {args.seconds:g}")
    print(f"{'metric':12s} {'parent':>9s} {'[q1, q3]':>20s} {'change':>9s} {'wins':>6s}  claim  bound")
    for m in metrics:
        name = m["name"]
        j = judge([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                  m["better"], m["bound"])
        quartiles = f"[{j['q1']:.4g}, {j['q3']:.4g}]"
        print(f"{name:12s} {j['parent']:9.4g} {quartiles:>20s} {j['change']:9.4g} "
              f"{j['wins']:>3d}/{j['pairs']:<2d}  {'yes' if j['claim'] else 'no':5s}  "
              f"{j['bound']} ({m['bound']:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

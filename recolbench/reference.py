"""Recompute the reference answers of the constructed corpus instances.

    PYTHONPATH=src python3 recolbench/reference.py

The answers come from the benchmark's own breadth-first search over
single-vertex moves (checkers.bfs) with a budget large enough to decide each
instance; homrecol only builds the instances.  ``check.py`` uses an answer
only for an instance file whose SHA-256 matches, and only for a NO
certificate that has no property check and that its own smaller search
cannot decide (make_twisted_loop needs about 300k states).
"""

import hashlib
import json
import os
import sys
import time

from homrecol import jsonio

import checkers
import workloads

BUDGET = 1_000_000


def main() -> int:
    out = {}
    for name in workloads.CONSTRUCTED:
        text = jsonio.dumps(jsonio.instance_to_dict(workloads.constructed(name)))
        start = time.perf_counter()
        answer, states = checkers.bfs(checkers.Inst(json.loads(text)), BUDGET)
        elapsed = time.perf_counter() - start
        print(f"{name}: {answer} after {states} states, {elapsed:.1f} s", file=sys.stderr)
        if answer == "budget":
            continue  # YES instances need no reference: their witnesses replay
        out[name] = {
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "answer": answer,
            "states": states,
        }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"budget": BUDGET, "instances": out}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

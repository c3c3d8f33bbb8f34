"""Check every result of one round with the independent checkers.

    python3 check.py DIR [--quality]

Reads DIR/inst/index.json, each instance, and its result from DIR/res (one
file per instance, or one line of DIR/res/results.jsonl for the corpus), and
prints one JSON line: answer counts, every rejected result with its reason,
and a self-test that breaks each certified result (one move altered, one
cycle vertex changed, the answer flipped, a one-vertex obstruction moved
onto a loopless vertex) and counts how many broken copies the checkers
reject.  With --quality it also measures witness length against
the shortest distance found by breadth-first search on small YES instances,
and checks that the search agrees with every small answer.

This process runs without homrecol on its path; it fails if homrecol was
imported.
"""

import hashlib
import json
import os
import sys
from collections import Counter

import checkers

HERE = os.path.dirname(os.path.abspath(__file__))
BFS_BUDGET = 50_000  # decides make_double_bridge (42k states) and locked_link
QUALITY_BUDGET = 20_000
SMALL = 8  # vertices of G and of H for the quality and agreement search


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["instances"]


def main() -> int:
    directory = sys.argv[1]
    quality = "--quality" in sys.argv[2:]
    with open(os.path.join(directory, "inst", "index.json"), encoding="utf-8") as fh:
        names = json.load(fh)["names"]
    reference = load_reference()
    answers: Counter = Counter()
    errors = []
    selftest: dict[str, list[int]] = {}
    moves_total = dist_total = measured = agreed = 0
    lines = os.path.join(directory, "res", "results.jsonl")
    if os.path.exists(lines):  # the corpus: one result a line, in index order
        with open(lines, encoding="utf-8") as fh:
            results = [json.loads(line) for line in fh]
    else:
        results = []
        for name in names:
            with open(os.path.join(directory, "res", name + ".json"), encoding="utf-8") as fh:
                results.append(json.load(fh))
    if len(results) != len(names):
        print(json.dumps({"ok": False, "errors": ["result count differs from instance count"]}))
        return 1
    for name, result in zip(names, results):
        with open(os.path.join(directory, "inst", name + ".json"), "rb") as fh:
            raw = fh.read()
        inst_doc = json.loads(raw)
        ref = reference.get(name)
        ref_answer = (
            ref["answer"] if ref and ref["sha256"] == hashlib.sha256(raw).hexdigest() else None
        )
        answer, reason = checkers.check(inst_doc, result, BFS_BUDGET, ref_answer)
        kind = answer if answer != "no" else (result.get("obstruction") or {}).get("type")
        answers[kind] += 1
        if reason is not None:
            errors.append({"instance": name, "answer": kind, "reason": reason})
            continue
        inst = checkers.Inst(inst_doc)
        if kind == "frozen-mismatch" and set(result["obstruction"]["cycle"]) == set(range(inst.gn)):
            # the tight cycle covers G, so phi itself must be stuck
            if not checkers.no_legal_move(inst):
                errors.append({"instance": name, "answer": kind, "reason": "phi can move"})
        for label, broken in checkers.corruptions(inst_doc, result):
            row = selftest.setdefault(label, [0, 0])
            row[0] += 1
            row[1] += checkers.check(inst_doc, broken, BFS_BUDGET, ref_answer)[1] is not None
        if quality and inst.gn <= SMALL and inst.hn <= SMALL:
            found, dist = checkers.bfs(inst, QUALITY_BUDGET)
            if found == "budget":
                continue
            if (found == "yes") != (answer == "yes"):
                errors.append({"instance": name, "answer": kind, "reason": f"search says {found}"})
                continue
            agreed += 1
            if found == "yes" and dist > 0:
                measured += 1
                moves_total += len(result["witness"]["moves"])
                dist_total += dist
    doc = {
        "checked": len(names),
        "answers": dict(answers),
        "errors": errors,
        "selftest": selftest,
        "homrecol_imported": any(m.split(".")[0] == "homrecol" for m in sys.modules),
    }
    if quality:
        doc["quality"] = {
            "agreed": agreed,
            "measured": measured,
            "witness_moves": moves_total,
            "shortest_moves": dist_total,
            "witness_excess": moves_total / dist_total if dist_total else 0.0,
        }
    ok = not errors and not doc["homrecol_imported"] and all(
        rejected == tried for tried, rejected in selftest.values()
    )
    doc["ok"] = ok
    print(json.dumps(doc))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

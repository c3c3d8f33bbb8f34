"""homrecol builds no reference cycles.

`cli.run` pauses the cyclic garbage collector for a whole command on that
ground: with nothing cyclic to free, every collection would only scan live
data.  Each test here runs the command's work with the collector off and
then asks it for one full collection, which must find nothing unreachable.
"""

import gc
import random

import pytest

from conftest import mirrored_wrap, tight_rotation
from homrecol import families
from homrecol.graphs import Graph
from homrecol.jsonio import (
    dumps,
    instance_to_dict,
    loads,
    moves_from_dict,
    obstruction_from_dict,
    parse_instance,
    verdict_to_dict,
)
from homrecol.oracle import Answer, hom_graph_bfs
from homrecol.solver import Instance, recheck_obstruction, solve, verify_witness

CONSTRUCTIONS = ["figure_eight", "double_bridge", "locked_link", "twisted_loop", "double_turn"]


def instances(group: str) -> list[Instance]:
    if group == "wraps":
        return [families.make_cycle_wrap(2000, 4, 40), tight_rotation(2000), mirrored_wrap(200)]
    if group == "constructions":
        return [getattr(families, "make_" + name)() for name in CONSTRUCTIONS]
    rng = random.Random(9)
    return [families.random_instance(rng, rng.randrange(2, 13), rng.randrange(4, 9)) for _ in range(200)]


def certify(inst: Instance) -> tuple[bool, bool]:
    """What `solve` then `verify` do: parse, solve, write the result, read it
    back and check its certificate.  Returns the answer and the check."""
    inst = parse_instance(dumps(instance_to_dict(inst)))
    verdict = solve(inst)
    doc = loads(dumps(verdict_to_dict(verdict)))
    if verdict.yes:
        return True, verify_witness(inst, moves_from_dict(doc)).ok
    return False, recheck_obstruction(inst, obstruction_from_dict(doc["obstruction"]))


def unreachable_after(work) -> int:
    """Run work with the collector off; return what a full collection then finds."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("group", ["wraps", "constructions", "random"])
def test_solve_and_certify_leave_no_cycles(group):
    insts = instances(group)
    results = []
    assert unreachable_after(lambda: results.extend(map(certify, insts))) == 0
    assert all(ok for _, ok in results)
    assert any(yes for yes, _ in results) and not all(yes for yes, _ in results)


def test_oracle_leaves_no_cycles():
    insts = instances("constructions")
    answers = []

    def work():
        for inst in insts:
            answers.append(hom_graph_bfs(inst.g, inst.h, inst.phi, inst.psi, max_states=20_000))

    assert unreachable_after(work) == 0
    for inst, answer in zip(insts, answers):
        assert answer is Answer.BUDGET_EXCEEDED or (answer is Answer.YES) == solve(inst).yes


def test_cycles_are_seen():
    # the check finds a cycle when there is one
    def work():
        g = Graph(2, [(0, 1)])
        g.self_ref = g

    assert unreachable_after(work) > 0

"""Command-line interface.

Exit codes: 0 yes / verified / ok, 1 no, 2 invalid input, 3 internal
contract violation or any other failure, 4 oracle budget exceeded,
130 interrupted.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import jsonio
from .errors import InternalError, InvalidInputError
from .graphs import component_trees, validate_host
from .oracle import MAX_STATES, Answer, hom_graph_bfs
from .solver import recheck_obstruction, solve, validate_instance, verify_witness
from .walks import check_walk, reduce_walk

EXIT_YES = 0
EXIT_NO = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3
EXIT_BUDGET = 4
EXIT_INTERRUPTED = 130


def _read(path: str) -> str:
    """The text of an input file, or of stdin for "-": both are read as
    bytes and decoded as strict UTF-8, whatever the locale.  Unreadable
    input, such as a missing file, a directory or bytes that are not UTF-8,
    is invalid input."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        return data.decode("utf-8")
    except OSError as exc:
        raise InvalidInputError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        name = "stdin" if path == "-" else repr(path)
        raise InvalidInputError(f"{name} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc


def _emit(doc: dict) -> None:
    sys.stdout.write(jsonio.dumps(doc))


def _cmd_solve(args) -> int:
    """Solve the instance file and print the verdict.  The instance is
    dropped once it is solved: the dump of a YES holds its text twice (the
    chunks and their join), and G's rows are freed before, not under it."""
    inst = jsonio.parse_instance(_read(args.instance))
    verdict = solve(inst)
    del inst
    _emit(jsonio.verdict_to_dict(verdict))
    return EXIT_YES if verdict.yes else EXIT_NO


def _cmd_oracle(args) -> int:
    if args.max_states < 1:  # the start alone is one visited state
        raise InvalidInputError(f"--max-states must be at least 1, got {args.max_states}")
    inst = jsonio.parse_instance(_read(args.instance))
    validate_instance(inst)
    answer = hom_graph_bfs(inst.g, inst.h, inst.phi, inst.psi, max_states=args.max_states)
    _emit({"answer": answer.value, "max_states": args.max_states})
    if answer is Answer.YES:
        return EXIT_YES
    if answer is Answer.NO:
        return EXIT_NO
    return EXIT_BUDGET


def _cmd_verify(args) -> int:
    inst = jsonio.parse_instance(_read(args.instance))
    validate_instance(inst)
    result = jsonio.loads(_read(args.result))
    if isinstance(result, dict) and result.get("answer") == "no":
        obstruction = jsonio.obstruction_from_dict(result.get("obstruction"))
        verified = recheck_obstruction(inst, obstruction)
        _emit({"verified": verified})
        return EXIT_YES if verified else EXIT_NO
    moves = jsonio.moves_from_dict(result)
    check = verify_witness(inst, moves)
    if check.ok:
        _emit({"verified": True})
        return EXIT_YES
    _emit({"verified": False, "first_bad_move": check.index})
    return EXIT_NO


def _cmd_gen(args) -> int:
    # the generators load here, not with the module: no other command runs them
    import random

    from . import families

    if args.family == "cycle-wrap":
        inst = families.make_cycle_wrap(args.g_len, args.h_len, args.shift)
    elif args.family == "figure-eight":
        inst = families.make_figure_eight()
    else:  # "random", the last of the parser's choices
        for flag, value in (("--gv", args.gv), ("--hv", args.hv)):
            if value < 1:
                raise InvalidInputError(f"{flag} must be at least 1, got {value}")
        inst = families.random_instance(random.Random(args.seed), args.gv, args.hv)
    _emit(jsonio.instance_to_dict(inst))
    return EXIT_YES


def _cmd_reduce_walk(args) -> int:
    doc = jsonio.loads(_read(args.input))
    if not isinstance(doc, dict) or "H" not in doc or "walk" not in doc:
        raise InvalidInputError('reduce-walk input needs keys "H" and "walk"')
    h = jsonio.graph_from_dict(doc["H"], "H")
    raw = doc["walk"]
    if not isinstance(raw, list) or not all(type(x) is int for x in raw):  # bool is not int
        raise InvalidInputError("walk must be a list of integers")
    walk = check_walk(h, raw)
    _emit({"reduced": list(reduce_walk(walk))})
    return EXIT_YES


def _cmd_check_input(args) -> int:
    inst = jsonio.parse_instance(_read(args.instance))
    report = validate_host(inst.h)
    doc = {
        "host": {
            "reflexive": report.is_reflexive,
            "triangle_free": report.is_triangle_free,
            "girth_at_least_5": report.girth_at_least_5,
            "components": sum(1 for _ in component_trees(inst.h)),
        },
        "mode": inst.mode,
    }
    try:
        validate_instance(inst)
        doc["valid"] = True
        _emit(doc)
        return EXIT_YES
    except InvalidInputError as exc:
        doc["valid"] = False
        doc["error"] = str(exc)
        _emit(doc)
        return EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homrecol",
        description="Decide single-vertex recolouring between homomorphisms "
        "into a triangle-free reflexive host.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance", help="instance JSON file, or - for stdin")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="brute-force the answer by BFS")
    p.add_argument("instance")
    p.add_argument("--max-states", type=int, default=MAX_STATES)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="check a result's certificate against an instance")
    p.add_argument("instance")
    p.add_argument("result", help="result JSON file: a move-list witness or an obstruction")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit an instance from a named family")
    p.add_argument("--family", required=True, choices=["cycle-wrap", "figure-eight", "random"])
    p.add_argument("--g-len", type=int, default=13)
    p.add_argument("--h-len", type=int, default=4)
    p.add_argument("--shift", type=int, default=1)
    p.add_argument("--gv", type=int, default=5)
    p.add_argument("--hv", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("reduce-walk", help="print the reduced form of a walk")
    p.add_argument("input", help='JSON with keys "H" and "walk", or - for stdin')
    p.set_defaults(func=_cmd_reduce_walk)

    p = sub.add_parser("check-input", help="validate an instance file")
    p.add_argument("instance")
    p.set_defaults(func=_cmd_check_input)
    return parser


def run(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    The cyclic garbage collector is paused for the command: homrecol builds
    no reference cycles, only tuples, lists and dicts of ints, so every
    collection it would trigger while loading, solving or replaying a large
    witness scans live data and frees nothing.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except KeyboardInterrupt:
        return EXIT_INTERRUPTED
    except Exception as exc:  # MemoryError, OverflowError, ...: never read as "no"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

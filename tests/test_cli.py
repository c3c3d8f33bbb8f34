import gc
import json
import subprocess
import sys

import pytest

from conftest import child_env
from homrecol.cli import run
from homrecol.errors import InvalidInputError
from homrecol.families import make_cycle_wrap, make_figure_eight
from homrecol.jsonio import dumps, instance_to_dict, loads, parse_instance


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(dumps(doc) if isinstance(doc, dict) else doc, encoding="utf-8")
    return str(p)


def c5_instance(psi):
    return {
        "G": {"num_vertices": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]], "reflexive": True},
        "H": {"num_vertices": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]], "reflexive": True},
        "phi": [0, 1, 2, 3, 4],
        "psi": psi,
        "mode": "reflexive",
    }


def test_solve_yes_exit_zero(tmp_path, capsys):
    path = write(tmp_path, "inst.json", c5_instance([0, 1, 2, 3, 4]))
    assert run(["solve", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"answer": "yes", "witness": {"moves": []}}


def test_solve_no_exit_one(tmp_path, capsys):
    path = write(tmp_path, "inst.json", c5_instance([1, 2, 3, 4, 0]))
    assert run(["solve", path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["answer"] == "no"
    assert doc["obstruction"]["type"] == "frozen-mismatch"
    assert doc["obstruction"]["cycle"] == [0, 4, 3, 2, 1, 0]


def test_solve_then_verify_pipeline(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", c5_instance([0, 1, 2, 3, 4]))
    assert run(["solve", inst]) == 0
    result = write(tmp_path, "result.json", capsys.readouterr().out)
    assert run(["verify", inst, result]) == 0
    assert json.loads(capsys.readouterr().out) == {"verified": True}


def test_verify_rejects_bad_witness(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", c5_instance([0, 1, 2, 3, 4]))
    result = write(tmp_path, "result.json", {"answer": "yes", "witness": {"moves": [[0, 2]]}})
    assert run(["verify", inst, result]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"verified": False, "first_bad_move": 0}


def test_verify_rejects_malformed_move(tmp_path, capsys):
    inst = write(tmp_path, "inst.json", c5_instance([0, 1, 2, 3, 4]))
    # a bool, a float, three elements, and moves that are not arrays
    for bad in ([0, True], [0, 1.0], [0, 1, 1], "0,1", {"v": 0, "c": 1}):
        result = write(tmp_path, "result.json", {"answer": "yes", "witness": {"moves": [[0, 1], [0, 0], bad]}})
        assert run(["verify", inst, result]) == 2
        assert "witness.moves[2] must be a [vertex, colour] pair" in capsys.readouterr().err


@pytest.mark.parametrize("answer", ["maybe", None, True, "YES"])
def test_verify_rejects_answer_other_than_yes_or_no(tmp_path, capsys, answer):
    # a move list proves nothing unless the result claims "yes"
    inst = write(tmp_path, "inst.json", c5_instance([0, 1, 2, 3, 4]))
    doc = {"witness": {"moves": []}}
    if answer is not None:
        doc["answer"] = answer
    result = write(tmp_path, "result.json", doc)
    assert run(["verify", inst, result]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == 'error: answer must be "yes" for a move-list witness\n'


def mirrored_wrap(tmp_path, n):
    """A cycle wrap of C4 with psi[i] = phi[-i mod n]: a free-class-mismatch NO."""
    doc = instance_to_dict(make_cycle_wrap(n, 4, 0))
    doc["psi"] = [doc["phi"][(-i) % n] for i in range(n)]
    return write(tmp_path, "inst.json", doc)


def test_verify_accepts_no_result(tmp_path, capsys):
    inst = mirrored_wrap(tmp_path, 12)
    assert run(["solve", inst]) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["obstruction"]["type"] == "free-class-mismatch"
    result = write(tmp_path, "result.json", out)
    assert run(["verify", inst, result]) == 0
    assert json.loads(capsys.readouterr().out) == {"verified": True}


def test_verify_rejects_corrupted_obstruction(tmp_path, capsys):
    inst = mirrored_wrap(tmp_path, 12)
    assert run(["solve", inst]) == 1
    doc = json.loads(capsys.readouterr().out)
    cycle = doc["obstruction"]["cycle"]
    cycle[1] = (cycle[1] + 6) % 12  # no longer a walk of G
    result = write(tmp_path, "result.json", doc)
    assert run(["verify", inst, result]) == 1
    assert json.loads(capsys.readouterr().out) == {"verified": False}
    doc["obstruction"]["cycle"] = [0, "1"]
    result = write(tmp_path, "result.json", doc)
    assert run(["verify", inst, result]) == 2


def test_invalid_json_line_message(tmp_path, capsys):
    path = write(tmp_path, "broken.json", '{\n  "G": }\n')
    assert run(["solve", path]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_invalid_mode_hypothesis_exit_two(tmp_path):
    doc = c5_instance([0, 1, 2, 3, 4])
    doc["G"]["reflexive"] = False
    path = write(tmp_path, "inst.json", doc)
    assert run(["solve", path]) == 2


def test_missing_file_exit_two(tmp_path, capsys):
    path = str(tmp_path / "nope.json")
    assert run(["solve", path]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: {path!r}\n"


def run_child(argv, stdin=b""):
    # strict decoding, as under a UTF-8 locale: in the C locale Python reads
    # stdin with surrogateescape and undecodable bytes reach the JSON parser
    return subprocess.run(
        [sys.executable, "-m", "homrecol.cli", *argv],
        input=stdin,
        capture_output=True,
        env={**child_env(), "PYTHONIOENCODING": "utf-8:strict"},
    )


@pytest.mark.parametrize("case", ["directory", "not-utf8-file", "not-utf8-stdin"])
def test_unreadable_input_exit_two(tmp_path, case):
    # unreadable input is invalid input: one error line, no traceback
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    argv, stdin = {
        "directory": (["solve", str(tmp_path)], b""),
        "not-utf8-file": (["solve", str(bad)], b""),
        "not-utf8-stdin": (["check-input", "-"], bad.read_bytes()),
    }[case]
    out = run_child(argv, stdin)
    assert out.returncode == 2, out.stderr
    assert out.stdout == b""
    err = out.stderr.decode()
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    if case != "directory":
        assert "is not UTF-8 text" in err


def test_unreadable_file_exit_two(tmp_path, monkeypatch, capsys):
    import homrecol.cli as cli

    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    # the file mode cannot deny a root reader, so open itself refuses
    monkeypatch.setattr(cli, "open", denied, raising=False)
    path = write(tmp_path, "inst.json", c5_instance([0, 1, 2, 3, 4]))
    assert run(["solve", path]) == 2
    assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: {path!r}\n"


def test_stdout_write_failure_exit_three(tmp_path, monkeypatch, capsys):
    import homrecol.cli as cli

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    path = write(tmp_path, "inst.json", c5_instance([0, 1, 2, 3, 4]))
    with monkeypatch.context() as patch:  # undone before capsys lets go of stdout
        patch.setattr(cli.sys, "stdout", ClosedPipe())
        assert run(["solve", path]) == 3
    assert capsys.readouterr().err == "internal error: BrokenPipeError: [Errno 32] Broken pipe\n"


def test_oracle_exit_codes(tmp_path, capsys):
    yes = write(tmp_path, "yes.json", c5_instance([0, 1, 2, 3, 4]))
    no = write(tmp_path, "no.json", c5_instance([1, 2, 3, 4, 0]))
    wide = c5_instance([2] * 5)  # constants sit in a large component
    wide["phi"] = [0] * 5
    budget = write(tmp_path, "wide.json", wide)
    assert run(["oracle", yes]) == 0
    assert json.loads(capsys.readouterr().out)["answer"] == "yes"
    assert run(["oracle", no]) == 1
    assert json.loads(capsys.readouterr().out)["answer"] == "no"
    assert run(["oracle", budget, "--max-states", "2"]) == 4
    assert json.loads(capsys.readouterr().out)["answer"] == "budget-exceeded"


def test_gen_is_byte_reproducible(capsys):
    assert run(["gen", "--family", "random", "--gv", "5", "--hv", "5", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert run(["gen", "--family", "random", "--gv", "5", "--hv", "5", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    parse_instance(first)  # and it parses back


def test_gen_figure_eight_matches_family(capsys):
    assert run(["gen", "--family", "figure-eight"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert parse_instance(json.dumps(doc)) == make_figure_eight()


def test_gen_cycle_wrap_solves_yes(tmp_path, capsys):
    assert run(["gen", "--family", "cycle-wrap", "--g-len", "13", "--h-len", "4", "--shift", "1"]) == 0
    inst = write(tmp_path, "wrap.json", capsys.readouterr().out)
    assert run(["solve", inst]) == 0
    result = write(tmp_path, "res.json", capsys.readouterr().out)
    assert run(["verify", inst, result]) == 0


def test_reduce_walk_command(tmp_path, capsys):
    doc = {"H": c5_instance([0, 1, 2, 3, 4])["H"], "walk": [0, 1, 1, 2, 1, 0]}
    path = write(tmp_path, "walk.json", doc)
    assert run(["reduce-walk", path]) == 0
    assert json.loads(capsys.readouterr().out) == {"reduced": [0]}


def test_reduce_walk_rejects_non_walk(tmp_path):
    doc = {"H": c5_instance([0, 1, 2, 3, 4])["H"], "walk": [0, 2]}
    path = write(tmp_path, "walk.json", doc)
    assert run(["reduce-walk", path]) == 2


@pytest.mark.parametrize("walk", [[0, "a"], [0, True], [0, 1.0], 5, {"0": 1}])
def test_reduce_walk_rejects_non_integer_walk(tmp_path, capsys, walk):
    doc = {"H": c5_instance([0, 1, 2, 3, 4])["H"], "walk": walk}
    path = write(tmp_path, "walk.json", doc)
    assert run(["reduce-walk", path]) == 2
    assert capsys.readouterr().err == "error: walk must be a list of integers\n"


def test_check_input_reports(tmp_path, capsys):
    good = write(tmp_path, "good.json", c5_instance([0, 1, 2, 3, 4]))
    assert run(["check-input", good]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["valid"] and doc["host"]["girth_at_least_5"]

    bad = c5_instance([0, 1, 2, 3, 4])
    bad["H"] = {"num_vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]], "reflexive": True}
    bad["phi"] = [0, 1, 2, 1, 0]
    bad["psi"] = [0, 1, 2, 1, 0]
    path = write(tmp_path, "bad.json", bad)
    assert run(["check-input", path]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert not doc["valid"] and not doc["host"]["triangle_free"]


def test_instance_roundtrip():
    inst = make_figure_eight()
    assert parse_instance(dumps(instance_to_dict(inst))) == inst


_DELETE = object()

# (changes to c5_instance as (key path, new value or _DELETE), error text);
# the texts are the parser's messages, which the CLI prints after "error: ".
MALFORMED = [
    ([(("G",), [5])], "G must be an object"),
    ([(("H",), None)], "H must be an object"),
    ([(("G", "num_vertices"), _DELETE)], "G.num_vertices is required"),
    ([(("G", "num_vertices"), True)], "G.num_vertices must be a nonnegative integer"),
    ([(("G", "num_vertices"), 5.0)], "G.num_vertices must be a nonnegative integer"),
    ([(("H", "num_vertices"), -1)], "H.num_vertices must be a nonnegative integer"),
    ([(("G", "edges"), {"0": 1})], "G.edges must be a list"),
    ([(("G", "edges", 2), [2, 3, 4])], "G.edges[2] must be a pair of integers"),
    ([(("H", "edges", 1), 7)], "H.edges[1] must be a pair of integers"),
    ([(("G", "edges", 0), [0, True])], "G.edges[0] must be a pair of integers"),
    ([(("G", "edges", 4), [4.0, 0])], "G.edges[4] must be a pair of integers"),
    ([(("G", "edges", 3), [3, "4"])], "G.edges[3] must be a pair of integers"),
    ([(("H", "edges", 3), [3, 5])], "H.edges[3] out of range"),
    ([(("G", "edges", 0), [-1, 0])], "G.edges[0] out of range"),
    ([(("G", "edges", 1), [1, 9]), (("G", "edges", 3), [3, True])], "G.edges[1] out of range"),
    ([(("G", "reflexive"), 1)], "G.reflexive must be a boolean"),
    ([(("H", "loops"), [])], "H has unknown keys: ['loops']"),
    ([(("G", "loops"), []), (("G", "edges", 4), [4])], "G.edges[4] must be a pair of integers"),
    ([(("phi",), {"0": 0})], "phi must be a list"),
    ([(("psi",), 7)], "psi must be a list"),
    ([(("psi",), [0, 1, 2, 3])], "psi must have length 5"),
    ([(("phi",), [0, 1, 2, 3, 4, 0])], "phi must have length 5"),
    ([(("phi", 0), False)], "phi[0] must be an integer"),
    ([(("psi", 0), 2.5)], "psi[0] must be an integer"),
    ([(("phi", 4), 5)], "phi[4] out of range"),
    ([(("psi", 1), -1)], "psi[1] out of range"),
    ([(("psi", 1), -1), (("psi", 3), True)], "psi[1] out of range"),
    ([(("mode",), "free")], 'mode must be "reflexive" or "girth5"'),
    ([(("mode",), None)], 'mode must be "reflexive" or "girth5"'),
    ([(("extra",), 1)], "unknown keys: ['extra']"),
    ([(("psi",), _DELETE)], "missing key 'psi'"),
]


def _mutated(doc, changes):
    doc = json.loads(json.dumps(doc))
    for path, value in changes:
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is _DELETE:
            del target[path[-1]]
        else:
            target[path[-1]] = value
    return doc


def test_parse_rejects_bool_and_float_ids(tmp_path, capsys):
    from homrecol.errors import InvalidInputError

    base = c5_instance([0, 1, 2, 3, 4])
    for changes, message in MALFORMED:
        doc = _mutated(base, changes)
        with pytest.raises(InvalidInputError) as excinfo:
            parse_instance(json.dumps(doc))
        assert str(excinfo.value) == message
        path = write(tmp_path, "inst.json", json.dumps(doc))
        assert run(["solve", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_parse_accepts_duplicate_edges_and_explicit_loops():
    doc = c5_instance([0, 1, 2, 3, 4])
    doc["G"]["edges"] += [[0, 1], [1, 0], [2, 2]]
    inst = parse_instance(json.dumps(doc))
    assert inst.g.adj[0] == (0, 1, 4)


def test_obstruction_roundtrips_through_result_file():
    from homrecol.jsonio import obstruction_from_dict, verdict_to_dict
    from homrecol.solver import recheck_obstruction, solve

    inst = parse_instance(json.dumps(c5_instance([1, 2, 3, 4, 0])))
    verdict = solve(inst)
    doc = json.loads(dumps(verdict_to_dict(verdict)))
    recovered = obstruction_from_dict(doc["obstruction"])
    assert recovered == verdict.obstruction
    assert recheck_obstruction(inst, recovered)


def test_parse_empty_graph():
    doc = {
        "G": {"num_vertices": 0, "edges": []},
        "H": {"num_vertices": 1, "edges": [[0, 0]]},
        "phi": [],
        "psi": [],
    }
    inst = parse_instance(json.dumps(doc))
    assert inst.g.n == 0 and inst.mode == "reflexive"


def test_unknown_keys_rejected(tmp_path):
    doc = c5_instance([0, 1, 2, 3, 4])
    doc["extra"] = 1
    path = write(tmp_path, "inst.json", doc)
    assert run(["solve", path]) == 2


def test_internal_error_exit_three(tmp_path, monkeypatch, capsys):
    import homrecol.cli as cli
    from homrecol.errors import InternalError

    def boom(inst):
        raise InternalError("synthetic")

    monkeypatch.setattr(cli, "solve", boom)
    path = write(tmp_path, "inst.json", c5_instance([0, 1, 2, 3, 4]))
    assert run(["solve", path]) == 3
    assert "internal error" in capsys.readouterr().err


def test_deeply_nested_json_exit_two(tmp_path):
    # json.loads raises RecursionError here, which must not read as "no"
    path = write(tmp_path, "deep.json", "[" * 200_000 + "]" * 200_000)
    out = subprocess.run(
        [sys.executable, "-m", "homrecol.cli", "solve", path],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr


@pytest.mark.parametrize("enabled", [True, False])
def test_loads_restores_collector_state(enabled):
    # loads pauses the cyclic collector while parsing and must hand it back
    # as it found it, also when the text is malformed or nested too deeply
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert loads('{"moves": [[0, 1], [2, 3]]}') == {"moves": [[0, 1], [2, 3]]}
        assert gc.isenabled() is enabled
        for bad, msg in (('{"moves": [[0, 1]', "line 1"), ("[" * 200_000 + "]" * 200_000, "nested")):
            with pytest.raises(InvalidInputError, match=msg):
                loads(bad)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("code", [0, 1, 2, 3, 130])
def test_run_restores_collector_state(tmp_path, monkeypatch, capsys, enabled, code):
    # run pauses the cyclic collector for the command and must hand it back
    # as it found it on every exit path
    import homrecol.cli as cli
    from homrecol.errors import InternalError

    real_solve = cli.solve
    raised = {3: InternalError("synthetic"), 130: KeyboardInterrupt()}.get(code)
    seen = []

    def probe(inst):
        seen.append(gc.isenabled())
        if raised is not None:
            raise raised
        return real_solve(inst)

    monkeypatch.setattr(cli, "solve", probe)
    psi = [1, 2, 3, 4, 0] if code == 1 else [0, 1, 2, 3, 4]
    path = write(tmp_path, "inst.json", c5_instance(psi))
    if code == 2:
        path = str(tmp_path / "nope.json")
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run(["solve", path]) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([] if code == 2 else [False])
    capsys.readouterr()


@pytest.mark.parametrize("exc", [MemoryError, OverflowError])
def test_unexpected_exception_exit_three(tmp_path, monkeypatch, capsys, exc):
    import homrecol.cli as cli

    def boom(inst):
        raise exc("synthetic")

    monkeypatch.setattr(cli, "solve", boom)
    path = write(tmp_path, "inst.json", c5_instance([0, 1, 2, 3, 4]))
    assert run(["solve", path]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"internal error: {exc.__name__}: synthetic\n"


def test_keyboard_interrupt_exit_130(tmp_path, monkeypatch):
    import homrecol.cli as cli

    def interrupted(inst):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "solve", interrupted)
    path = write(tmp_path, "inst.json", c5_instance([0, 1, 2, 3, 4]))
    assert run(["solve", path]) == 130

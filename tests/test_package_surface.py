"""The package holds only what its entry points run.

Every function defined under src/homrecol must run while `cli.run` handles
its commands: `solve` and `verify` on every answer kind, `check-input` on a
valid and an invalid instance, `oracle` with and without `--max-states`,
each `gen` family and `reduce-walk`.  Every parameter with a default there
must be passed some other value by a call in that run.  Exempt are
families.py (the tests and the benchmark import its generators), dunder
methods and `cli.main` (it only wraps `run` in `sys.exit`).  A function
that shows up here as never run, or a parameter never set, is either dead
or serves only the tests, whose helpers live in tests/.  Every field a class
there declares is read somewhere in the package, no two classes there
declare the same fields, and no module there imports a sibling's
underscore name.  README's Library section lists the exports, exactly
`homrecol.__all__`.  Importing the CLI loads neither the
generators of `gen` nor `dataclasses`: each process pays for the modules
it imports, and only `gen` runs the generators.
"""

from __future__ import annotations

import ast
import importlib
import io
import json
import os
import random
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import homrecol
from conftest import child_env
from homrecol import families
from homrecol.cli import run
from homrecol.jsonio import dumps, instance_to_dict

PACKAGE = Path(homrecol.__file__).resolve().parent
EXEMPT_FILES = {"families.py"}
EXEMPT_NAMES = {"cli.main"}
ANSWERS = {"yes", "free-class-mismatch", "frozen-mismatch", "no-valid-walk", "unrealizable"}


def _defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> dotted name, for every def.

    A decorated function's code object starts at its first decorator."""
    out: dict[tuple[str, int], str] = {}

    def visit(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    out[(path, first)] = name
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT_FILES:
            continue
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), path.stem + ".")
    return {key: name for key, name in out.items() if name not in EXEMPT_NAMES}


def _parameter_defaults() -> dict[tuple[str, int], dict[str, object]]:
    """(file, first line of the code object) -> {parameter: default value},
    for every def with a defaulted parameter, its defaults evaluated in its
    module's namespace."""
    out: dict[tuple[str, int], dict[str, object]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT_FILES:
            continue
        namespace = vars(importlib.import_module(f"homrecol.{path.stem}"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            pairs = list(zip(positional[len(positional) - len(a.defaults) :], a.defaults))
            pairs += [(arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if pairs:
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[(str(path), first)] = {
                    arg.arg: eval(compile(ast.Expression(d), str(path), "eval"), namespace)
                    for arg, d in pairs
                }
    return out


def _instances():
    yield families.make_cycle_wrap(13, 4, 1)
    for name in ("figure_eight", "double_bridge", "locked_link", "twisted_loop", "double_turn"):
        yield getattr(families, f"make_{name}")()
    for seed in range(200):
        rng = random.Random(seed)
        yield families.random_instance(rng, rng.randrange(1, 9), rng.randrange(4, 7))
    for seed in range(100):
        yield families.random_girth5_instance(random.Random(seed), 4 + seed % 7)


def _commands(tmp_path) -> set[str]:
    """Run every command through cli.run; return the answer kinds seen."""

    def call(argv: list[str], *codes: int) -> str:
        out = io.StringIO()
        with redirect_stdout(out):
            assert run(argv) in codes, argv
        return out.getvalue()

    def write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    answers = set()
    for i, inst in enumerate(_instances()):
        path = write(f"inst{i}.json", dumps(instance_to_dict(inst)))
        out = call(["solve", path], 0, 1)
        doc = json.loads(out)
        answers.add(doc["obstruction"]["type"] if doc["answer"] == "no" else "yes")
        assert json.loads(call(["verify", path, write(f"res{i}.json", out)], 0)) == {"verified": True}

    wrap = write("wrap.json", call(["gen", "--family", "cycle-wrap"], 0))
    call(["gen", "--family", "figure-eight"], 0)
    call(["gen", "--family", "random", "--seed", "3"], 0)
    assert json.loads(call(["check-input", wrap], 0))["valid"]
    assert json.loads(call(["oracle", wrap], 0))["answer"] == "yes"
    assert json.loads(call(["oracle", wrap, "--max-states", "5000"], 0))["answer"] == "yes"
    bad = json.loads(dumps(instance_to_dict(families.make_figure_eight())))
    bad["H"] = {"num_vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]], "reflexive": True}
    bad["phi"] = bad["psi"] = [0] * bad["G"]["num_vertices"]
    call(["check-input", write("bad.json", json.dumps(bad))], 2)
    walk = {"H": bad["H"] | {"edges": [[0, 1], [1, 2]]}, "walk": [0, 1, 1, 2, 1]}
    assert json.loads(call(["reduce-walk", write("walk.json", json.dumps(walk))], 0)) == {"reduced": [0, 1]}
    return answers


def _key(code) -> tuple[str, int]:
    return os.path.realpath(code.co_filename), code.co_firstlineno


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    """The commands run once under a profile hook: the answer kinds seen,
    the code objects called, and (code object, parameter) for each defaulted
    parameter some call passed another value."""
    defaults = _parameter_defaults()
    by_code: dict = {}  # code object -> its defaults, {} for none
    ran: set = set()
    set_params: set = set()

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        ran.add(code)
        params = by_code.get(code)
        if params is None:
            params = by_code[code] = defaults.get(_key(code), {})
        for name, default in params.items():
            value = frame.f_locals[name]
            if not (value is default or value == default):
                set_params.add((code, name))

    sys.setprofile(hook)
    try:
        answers = _commands(tmp_path_factory.mktemp("cli"))
    finally:
        sys.setprofile(None)
    return answers, ran, set_params


def test_every_package_function_runs_under_the_cli(cli_corpus):
    answers, ran, _ = cli_corpus
    defined = _defined_functions()
    assert answers == ANSWERS
    seen = {_key(c) for c in ran}
    never = sorted(name for key, name in defined.items() if key not in seen)
    assert never == [], f"defined in src/homrecol but never run by the CLI: {never}"


def test_every_defaulted_parameter_is_set_under_the_cli(cli_corpus):
    # a default that no call overrides is a knob only the tests turn, or
    # none at all
    _, _, set_params = cli_corpus
    defined = _defined_functions()
    passed = {(_key(code), name) for code, name in set_params}
    never = sorted(
        f"{defined[key]}({name})"
        for key, params in _parameter_defaults().items()
        if key in defined
        for name in params
        if (key, name) not in passed
    )
    assert never == [], f"parameters in src/homrecol never set by the CLI: {never}"


def test_readme_library_lists_exactly_the_exports():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = set()
    for line in section.splitlines():
        if line.startswith("- "):  # "- `name`, `name`: what they are"
            listed.update(re.findall(r"`(\w+)`", line.split(":", 1)[0]))
    assert listed == set(homrecol.__all__)


def _declared_fields() -> set[str]:
    """Class.field for each field declared under src/homrecol: an annotated
    class attribute, or an attribute of self assigned in __init__."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT_FILES:
            continue
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    out.add(f"{cls.name}.{node.target.id}")
                elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
                    out.update(
                        f"{cls.name}.{sub.attr}"
                        for sub in ast.walk(node)
                        if isinstance(sub, ast.Attribute)
                        and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    )
    return out


def test_every_declared_field_is_read():
    # a field stored but never read as `.name` anywhere in the package is a
    # second copy of some fact, or no fact at all
    read = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = sorted(f for f in _declared_fields() if f.split(".", 1)[1] not in read)
    assert unread == [], f"fields declared in src/homrecol but never read: {unread}"


def test_no_two_classes_declare_the_same_fields():
    # two classes with one set of fields are one type under two names
    fields: dict[str, set[str]] = {}
    for name in _declared_fields():
        cls, field = name.split(".", 1)
        fields.setdefault(cls, set()).add(field)
    classes: dict[frozenset[str], list[str]] = {}
    for cls, names in sorted(fields.items()):
        classes.setdefault(frozenset(names), []).append(cls)
    twins = sorted(group for group in classes.values() if len(group) > 1)
    assert twins == [], f"classes in src/homrecol with the same fields: {twins}"


def test_no_module_imports_a_private_name_from_a_sibling():
    # an underscore name is private to its module: a sibling that needs it
    # wants it public, in the module it belongs to
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [
                    f"{path.stem} <- {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert private == [], f"private names imported across src/homrecol: {private}"


def _loaded_in_a_fresh_interpreter(code: str, names: list[str]) -> dict[str, bool]:
    probe = f"{code}\nimport json, sys\nprint(json.dumps({{n: n in sys.modules for n in {names!r}}}))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=child_env(), check=True
    )
    return json.loads(out.stdout)


def test_importing_the_cli_loads_neither_families_nor_dataclasses():
    loaded = _loaded_in_a_fresh_interpreter("import homrecol.cli", ["homrecol.families", "dataclasses"])
    assert not loaded["homrecol.families"]
    # an interpreter whose startup already loads dataclasses (a site hook,
    # say) has it whatever homrecol imports
    bare = _loaded_in_a_fresh_interpreter("pass", ["dataclasses"])
    assert not loaded["dataclasses"] or bare["dataclasses"]


def test_no_module_imports_dataclasses():
    # the result types are NamedTuples: dataclasses costs every process the
    # import of inspect and the code it generates per class
    importing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            importing += [path.stem for m in modules if m.split(".")[0] == "dataclasses"]
    assert importing == [], f"modules importing dataclasses: {importing}"

"""No definition in `src/charfive` exists only for the tests.

Every non-dunder `def` and `class` in the package must be named somewhere
the product runs: in `src/charfive` itself, in `demos/` or in `perfbench/`
(its test files excluded).  A name counts as used when it appears as a
`Name`, an `Attribute` or a keyword argument; an import alias does not
count, and `__init__.py` re-exports nothing.  Helpers that only tests
call belong in `tests/`, as oracles or fixtures.

That check is by name, not by binding: a name shared by several
definitions, such as `to_json_dict`, counts as used for all of them once
any of them is used, so an unused method with a shared name passes.  The
second check is by running: the verbs behind the goldens and the demos
must enter every non-dunder `def` of the package.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

from cli_cases import CURVE_GOLDENS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "charfive"


def _trees(paths):
    return [(path, ast.parse(path.read_text(), filename=str(path))) for path in paths]


def _used_names(trees):
    used = set()
    for _path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                used.add(node.arg)
    return used


def test_every_package_definition_is_reached_outside_tests():
    package = _trees(sorted(PACKAGE.glob("*.py")))
    callers = package + _trees(sorted(ROOT.glob("demos/*.py")) + [
        p for p in sorted(ROOT.glob("perfbench/*.py")) if not p.name.startswith("test_")])
    used = _used_names(callers)
    unreached = sorted(
        f"{path.stem}.{node.name}"
        for path, tree in package
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used)
    assert not unreached, "reached only from tests: " + ", ".join(unreached)


#: in a fresh interpreter: record the (file, first line) of every code
#: object entered, with the profiler installed before charfive is imported
ENTERED = """
import contextlib, io, json, runpy, sys
sys.path.insert(0, {src!r})
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(
    (frame.f_code.co_filename, frame.f_code.co_firstlineno)))
def main(argv):
    sys.argv = ["charfive", *argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("charfive.cli", run_name="__main__")
        except SystemExit as exc:
            assert exc.code == 0, (argv, exc.code)
for argv in {argvs!r}:
    main(argv)
for demo in {demos!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(demo, run_name="__main__")
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def test_every_package_definition_is_entered_by_the_verbs_and_demos(tmp_path):
    """The argv table of the curve goldens, `lattice classify`, `verify` on
    its output and `table1` as JSON and as Markdown, each through `python
    -m charfive.cli`, and the three demos enter every non-dunder `def` in
    `src/charfive`, nested ones included; a decorated `def` is entered at
    the line of its first decorator."""
    claims = str(tmp_path / "classify.json")
    argvs = [argv for _golden, argv in CURVE_GOLDENS] + [
        ["lattice", "classify", "--out", claims], ["lattice", "verify", "--in", claims],
        ["lattice", "table1"], ["lattice", "table1", "--format", "md"]]
    demos = [str(p) for p in sorted(ROOT.glob("demos/*.py"))]
    assert len(demos) == 3
    code = ENTERED.format(src=str(ROOT / "src"), argvs=argvs, demos=demos)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=tmp_path).stdout
    entered = {(str(Path(name).resolve()), line) for name, line in json.loads(out)}
    defs = {
        (str(path.resolve()), min([node.lineno] + [d.lineno for d in node.decorator_list])):
            f"{path.stem}.{node.name}"
        for path, tree in _trees(sorted(PACKAGE.glob("*.py")))
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))}
    assert len(defs) > 100
    unentered = sorted(name for key, name in defs.items() if key not in entered)
    assert not unentered, "entered by no verb or demo: " + ", ".join(unentered)

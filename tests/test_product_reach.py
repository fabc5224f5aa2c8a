"""No definition in `src/charfive` exists only for the tests.

Every non-dunder `def` and `class` in the package must be named somewhere
the product runs: in `src/charfive` itself, in `demos/` or in `perfbench/`
(its test files excluded).  A name counts as used when it appears as a
`Name`, an `Attribute` or a keyword argument; an import alias does not
count, and `__init__.py` re-exports nothing.  Helpers that only tests
call belong in `tests/`, as oracles or fixtures.

The check is by name, not by binding: a name shared by several
definitions, such as `to_json_dict`, counts as used for all of them once
any of them is used, so an unused method with a shared name passes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "charfive"

# argparse calls this override of ArgumentParser.error itself
CALLED_BY_LIBRARY = {"error"}


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
    used = _used_names(callers) | CALLED_BY_LIBRARY
    unreached = sorted(
        f"{path.stem}.{node.name}"
        for path, tree in package
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used)
    assert not unreached, "reached only from tests: " + ", ".join(unreached)

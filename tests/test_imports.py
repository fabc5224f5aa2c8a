"""What an import loads, each fact checked in a fresh interpreter.

The package has no re-export layer, and no part of it needs numpy: every
lattice verb and the curve verbs give their golden output in an
interpreter where importing numpy fails, the lattice verbs leave numpy
(and `numpy.ma`) unloaded, and a curve verb builds none of the lazy
tables of `discform`.  numpy stays a dependency of the test oracles only.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
GOLDEN = ROOT / "tests" / "golden"
FIXTURE = "[0,0,1,0,0,0,1]@5"


def fresh(code, prelude=""):
    """Run `code` in a new interpreter with `src` first on its path, after
    `prelude`, and return its stdout parsed as JSON."""
    out = subprocess.run(
        [sys.executable, "-c", f"{prelude}import sys; sys.path.insert(0, {SRC!r}); {code}"],
        capture_output=True, text=True, check=True, cwd=ROOT).stdout
    return json.loads(out)


def test_package_import_loads_no_submodule():
    loaded = fresh("import json, charfive; print(json.dumps(sorted("
                   "m for m in sys.modules if m.startswith('charfive.'))))")
    assert loaded == []


def test_curvecheck_imports_no_numpy():
    loaded = fresh("import json, charfive.curvecheck; "
                   "print(json.dumps(sorted(m for m in sys.modules "
                   "if m == 'numpy' or m.startswith('charfive.'))))")
    assert "numpy" not in loaded
    assert "charfive.discform" not in loaded and "charfive.curvecheck" in loaded


def test_lattice_verbs_never_import_numpy_ma(tmp_path):
    """The lattice verbs load neither numpy nor its lazily imported
    `numpy.ma`."""
    claims = tmp_path / "classify.json"
    code = (
        "import io, json; from charfive.cli import run; "
        "codes = [run(['lattice', 'classify', '--out', %r], stdout=io.StringIO()), "
        "run(['lattice', 'verify', '--in', %r], stdout=io.StringIO()), "
        "run(['lattice', 'table1'], stdout=io.StringIO())]; "
        "print(json.dumps([codes, 'numpy' in sys.modules, 'numpy.ma' in sys.modules]))"
    ) % (str(claims), str(claims))
    codes, numpy_loaded, ma_loaded = fresh(code)
    assert codes == [0, 0, 0] and not numpy_loaded
    assert not ma_loaded


#: (argv, golden file, exit code) of every lattice verb and the fixture's curve verbs
VERBS = [
    (["lattice", "classify"], "classify.json", 0),
    (["lattice", "classify", "--format", "md"], "classify.md", 0),
    (["lattice", "table1", "--format", "md"], "table1.md", 0),
    (["lattice", "table1", "--format", "json"], "table1.json", 0),
    (["lattice", "verify", "--in", "tests/golden/classify.json"], "lattice_verify.json", 0),
    (["lattice", "verify", "--in", "tests/golden/lattice_verify_unmatched_claims.json"],
     "lattice_verify_unmatched.json", 1),
    (["lattice", "verify", "--in", "tests/golden/lattice_verify_mixed_claims.json"],
     "lattice_verify_mixed.json", 1),
    (["curve", "check", "--poly", FIXTURE], "curve_check_fixture.json", 0),
    (["curve", "ns", "--poly", FIXTURE], "curve_ns_fixture.json", 0),
]


def test_verbs_run_without_numpy():
    """With `import numpy` made to fail, every lattice verb and `curve
    check`/`ns` on the fixture give their golden output and exit code."""
    code = (
        "import io, json; from charfive.cli import run; out = []\n"
        f"for argv in {[argv for argv, _golden, _code in VERBS]!r}:\n"
        "    buf = io.StringIO(); out.append([run(argv, buf, io.StringIO()), buf.getvalue()])\n"
        "print(json.dumps([out, 'numpy' in sys.modules and sys.modules['numpy'] is not None]))"
    )
    results, numpy_loaded = fresh(code, prelude="import sys; sys.modules['numpy'] = None; ")
    assert not numpy_loaded
    for (argv, golden, exit_code), (got_code, got) in zip(VERBS, results, strict=True):
        assert got_code == exit_code, argv
        assert got == (GOLDEN / golden).read_text(), argv


def test_cli_loads_no_argparse(tmp_path):
    """The verbs read their options from the verb table and hold their
    records as named tuples: neither argparse nor the gettext it imports,
    nor dataclasses and the inspect it imports, nor fractions and the
    decimal it imports, is loaded by `curve check` or by a lattice verb."""
    claims = tmp_path / "classify.json"
    codes, loaded = fresh(
        "import io, json; from charfive.cli import run; "
        "codes = [run(['curve', 'check', '--poly', %r], io.StringIO(), io.StringIO()), "
        "run(['lattice', 'classify', '--out', %r], io.StringIO(), io.StringIO()), "
        "run(['lattice', 'verify', '--in', %r], io.StringIO(), io.StringIO()), "
        "run(['lattice', 'table1'], io.StringIO(), io.StringIO())]; "
        "print(json.dumps([codes, [m for m in ('argparse', 'gettext', 'dataclasses', 'inspect', "
        "'fractions', 'decimal') if m in sys.modules]]))" % (FIXTURE, str(claims), str(claims)))
    assert codes == [0, 0, 0, 0]
    assert loaded == []


def test_curve_verb_builds_no_lattice_table():
    """`import charfive.cli` and a `curve check` leave every cached table of
    `discform` empty: they are built on first use, by the lattice verbs."""
    sizes = fresh(
        "import io, json; from charfive import cli, discform; "
        "cli.run(['curve', 'check', '--poly', %r], io.StringIO(), io.StringIO()); "
        "print(json.dumps({name: f.cache_info().currsize for name, f in vars(discform).items() "
        "if hasattr(f, 'cache_info')}))" % FIXTURE)
    assert {"_x_parts", "_reference_images", "_type_representatives", "_shell_table",
            "_reference_form", "_column", "_box_scan"} <= set(sizes)
    assert set(sizes.values()) == {0}

"""What an import loads, each fact checked in a fresh interpreter.

The package has no re-export layer, the curve modules run without numpy,
and the lattice verbs never reach `numpy.ma`, whose lazy import (for
example through a plain `np.unique`) costs tens of milliseconds.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def fresh(code):
    """Run `code` in a new interpreter with `src` first on its path and
    return its stdout parsed as JSON."""
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); {code}"],
        capture_output=True, text=True, check=True).stdout
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
    claims = tmp_path / "classify.json"
    code = (
        "import io, json; from charfive.cli import run; "
        "codes = [run(['lattice', 'classify', '--out', %r], stdout=io.StringIO()), "
        "run(['lattice', 'verify', '--in', %r], stdout=io.StringIO()), "
        "run(['lattice', 'table1'], stdout=io.StringIO())]; "
        "print(json.dumps([codes, 'numpy' in sys.modules, 'numpy.ma' in sys.modules]))"
    ) % (str(claims), str(claims))
    codes, numpy_loaded, ma_loaded = fresh(code)
    assert codes == [0, 0, 0] and numpy_loaded
    assert not ma_loaded
